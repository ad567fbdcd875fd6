"""Output checks: reference digests and seed-independent report invariants.

None of the invariants is read back from the library: each is a theorem the
report must satisfy whatever code produced it.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# components of the special fibre (Kodaira symbols without an index)
_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}
_CONDUCTOR_EXPONENT = {"Good": 0, "Mult": 1, "Additive": 2}  # residue char >= 5
# exit code of `eulerchar analyze` for each report status (docstring of cli)
_EXIT_CODE = {"OK": 0, "HYPOTHESIS_FAIL": 2, "NOT_EXACT": 3}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digest(reference: dict, workload: str, seed: int, name: str) -> str | None:
    """The recorded digest for a row, or None where none was recorded
    (census rows of another seed, or beyond the recorded prefix)."""
    if workload == "census":
        if seed != reference["census_seed"]:
            return None
        index = int(name.rsplit("/", 1)[1])
        digests = reference["census"]
        return digests[index] if index < len(digests) else None
    return reference[workload].get(name)


def components(symbol: str) -> int:
    if symbol in _COMPONENTS:
        return _COMPONENTS[symbol]
    if symbol.endswith("*"):  # I_n*
        return int(symbol[1:-1]) + 5
    return int(symbol[1:])  # I_n, n >= 1


def _euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def invariant_problems(doc: dict) -> list[str]:
    """Violations of the Hasse bound, Ogg's formula, the rho breakdown sum,
    the chi_sigma audit sum and tau_p <= [F:Q]."""
    if "places" not in doc:  # `eulerchar tau` output
        degree = _euler_phi(doc["conductor"])
        return [] if 0 <= doc["tau_p"] <= degree else [f"tau_p {doc['tau_p']} > degree {degree}"]
    problems = []
    for place in doc["places"]:
        label = place["place"]
        if place["N_v"] is not None:
            q, n = int(place["q_v"]), int(place["N_v"])
            if (q + 1 - n) ** 2 > 4 * q:
                problems.append(f"{label}: N_v = {n} breaks the Hasse bound for q = {q}")
        if place["ell"] >= 5:
            cls = place["reduction_class"]
            kind = next(k for k in _CONDUCTOR_EXPONENT if cls.startswith(k))
            ogg = _CONDUCTOR_EXPONENT[kind] + components(place["kodaira"]) - 1
            if place["v_min_delta"] != ogg:
                problems.append(f"{label}: v(Delta_min) = {place['v_min_delta']}, Ogg gives {ogg}")
    rho = doc["rho"]
    if rho["exponent"] is not None and sum(rho["breakdown"].values()) != rho["exponent"]:
        problems.append(f"rho breakdown {rho['breakdown']} does not sum to {rho['exponent']}")
    chi_cyc, chi_sigma = doc["chi_cyc"]["exponent"], doc["chi_sigma"]["exponent"]
    if chi_sigma is not None:
        audit = sum(row["contribution"] for row in doc["audit"])
        if chi_sigma != chi_cyc + audit:
            problems.append(f"chi_sigma {chi_sigma} != chi_cyc {chi_cyc} + audit {audit}")
    if doc["tau_p"] > doc["degree"]:
        problems.append(f"tau_p {doc['tau_p']} > degree {doc['degree']}")
    return problems


def check(text: str, code: int, expected: str | None) -> list[str]:
    """All problems with one serialised report and the CLI's exit code."""
    problems = []
    if expected is not None and digest(text) != expected:
        problems.append(f"report digest {digest(text)} != reference {expected}")
    doc = json.loads(text)
    want = _EXIT_CODE[doc["status"]] if "status" in doc else 0
    if code != want:
        problems.append(f"exit code {code}, expected {want} for this report")
    return problems + invariant_problems(doc)
