"""Request generators for the benchmark workloads.

Every workload is a list of rows ``(name, kind, payload)``.  ``kind`` is
``"analyze"`` (payload: the request as JSON text, exactly what
``eulerchar analyze`` reads) or ``"tau"`` (payload: the argument list of the
``eulerchar tau`` subcommand).  Rows depend only on the seed, never on the
speed of the program, so two commits measured with one seed get the same
inputs.

Why each workload exists:

* ``census``: distinct small-height curves over Q.  No two requests share a
  curve, so per-request fixed cost dominates and caches are bypassed.
* ``tower``: a fixed grid over three small-conductor curves, two primes and
  tame first-layer conductors.  Requests share curves, so local data and the
  rational torsion computation recur, and residue degrees f > 1 put
  extension-field point counts on the critical path.  The seed changes
  nothing: drawing other curves changes the cost tenfold, and reordering
  moves shared work between requests, which shifts the median request by a
  quarter; either would swamp the run-to-run spread the bounds allow.
* ``scale``: the rows of the ROADMAP baseline table that finish at the
  commit that defined the benchmark, each run in its own interpreter.  The
  seed only orders the rows.
"""

from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUEST_DIR = ROOT / "data" / "requests"

#: census a-invariants: a1, a3 in {0, 1}, a2 in {-1, 0, 1}, a4, a6 in [-H, H]
CENSUS_HEIGHT = 5
#: census requests per second of --seconds, up to half the curves of the box
#: (E and A are distinct).  At --seconds 10 a run uses nearly every curve,
#: so seeds differ in pairing and prime, not in which curves are drawn.
CENSUS_PER_SECOND = 70

EXTERNAL = {"selmer_finite": True, "lambda_torsion_certificate": True}

CURVES = {
    "E": ["1", "0", "0", "-1", "-1"],
    "11a": ["0", "-1", "1", "-10", "-20"],
    "37a": ["0", "0", "1", "-1", "0"],
}

VARIETIES = {
    # the bundled factor curve and the bundled reduction table
    "factor": {"dimension": 1, "factors": [["-1", "2", "2", "0", "0"]]},
    "table": {
        "dimension": 2,
        "reduction_table": [
            {"prime": 2, "potentially_good": False, "good": False},
            {"prime": 3, "potentially_good": False, "good": False},
        ],
    },
    "bad_at_2": {
        "dimension": 1,
        "reduction_table": [{"prime": 2, "potentially_good": False, "good": False}],
    },
}

# (curve, p, m, variety).  Shared curves make (curve, ell, e, f) local data
# recur; 11a at p = 7 pays the psi_7 rational-root search on every request.
# Residue fields counted include F_{2^12} (m = 13), F_{5^6} (m = 7, 21) and
# F_{13^4} (m = 5, 15); p | m gives the ramified completions Q_p(mu_p).
# Most requests cost 1-3 s, so the median request is one of many alike.
TOWER_GRID = (
    ("11a", 7, 1, "factor"),
    ("11a", 7, 11, "factor"),  # 7^10 elements: counted over F_7, then extended
    ("11a", 5, 7, "factor"),
    ("11a", 5, 11, "factor"),
    ("11a", 5, 13, "factor"),
    ("11a", 5, 21, "factor"),
    ("E", 5, 5, "factor"),
    ("E", 5, 7, "factor"),
    ("E", 7, 5, "factor"),
    ("E", 7, 7, "factor"),
    ("E", 7, 15, "factor"),
    ("E", 5, 7, "table"),
    ("E", 5, 21, "table"),
    ("37a", 5, 5, "factor"),
    ("37a", 5, 7, "factor"),
    ("37a", 7, 5, "factor"),
)

#: the O(p^2) supersingularity count at growing p.  p = 809 would add 20 s
#: per pass; leaving out p = 101 makes the row count even, so the median
#: latency averages two rows instead of resting on one 1 s row.
TAU_PRIMES = (211, 401)


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def in_domain(request: dict) -> bool:
    """Nonsingular curves, prime p >= 5, and a conductor with no wild place
    (no ell with ell^2 | m; m = 4, 8, 9, 25 fail deep inside the library)."""
    m = request["base_field"]
    curves = [request["curve"], *request["abelian_variety"].get("factors", [])]
    return (
        all(discriminant(*(int(c) for c in curve)) != 0 for curve in curves)
        and request["prime"] >= 5
        and _is_prime(request["prime"])
        and m >= 1
        and all(m % (ell * ell) for ell in range(2, m + 1) if m % ell == 0 and _is_prime(ell))
    )


def _request(curve, p: int, m: int, variety: dict) -> dict:
    return {
        "schema_version": 1,
        "curve": list(curve),
        "prime": p,
        "base_field": m,
        "abelian_variety": variety,
        "external": dict(EXTERNAL),
    }


def _row(name: str, request: dict):
    if not in_domain(request):
        raise ValueError(f"{name}: generated request is outside the supported domain")
    return (name, "analyze", json.dumps(request))


def census_pool() -> int:
    """Nonsingular models in the census box."""
    box = range(-CENSUS_HEIGHT, CENSUS_HEIGHT + 1)
    return sum(1 for c in product((0, 1), (-1, 0, 1), (0, 1), box, box) if discriminant(*c))


def census(seed: int, count: int) -> list:
    """``count`` requests over Q with pairwise distinct curves E and A.

    Request i depends only on (seed, i), so a shorter run checks a prefix of
    a longer one; p alternates 5, 7 so every run has the same prime mix.
    """
    rng = random.Random(f"census:{seed}")
    seen = set()

    def draw() -> list[str]:
        while True:
            coeffs = (
                rng.randint(0, 1),
                rng.randint(-1, 1),
                rng.randint(0, 1),
                rng.randint(-CENSUS_HEIGHT, CENSUS_HEIGHT),
                rng.randint(-CENSUS_HEIGHT, CENSUS_HEIGHT),
            )
            if coeffs not in seen and discriminant(*coeffs) != 0:
                seen.add(coeffs)
                return [str(c) for c in coeffs]

    rows = []
    for i in range(count):
        curve = draw()
        variety = {"dimension": 1, "factors": [draw()]}
        rows.append(_row(f"census/{i}", _request(curve, (5, 7)[i % 2], 1, variety)))
    return rows


def tower() -> list:
    return [
        _row(f"tower/{c}/p{p}/m{m}/{a}", _request(CURVES[c], p, m, VARIETIES[a]))
        for c, p, m, a in TOWER_GRID
    ]


def scale(seed: int) -> list:
    rows = [
        (f"scale/bundled/{path.stem}", "analyze", path.read_text(encoding="utf-8"))
        for path in sorted(REQUEST_DIR.glob("*.json"))
    ]
    rows.append(_row("scale/E/p13/m13", _request(CURVES["E"], 13, 13, VARIETIES["factor"])))
    rows.append(_row("scale/37a/p5/m7/bad_at_2", _request(CURVES["37a"], 5, 7, VARIETIES["bad_at_2"])))
    curve_arg = ",".join(CURVES["E"])
    for p in TAU_PRIMES:
        argv = ["tau", f"--curve={curve_arg}", "--prime", str(p), "--format", "json"]
        rows.append((f"scale/tau/p{p}", "tau", argv))
    random.Random(f"scale:{seed}").shuffle(rows)
    return rows


def build(workload: str, seed: int, seconds: int) -> list:
    if workload == "census":
        return census(seed, min(CENSUS_PER_SECOND * seconds, census_pool() // 2))
    if workload == "tower":
        return tower()
    if workload == "scale":
        return scale(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("census", "tower", "scale")
