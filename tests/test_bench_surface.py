"""What the benchmark under bench/ reads from the library, checked in the
library's own suite: `bench/tracing.py` wraps each of its `WRAP_SITES` by
name and reads a few attributes of the calls it wraps, and `bench/run.py`
reads the memo counts of `finite_fields.fq_create`.  A library change that
renames one of them breaks the benchmark, and the benchmark's own tests
run apart from these.
"""

import importlib.util
from pathlib import Path

from eulerchar import polynomials
from eulerchar.cli import main
from eulerchar.curves import WeierstrassModel, rational_p_torsion_order
from eulerchar.euler import local_data_at
from eulerchar.finite_fields import fq_create
from eulerchar.tate import LocalField

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    """bench/tracing.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_wrap_site_is_a_callable():
    for module, attr, _ in _tracing().WRAP_SITES:
        assert callable(getattr(importlib.import_module(f"eulerchar.{module}"), attr, None)), (
            module, attr)


def test_the_attributes_the_benchmark_reads(monkeypatch):
    assert fq_create.cache_info().misses >= 0
    assert LocalField.precision == LocalField(7, 6).precision == 1
    model = WeierstrassModel(1, 0, 0, -1, -1)
    assert model.coefficients() == (1, 0, 0, -1, -1)
    data = local_data_at(model, 7, 7)
    assert (data.e, data.f, data.precision_used) == (6, 1, 1)
    received = []
    roots = polynomials.rational_roots
    monkeypatch.setattr(polynomials, "rational_roots",
                        lambda psi, *args: received.append(psi) or roots(psi, *args))
    rational_p_torsion_order(WeierstrassModel(0, -1, 1, -10, -20), 5)
    assert [psi.degree for psi in received] == [12]  # psi_5 has degree (5^2 - 1) / 2


def test_a_traced_request_describes_every_span(monkeypatch, capsys):
    """The bundled request, served with every site wrapped, records each
    span that reads its arguments or result, with the attributes read."""
    tracing = _tracing()
    recorder = tracing.Recorder()
    monkeypatch.chdir(ROOT)
    with recorder.installed():
        assert main(["analyze", "data/requests/analysis_with_factor_curve.json",
                     "--format", "json"]) == 0
    assert capsys.readouterr().out
    described = {span["name"]: span["attrs"] for span in recorder.spans if span["attrs"]}
    assert {"tate.tate_algorithm", "euler.local_data_at", "curves.count_points"} <= set(
        described)
    assert described["tate.tate_algorithm"]["retries"] == 0
    keys = {span["attrs"]["key"] for span in recorder.spans
            if span["name"] == "euler.local_data_at"}
    assert "1,0,0,-1,-1|7|6|1|None" in keys  # coefficients, ell, e, f and precision
    assert described["curves.count_points"]["route"] == "prime"
