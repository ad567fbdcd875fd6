"""scripts/mutants.py finds each site of its four operators and changes only
that site's text."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    """scripts/mutants.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''def f(a, b):
    """Docstring: 1 + 1 < 2 and or."""
    if (a + 1) * b <= 3 == a or b % 2 and a:  # and < or
        return f"{a - 1}", True, a != -b
    return a > b >= 0
'''


def test_each_site_changes_only_its_text():
    mutants = _mutants()
    got = [(m.line, m.operator, m.old, m.new) for m in mutants.mutants("m", SOURCE)]
    assert got == [
        (3, "arith", "+", "-"), (3, "const", "1", "2"), (3, "arith", "*", "//"),
        (3, "compare", "<=", "<"), (3, "const", "3", "4"), (3, "compare", "==", "!="),
        (3, "boolop", "or", "and"), (3, "arith", "%", "//"), (3, "const", "2", "3"),
        (3, "boolop", "and", "or"), (4, "compare", "!=", "=="), (5, "compare", ">", ">="),
        (5, "compare", ">=", ">"), (5, "const", "0", "1"),
    ]
    lines = SOURCE.splitlines()
    for mutant in mutants.mutants("m", SOURCE):
        mutated = mutants.apply(SOURCE, mutant).splitlines()
        changed = [i for i, (a, b) in enumerate(zip(lines, mutated)) if a != b]
        assert changed == [mutant.line - 1]
        ast.parse("\n".join(mutated))
    boolop = [m for m in mutants.mutants("m", SOURCE) if m.old == "or"][0]
    assert mutants.apply(SOURCE, boolop).splitlines()[2] == (
        "    if (a + 1) * b <= 3 == a and b % 2 and a:  # and < or")


def test_every_library_site_of_the_cli_parses():
    mutants = _mutants()
    source = (ROOT / "src" / "eulerchar" / "cli.py").read_text(encoding="utf-8")
    found = mutants.mutants("cli", source)
    assert len(found) > 50
    for mutant in found:
        ast.parse(mutants.apply(source, mutant))


def test_every_known_mutant_names_one_current_site():
    """Each equivalent mutant of tests/data/mutants.json, with its reason,
    matches exactly one site of today's library, so that an edit which
    moves or removes its site fails here rather than going stale."""
    mutants = _mutants()
    known = mutants.known_mutants()
    assert known
    for key, reason in known.items():
        module = key[0]
        source = mutants._source(ROOT, module)
        matches = [m for m in mutants.mutants(module, source) if mutants.site_key(source, m) == key]
        assert len(matches) == 1, key
        assert reason.strip(), key


def test_site_text_spans_the_lines_a_mutant_edits():
    mutants = _mutants()
    source = "x = (a and\n     b)\n"
    (boolop,) = [m for m in mutants.mutants("m", source) if m.operator == "boolop"]
    assert mutants.site_text(source, boolop) == ("x = (a and", "x = (a or")
    multi = "x = (a and\n     b and c)\n"
    (boolop,) = [m for m in mutants.mutants("m", multi) if m.operator == "boolop"]
    assert mutants.site_text(multi, boolop) == ("x = (a and b and c)", "x = (a or b or c)")
