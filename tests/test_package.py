"""Package-wide properties: the command loads no numpy, no
``dataclasses`` and no ``inspect``, no module guards
anything with an ``assert`` (``python -O`` strips them) or an
``AssertionError``, the integer families build no ``Vec``, and every
shipped function, class and method has a caller in the package."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import voronorm
from voronorm.coloring import ColoringReport, ColoringViolation, coset_coloring, verify_coloring
from voronorm.density import verify_an_bound, verify_dn_bound
from voronorm.geometry import Vec
from voronorm.graphs import PropertyDViolation, an_property_d, dn_property_d
from voronorm.independence import cube_certificate

PACKAGE = Path(voronorm.__file__).parent


def _loaded_after_cli_import(expr):
    """The output of printing expr, of the set ``loaded`` of module names,
    in a fresh interpreter after ``import voronorm.cli``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = f"import sys, voronorm.cli; loaded = set(sys.modules); print({expr})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    return out.stdout.strip()


def test_cli_import_does_not_load_numpy():
    assert _loaded_after_cli_import("sorted(m for m in loaded if m.split('.')[0] == 'numpy')") == "[]"


def test_import_loads_no_dataclasses():
    # every command pays its imports before it starts: importing dataclasses
    # pulls in inspect, ast, dis and tokenize, and each decorated class
    # compiles its generated methods
    assert _loaded_after_cli_import("sorted(loaded & {'dataclasses', 'inspect'})") == "[]"


@pytest.mark.parametrize(
    "cls, fields",
    [
        (ColoringViolation, (Vec([0, 1]), Vec([1, 1]), 3)),
        (ColoringReport, ("an", 2, 8, 25, 30, [])),
        (PropertyDViolation, (Vec([0, 1]), Vec([1, 1]), 2, Fraction(1, 2))),
    ],
)
def test_compared_records_compare_by_value(cls, fields):
    # the oracle tests compare these records with ==, which must read every
    # field: equal fields compare equal, and one changed field does not
    assert cls(*fields) == cls(*fields)
    for i in range(len(fields)):
        changed = list(fields)
        changed[i] = object()
        assert cls(*changed) != cls(*fields)


def _assertions(tree):
    """The assert statements and the raises of AssertionError in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node


def test_no_assert_statements_in_the_package():
    # a guard must raise a real exception (CertificateError for a
    # certificate), neither an assert nor a hand-raised AssertionError
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in _assertions(tree)]
    assert found == []


def test_integer_families_build_no_vec(monkeypatch):
    # the A_n, D_n and cube paths run on scaled integers from gauge to
    # report; a Vec is built only on a violation, which these runs have none of
    built = []
    new = Vec.__new__

    def counting_new(cls, comps):
        built.append(cls)
        return new(cls, comps)

    monkeypatch.setattr(Vec, "__new__", staticmethod(counting_new))
    for fam, n in (("an", 4), ("dn", 5), ("cube", 4)):
        assert verify_coloring(coset_coloring(fam, n), 50, seed=1).holds
    verify_an_bound(4)
    verify_dn_bound(5)
    cube_certificate(6)
    assert an_property_d(3, Fraction(3, 2)).holds
    assert dn_property_d(4, Fraction(3, 2)).holds
    assert built == []
    Vec([1])
    assert built == [Vec]  # the count sees a construction


def test_bench_tracer_installs(tmp_path):
    # the benchmark's tracer wraps the package's public names (and
    # GaugeNorm.value) by lookup; a traced command must still run
    root = PACKAGE.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "bench"), str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from voronorm import cli\n"
        "from tracer import Tracer\n"
        "t = Tracer()\n"
        "t.install()\n"
        f"code = cli.main(['ratio', 'an', '--dim', '2', '--radii', '1', '--out', {str(tmp_path / 'out.json')!r}])\n"
        "m = t.metrics()\n"
        "print(code, m['cli.main_s'] > 0, m['independence.mis_calls'], m['trace.spans'] > 0)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["0", "True", "1", "True"]


def test_bench_coloring_checks_pass():
    # the benchmark's extra coloring checks (gauge-1 pairs, periodicity, all
    # 2^n colors, nearest centers) hold on every `color` job it runs
    sys.path.insert(0, str(PACKAGE.parent.parent / "bench"))
    try:
        import checks
        import workloads
    finally:
        sys.path.pop(0)
    seed = 1
    jobs = [job for job in workloads.coloring_jobs(seed) if job.kind == "color"]
    assert jobs
    for job in jobs:
        assert checks.coloring_extra_problems(job, seed) == [], job.name


# kept although no package code calls them: a gate or the benchmark tracer
# reads them (ROADMAP, "Ship only run-path code")
KEPT = {
    "Vec",
    "contains",
    "mismatched_entries",
    "edge_count",
    "an_tiling_witness",
    "chromatic_report",
    "ChromaticReport.conclusion",
    "coset_index",
    "nearest_half_cell_center",
    "color",
    "GaugeNorm.value",
}


def _definitions_and_references(tree):
    """(qualified name, node) of every function, class and method in tree,
    and (name, enclosing definition nodes) of every Name and Attribute."""
    defs, refs = [], []

    def walk(node, qual, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{qual}.{child.name}" if qual else child.name
                defs.append((name, child))
                # methods are qualified by their class, nested functions by
                # their own name only
                walk(child, name if isinstance(child, ast.ClassDef) else "", enclosing | {id(child)})
                continue
            if isinstance(child, ast.Name):
                refs.append((child.id, enclosing))
            elif isinstance(child, ast.Attribute):
                refs.append((child.attr, enclosing))
            walk(child, qual, enclosing)

    walk(tree, "", frozenset())
    return defs, refs


def test_every_shipped_name_has_a_package_caller():
    # a function only the tests call belongs in tests/oracles.py; the
    # re-exports of __init__.py and a definition's own body are no callers.
    # A reference is matched by its bare name, so a method counts as called
    # when any attribute of that name is read.
    defs, refs = [], {}
    for path in sorted(PACKAGE.rglob("*.py")):
        d, r = _definitions_and_references(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        defs += [(path.name, name, node) for name, node in d]
        if path.name != "__init__.py":
            for ref, enclosing in r:
                refs.setdefault(ref, []).append(enclosing)
    uncalled = []
    for module, name, node in defs:
        bare = name.rsplit(".", 1)[-1]
        if bare.startswith("__") and bare.endswith("__") or name in KEPT or bare in KEPT:
            continue
        if all(id(node) in enclosing for enclosing in refs.get(bare, [])):
            uncalled.append(f"{module}:{name}")
    assert uncalled == []
