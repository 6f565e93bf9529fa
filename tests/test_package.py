"""Package-wide properties: the command loads no numpy, and no module
guards anything with an ``assert`` (``python -O`` strips them) or an
``AssertionError``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import voronorm

PACKAGE = Path(voronorm.__file__).parent


def test_cli_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = "import sys, voronorm.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


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
        f"code = cli.main(['bound', 'cube', '--dim', '2', '--out', {str(tmp_path / 'out.json')!r}])\n"
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
