"""Tests of the benchmark's report checks: genuine reports pass, and each
hand-corrupted report is counted as a failed job.

    PYTHONPATH=src python3 -m pytest bench/test_bench_checks.py
"""

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
from workloads import Job  # noqa: E402
from voronorm.cli import main as cli_main  # noqa: E402

DN4 = Job("bound-dn-4", ("bound", "dn", "--dim", "4"), "bound", "dn", 4)
RATIO_A2 = Job("ratio-an-2", ("ratio", "an", "--dim", "2", "--radii", "1,5/4"), "ratio", "an", 2, radii="1,5/4")
COLOR_A2 = Job(
    "color-an-2", ("color", "an", "--dim", "2", "--samples", "40", "--seed", "5"), "color", "an", 2, samples=40
)


def run_job(job):
    """Exit code and report text of one job, run in this process."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = cli_main(list(job.argv) + ["--out", str(out)])
        return code, out.read_text(encoding="utf-8")


def failed(job, code, text) -> bool:
    """Whether the benchmark counts the job as failed (the runner's rule)."""
    refs = checks.prepare([job], seed=3)
    return bool(checks.grade(job, code, text, None, refs[job.name]))


def corrupt(text, edit) -> str:
    rep = json.loads(text)
    edit(rep)
    return json.dumps(rep)


class IndependentCounts(unittest.TestCase):
    def test_dn_singleton_and_cmax(self):
        for n in range(4, 9):
            gens = checks.dn_half_generators(n)
            origin = (0,) * n
            self.assertEqual(checks.neighborhood_size([origin], gens), 1 + 2**n + 2 * n)
            cmax = [origin] + list(checks.dn_clique_points(n).values())
            self.assertEqual(checks.neighborhood_size(cmax, gens), 3 * 2**n + 4 * n - 4)

    def test_an_full_chain_clique_meets_the_bound(self):
        for n in range(2, 7):
            pts = [checks.an_chain_point(n, w) for w in range(n + 1)]
            size = checks.neighborhood_size(pts, checks.an_half_generators(n))
            self.assertEqual(Fraction(n + 1, size), Fraction(1, 2**n))

    def test_hexagon_gauge_has_six_faces(self):
        for basis in ("3,0,1,3", "4,0,1,4", "5,0,2,5"):
            self.assertEqual(len(checks.hexagon_relevant_vectors(basis)), 6)
        gauge = checks.make_gauge("hexagon", "3,0,1,3")
        self.assertEqual(gauge((Fraction(3), Fraction(0))), 2)  # b0 is twice the inradius away


class BenchmarkDefinition(unittest.TestCase):
    def test_metric_names_match_the_output(self):
        import run
        from tracer import Tracer

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        per_layer = list(Tracer().metrics()) + ["reports.bytes", "trace.overhead_s"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], per_layer)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class CorruptedReports(unittest.TestCase):
    def test_genuine_reports_pass(self):
        for job in (DN4, RATIO_A2, COLOR_A2):
            code, text = run_job(job)
            self.assertFalse(failed(job, code, text), job.name)

    def test_wrong_exit_code_fails(self):
        code, text = run_job(DN4)
        self.assertTrue(failed(DN4, 1, text))

    def test_dn_neighborhood_off_by_one_fails(self):
        code, text = run_job(DN4)

        def edit(rep):
            rep["entries"][0]["neighborhood"] += 1

        self.assertTrue(failed(DN4, code, corrupt(text, edit)))

    def test_ratio_alpha_above_upper_bound_fails(self):
        code, text = run_job(RATIO_A2)

        def edit(rep):
            rep["entries"][-1]["alpha"] = rep["entries"][-1]["upper_bound"] + 1

        self.assertTrue(failed(RATIO_A2, code, corrupt(text, edit)))

    def test_coloring_violation_fails(self):
        code, text = run_job(COLOR_A2)

        def edit(rep):
            rep["violation_count"] = 1
            rep["violations"] = [{"x": "0/1,0/1,0/1", "y": "1/2,-1/2,0/1", "color": 0}]

        self.assertTrue(failed(COLOR_A2, code, corrupt(text, edit)))


if __name__ == "__main__":
    unittest.main()
