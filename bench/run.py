"""Benchmark driver: time one `voronorm` workload end to end, or per layer.

    python3 bench/run.py --workload certify --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from its `src`.
Each pass runs every job of the workload once, in a fresh single-threaded
process (`worker.py`); passes repeat while the next one still fits in
`--seconds`, and every report of every pass is checked (`checks.py`).  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, workload_jobs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9  # extra set-up samples per run, besides one per pass
RUN_LIMIT_S = 170  # a run must end within 180 s, hung workers included

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_job_s": "s", "peak_rss_mib": "MiB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "reports.bytes":
        return "B"
    return "count"


class PassFailed(Exception):
    """A worker process crashed, hung or printed no result."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.out_root = root / ".bench_out" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.pathsep.join([str(self.src), str(HERE)]),
            VORONORM_THREADS="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.passes = 0
        self.started = time.perf_counter()

    def worker(self, *extra) -> dict:
        self.passes += 1
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        out_dir = self.out_root / f"pass-{self.passes}"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--out-dir", str(out_dir), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, stdout=subprocess.PIPE, timeout=timeout, text=True)
        except subprocess.TimeoutExpired as e:
            raise PassFailed(f"worker did not finish within {timeout:.0f} s") from e
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise PassFailed(f"worker exited with {proc.returncode}")
        result = json.loads(lines[-1])
        if not Path(result["voronorm_file"]).resolve().is_relative_to(self.src.resolve()):
            raise PassFailed(f"imported voronorm from {result['voronorm_file']}, not from {self.src}")
        result["out_dir"] = out_dir
        return result

    def grade_pass(self, jobs, refs, result) -> int:
        """Check every report of one pass; returns the number of failed jobs."""
        out_dir = result["out_dir"]
        records = {r["name"]: r for r in result["jobs"]}
        failed = 0
        report_bytes = 0
        for job in jobs:
            record = records.get(job.name, {"exit": "not run"})
            report = _read(out_dir / f"{job.name}.json")
            edges = _read(out_dir / f"{job.name}.edges") if job.writes_edges else None
            report_bytes += len((report or "").encode()) + len((edges or "").encode())
            problems = checks.grade(job, record["exit"], report, edges, refs[job.name])
            if problems:
                failed += 1
                print(f"FAILED {job.name}: " + "; ".join(problems[:3]), file=sys.stderr)
        result["report_bytes"] = report_bytes
        shutil.rmtree(out_dir, ignore_errors=True)
        return failed


def _read(path: Path):
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "voronorm" / "cli.py").is_file():
        raise SystemExit(f"error: {root} has no src/voronorm; run from the root of a voronorm checkout")
    sys.path.insert(0, str(root / "src"))
    jobs = workload_jobs(args.workload, args.seed)
    runner = Runner(root, args.workload, args.seed)
    try:
        refs = checks.prepare(jobs, args.seed)
        runner.worker("--setup-only")  # warm-up: compiled bytecode, file cache
        setups = [runner.worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        attempted = failed = 0
        measured = 0.0
        # with --trace 1, untraced and traced passes alternate; at least one of each
        while True:
            kind = traced if args.trace and len(traced) < len(plain) else plain
            t0 = time.perf_counter()
            result = runner.worker(*(["--trace"] if kind is traced else []))
            elapsed = time.perf_counter() - t0
            measured += elapsed
            attempted += len(jobs)
            failed += runner.grade_pass(jobs, refs, result)
            kind.append((elapsed, result))
            if args.trace and not traced:
                continue
            upcoming = traced if args.trace and len(traced) < len(plain) else plain
            if measured + statistics.median(e for e, _ in upcoming) > args.seconds:
                break
    finally:
        shutil.rmtree(runner.out_root, ignore_errors=True)

    if args.trace:
        metrics = {}
        for name in traced[0][1]["trace"]:
            metrics[name] = statistics.median(r["trace"][name] for _, r in traced)
        metrics["reports.bytes"] = statistics.median(r["report_bytes"] for _, r in traced)
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for _, r in traced) - statistics.median(
            r["wall_s"] for _, r in plain
        )
        _write_span_table(root, args.workload, traced[-1][1]["spans"])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        results = [r for _, r in plain]
        # each job's median over the passes, so that a burst of contention
        # during one job of one pass does not move the run's figures
        job_s = [statistics.median(r["jobs"][i]["seconds"] for r in results) for i in range(len(jobs))]
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in results]),
            "wall_s": sum(job_s),
            "slowest_job_s": max(job_s),
            "peak_rss_mib": statistics.median(r["peak_rss_kib"] / 1024 for r in results),
        }
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def _write_span_table(root: Path, workload: str, rows) -> None:
    path = root / ".bench_out" / f"spans-{workload}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35, help="time budget for the measured passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: report per-layer metrics")
    args = p.parse_args(argv)
    try:
        result = run(args)
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
