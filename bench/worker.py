"""One benchmark pass in a fresh process: import `voronorm`, build the
workload's jobs, then run every job once through `voronorm.cli.main` with
`--out`, the way a user runs the README commands.

Prints one JSON line: the set-up time, each job's exit code and wall time,
the pass wall time, the peak resident memory and, with `--trace`, the
per-layer metrics and the aggregated span table.  Run by `run.py`, which
puts the checkout's `src` first on `PYTHONPATH`.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up (a set-up time sample)")
    args = p.parse_args()

    import voronorm.cli  # every layer, the way the `voronorm` command loads them
    from workloads import workload_jobs

    jobs = workload_jobs(args.workload, args.seed)
    runs = []
    for job in jobs:
        extra = ["--out", os.path.join(args.out_dir, f"{job.name}.json")]
        if job.writes_edges:
            extra += ["--edges-out", os.path.join(args.out_dir, f"{job.name}.edges")]
        runs.append((job, list(job.argv) + extra))
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "voronorm_file": voronorm.cli.__file__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.makedirs(args.out_dir, exist_ok=True)
    records = []
    start = time.perf_counter()
    for job, argv in runs:
        t = time.perf_counter()
        try:
            code = voronorm.cli.main(argv)
        except SystemExit as e:  # argparse and usage checks exit this way
            code = e.code
        except Exception as e:  # a crash is a failed job, not a failed pass
            code = f"{type(e).__name__}: {e}"
        records.append({"name": job.name, "exit": code, "seconds": time.perf_counter() - t})
    result["wall_s"] = time.perf_counter() - start
    result["jobs"] = records
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = tracer.metrics()
        result["spans"] = tracer.span_table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
