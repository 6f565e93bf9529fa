"""The benchmark's workloads: fixed lists of `voronorm` CLI jobs.

Each job is one README-style command line.  The workload seed chooses only
the sampler seed of each `color` job (and, in `checks`, the extra points the
coloring checks draw); the `certify` and `ratio` jobs are the same for every
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("certify", "ratio", "coloring")

HEX_BASES = ("3,0,1,3", "4,0,1,4", "5,0,2,5")
AN_DIMS = range(2, 9)
DN_DIMS = range(4, 9)
CUBE_DIMS = range(2, 11)
RATIO_A2_RADII = "1,5/4,3/2,7/4"
RATIO_A3_RADII = "1/2,2/3,3/4"
COUNTEREXAMPLE_N = 30
COLOR_SAMPLES = 250
COLOR_FAMILIES = (
    ("an", 2), ("an", 3), ("an", 4), ("dn", 4),
    ("cube", 2), ("cube", 3), ("cube", 4), ("hexagon", HEX_BASES[0]),
)
WITNESS_K = 4


@dataclass(frozen=True)
class Job:
    """One CLI invocation, expected to exit 0; `argv` excludes the
    `--out`/`--edges-out` paths the runner appends.  The other fields tell
    the checks what the report must satisfy; `n` is N of the counterexample
    and k of the witness."""

    name: str
    argv: tuple
    kind: str  # bound | property-d | ratio | color | witness
    family: str = ""
    dim: int = 0
    basis: str = ""
    radii: str = ""
    n: int = 0
    samples: int = 0
    mode: str = ""

    @property
    def writes_edges(self) -> bool:
        return self.kind == "witness"


def _bound(family, dim=0, basis=""):
    if family == "hexagon":
        return Job(f"bound-hexagon-{basis}", ("bound", "hexagon", "--basis", basis), "bound", family, 2, basis)
    return Job(f"bound-{family}-{dim}", ("bound", family, "--dim", str(dim)), "bound", family, dim)


def _property_d(family, dim=0, basis="", mode="strong"):
    if family == "hexagon":
        argv = ("property-d", "hexagon", "--basis", basis, "--mode", mode)
        return Job(f"property-d-hexagon-{basis}-{mode}", argv, "property-d", family, 2, basis, mode=mode)
    argv = ("property-d", family, "--dim", str(dim), "--mode", mode)
    return Job(f"property-d-{family}-{dim}-{mode}", argv, "property-d", family, dim, mode=mode)


def certify_jobs() -> list:
    jobs = [_bound("an", n) for n in AN_DIMS]
    jobs += [_bound("dn", n) for n in DN_DIMS]
    jobs += [_bound("hexagon", basis=b) for b in HEX_BASES]
    jobs += [_bound("cube", n) for n in CUBE_DIMS]
    jobs += [_property_d("an", n) for n in (2, 3, 4)]
    # D_5 is left out: its 3 s Cayley build rivalled `bound dn --dim 8` for
    # the slowest job, and a pass of 9-12 s left two or three passes per run
    jobs.append(_property_d("dn", 4))
    jobs += [_property_d("hexagon", basis=b, mode="weak") for b in HEX_BASES]
    return jobs


def ratio_jobs() -> list:
    jobs = [
        Job(f"ratio-an-{n}", ("ratio", "an", "--dim", str(n), "--radii", radii), "ratio", "an", n, radii=radii)
        for n, radii in ((2, RATIO_A2_RADII), (3, RATIO_A3_RADII))
    ]
    jobs += [Job(f"ratio-cube-{n}", ("ratio", "cube", "--dim", str(n)), "ratio", "cube", n) for n in (2, 3, 4)]
    n = COUNTEREXAMPLE_N
    jobs.append(Job(f"ratio-counterexample-{n}", ("ratio", "counterexample", "--n", str(n)), "ratio", "counterexample", n=n))
    return jobs


def coloring_jobs(seed: int) -> list:
    rng = random.Random(f"voronorm-bench-color:{seed}")
    jobs = []
    for family, arg in COLOR_FAMILIES:
        job_seed = rng.randrange(2**31)
        tail = ("--samples", str(COLOR_SAMPLES), "--seed", str(job_seed))
        if family == "hexagon":
            argv = ("color", "hexagon", "--basis", arg) + tail
            jobs.append(Job(f"color-hexagon-{arg}", argv, "color", family, 2, arg, samples=COLOR_SAMPLES))
        else:
            argv = ("color", family, "--dim", str(arg)) + tail
            jobs.append(Job(f"color-{family}-{arg}", argv, "color", family, arg, samples=COLOR_SAMPLES))
    for b in HEX_BASES:
        argv = ("witness", "--basis", b, "--k", str(WITNESS_K))
        jobs.append(Job(f"witness-{b}", argv, "witness", "hexagon", 2, b, n=WITNESS_K))
    return jobs


def workload_jobs(workload: str, seed: int) -> list:
    """The jobs of one workload pass, in the fixed order they run."""
    if workload == "certify":
        return certify_jobs()
    if workload == "ratio":
        return ratio_jobs()
    if workload == "coloring":
        return coloring_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
