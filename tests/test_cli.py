import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from voronorm import cli, constructions, density, graphs, independence, reports
from voronorm.cli import main
from voronorm.coloring import coset_coloring, verify_coloring
from voronorm.constructions import CertificateError, GaugeNorm, HexagonPattern, an_vertices_scaled, gauge_an, gauge_dn
from voronorm.geometry import planar_coset_in_box
from voronorm.graphs import an_unit_distance_graph
from oracles import (
    an_cayley_graph,
    cayley_step_extent,
    check_property_d,
    corrupt_dn_singleton_reference,
    cube_graph,
    dn_cayley_graph,
)


def run_cli(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_bound_an(tmp_path):
    code, raw = run_cli(["bound", "an", "--dim", "3"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["assembled_bound"] == "1/8"
    assert doc["expected_bound"] == "1/8"
    assert doc["matches_expected"] is True


def test_bound_dn_exit_zero_with_matching_reference_values(tmp_path):
    code, raw = run_cli(["bound", "dn", "--dim", "4"], tmp_path)
    assert code == 0  # the headline bound matches
    doc = json.loads(raw)
    assert doc["assembled_bound"] == "1/15"
    singleton = [e for e in doc["entries"] if e["label"] == "{0}"][0]
    assert singleton["density"] == "1/25"
    assert singleton["expected_density"] == "1/25"
    assert singleton["matches"] is True
    assert [e for e in doc["entries"] if e["matches"] is False] == []
    assert doc["notes"] == []


def test_bound_hexagon(tmp_path):
    code, raw = run_cli(["bound", "hexagon", "--basis", "3,0,1,3"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["assembled_bound"] == "1/4"


def test_bound_cube(tmp_path):
    code, raw = run_cli(["bound", "cube", "--dim", "4"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["complete_graph"] is True
    assert doc["assembled_bound"] == "1/16"


def test_property_d_cli(tmp_path):
    code, raw = run_cli(["property-d", "an", "--dim", "2", "--radius", "3/2"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["holds"] is True and doc["checked_pairs"] > 0
    code, raw = run_cli(
        ["property-d", "hexagon", "--basis", "3,0,1,3", "--mode", "strong"], tmp_path
    )
    doc = json.loads(raw)
    assert doc["holds"] is False and doc["violation_count"] > 0
    # violations embed exact gauge values as fractions
    assert all("/" in v["gauge"] for v in doc["violations"])


@pytest.mark.parametrize("family, dim", [("an", 2), ("an", 3), ("an", 4), ("dn", 4)])
def test_property_d_json_matches_oracle_cayley_graph(tmp_path, family, dim):
    # the report checked on the whole box graph, byte for byte
    code, raw = run_cli(["property-d", family, "--dim", str(dim)], tmp_path)
    assert code == 0
    if family == "an":
        rep = check_property_d(an_cayley_graph(dim, F(3, 2)), gauge_an(dim), cayley_step_extent(family, dim))
    else:
        rep = check_property_d(dn_cayley_graph(dim, F(3, 2)), gauge_dn(dim), cayley_step_extent(family, dim))
    assert raw == reports.to_json(reports.property_d_dict(rep, family, dim)).encode("utf-8")


def test_ratio_cli_and_budget_exit(tmp_path):
    code, raw = run_cli(["ratio", "an", "--dim", "2", "--radii", "1,5/4"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert [e["proven"] for e in doc["entries"]] == [True, True]
    code, _ = run_cli(
        ["ratio", "an", "--dim", "2", "--radii", "2", "--budget", "10"], tmp_path
    )
    assert code == 3


def test_ratio_csv_format(tmp_path):
    code, raw = run_cli(
        ["ratio", "cube", "--dim", "3", "--format", "csv"], tmp_path, "out.csv"
    )
    assert code == 0
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "radius,vertices,alpha,ratio_exact,ratio_decimal,bound,proven"
    assert lines[1].startswith("1/1,8,1,1/8,")


@pytest.mark.parametrize(
    "argv, builder",
    [(["bound", "an", "--dim", "3"], "certificate_csv"), (["ratio", "cube", "--dim", "3"], "ratio_sequence_csv")],
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_csv_is_built_only_for_csv_format(tmp_path, monkeypatch, argv, builder, fmt):
    def refuse(*_):
        raise RuntimeError(f"{builder} called for --format {fmt}")

    monkeypatch.setattr(reports, builder, refuse)
    code, raw = run_cli(argv + ["--format", fmt], tmp_path)
    assert code == 0 and raw


def test_ratio_counterexample(tmp_path):
    code, raw = run_cli(["ratio", "counterexample", "--n", "8"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    assert doc["alpha"] == 14
    assert all(r["within_cap"] for r in doc["constrained_runs"])


def test_color_cli(tmp_path):
    code, raw = run_cli(
        ["color", "cube", "--dim", "2", "--samples", "100", "--seed", "3"], tmp_path
    )
    assert code == 0
    assert json.loads(raw)["violation_count"] == 0


def test_color_requires_seed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["color", "cube", "--dim", "2", "--samples", "10"])
    assert exc.value.code == 2


def test_witness_cli(tmp_path):
    edges = tmp_path / "witness.edges"
    out = tmp_path / "w.json"
    code = main(
        [
            "witness",
            "--basis",
            "3,0,1,3",
            "--k",
            "4",
            "--out",
            str(out),
            "--edges-out",
            str(edges),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["found"] is True and doc["verified_independently"] is True
    assert edges.exists() and edges.read_text().count("\n") >= 3
    code = main(["witness", "--basis", "3,0,1,3", "--k", "5", "--budget", "50000", "--out", str(out)])
    assert code == 3


def test_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "an"])  # missing --dim
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "an", "--dim", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "hexagon"])  # missing --basis
    assert exc.value.code == 2
    assert main(["bound", "hexagon", "--basis", "1,0,0,1"]) == 2  # rectangular


def test_cached_parser_leaks_no_state_between_calls(tmp_path):
    # one parser serves every main() call in a process: a usage error and a
    # bad-type error before a report leave its bytes as a fresh process has them
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["bound", "an", "--dim", "13"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "an", "--dim", "2", "--radii", "x"])
    assert exc.value.code == 2
    argv = ["bound", "an", "--dim", "4", "--out"]
    assert main(argv + [str(tmp_path / "here.json")]) == 0
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    fresh = [sys.executable, "-m", "voronorm.cli", *argv, str(tmp_path / "fresh.json")]
    subprocess.run(fresh, env=env, timeout=60, check=True)
    assert (tmp_path / "here.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_determinism_across_threads(tmp_path):
    cases = [
        ["bound", "an", "--dim", "2"],
        ["bound", "dn", "--dim", "4"],
        ["property-d", "an", "--dim", "2"],
        ["ratio", "an", "--dim", "2", "--radii", "1,5/4"],
        ["color", "an", "--dim", "2", "--samples", "50", "--seed", "11"],
    ]
    for argv in cases:
        _, a = run_cli(argv + ["--threads", "1"], tmp_path, "a.json")
        _, b = run_cli(argv + ["--threads", "2"], tmp_path, "b.json")
        assert a == b
    os.environ["VORONORM_THREADS"] = "4"
    try:
        _, c = run_cli(cases[0], tmp_path, "c.json")
    finally:
        del os.environ["VORONORM_THREADS"]
    _, d = run_cli(cases[0], tmp_path, "d.json")
    assert c == d


def test_stdout_output(capsys):
    code = main(["bound", "an", "--dim", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["family"] == "an"


# The README's example commands with the sha256 of their stdout; every
# report must stay byte-identical, so a change to one of these hashes is a
# change of the report, not of its implementation.
README_REPORTS = [
    ("bound an --dim 4", "852c3efb7ad78c75459c865dee066f0085048b3819e872eb51aff67adf672bc7"),
    ("bound dn --dim 8", "526c8f4738674c973d1dac7eb88075ebcc1a985c60b574ebe1205b72f36f2bd1"),
    ("bound hexagon --basis 3,0,1,3", "b803c52a5e8cd5134c0e5dd607c862d8884d8538de5205dc1f6db9e15a9ae902"),
    ("bound cube --dim 10", "6c1883cc3c015178f9a35b1b8f193801017b3515e2565db150982912838ae531"),
    (
        "property-d an --dim 3 --radius 3/2 --mode strong",
        "8143f64a243dcdff53e3b4b21c381f4f898c50e0b76347b4148fb7e61b2b83e3",
    ),
    (
        "property-d hexagon --basis 3,0,1,3 --mode weak",
        "5e6e1cf38e0e1c1079b484ccd71f8fdadb9c21317134007d6a5636e9611db09a",
    ),
    # the README's hexagon Property D command in its other mode
    (
        "property-d hexagon --basis 3,0,1,3 --mode strong",
        "62a2d5c0c6db01dfd32ddd0f1c4dae999a82034734ee34696387b35eee1cdd19",
    ),
    ("ratio an --dim 2 --radii 1,5/4,3/2,7/4", "9031c899b84a4483c1e36ea3a41fbf21986f50b678cadf84e72570ed435b242e"),
    ("ratio cube --dim 3", "d613b3419c60020d8d49fe38c3f6502fa313786689f691b872bc155fe8fbe011"),
    ("ratio counterexample --n 30", "eedb9b03da04a13fd8dc3bd6dec3c23e70e5dacea9e12a239944bcef86522e9c"),
    ("color an --dim 3 --samples 10000 --seed 7", "e51551191c90478375a5791d07a86f044edb919082e02b6be4dd9fa6b0052b3b"),
    ("witness --basis 3,0,1,3 --k 4", "6ffe07d97bd464d2f51015abef5ddeee6606d874d1ad7746d715c0c9cb1ebc0f"),
]
README_WITNESS_EDGES = "8153ccd55c3f66d65c136c7610c33a16044399e80af8de1663c7df3e107fe6fa"


def test_readme_reports_are_pinned(tmp_path, capsys):
    edges = tmp_path / "witness.edges"
    for command, digest in README_REPORTS:
        argv = command.split()
        if argv[0] == "witness":
            argv += ["--edges-out", str(edges)]
        assert main(argv) == 0, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, command
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == README_WITNESS_EDGES


# The hexagon reports of a basis past the README's, with their stdout sha256:
# its rows 2v/<v, v> have denominators 7, 73 and 10, so the gauge's one
# level is 5,110.
HEXAGON_7038_REPORTS = [
    ("bound hexagon --basis 7,0,3,8", "b803c52a5e8cd5134c0e5dd607c862d8884d8538de5205dc1f6db9e15a9ae902"),
    (
        "property-d hexagon --basis 7,0,3,8 --mode strong",
        "274d11faea1566305c8b876a9b43e0458ae1ca557bec40043bce252b740b2339",
    ),
    (
        "property-d hexagon --basis 7,0,3,8 --mode weak",
        "d8f28b0cd4363cddbbcfdfb845aa8739da9af4d7a701b34ea371a6949ea78003",
    ),
    (
        "color hexagon --basis 7,0,3,8 --samples 2000 --seed 3",
        "831fb86270019560cef74a3c69f82dd0e59ab623535ff7d1cba107ca835417b0",
    ),
    ("witness --basis 7,0,3,8 --k 4", "bde11f29fd5abdcad178ae159081633d2692e4bbaca820c1800031215cf55ff7"),
]
HEXAGON_7038_WITNESS_EDGES = "4e4754c04c1b3f0f9d92ca0f6c492cc819a0336dda33efa4cbb2080005757e07"


def test_hexagon_reports_are_pinned(tmp_path, capsys):
    edges = tmp_path / "witness.edges"
    for command, digest in HEXAGON_7038_REPORTS:
        argv = command.split()
        if argv[0] == "witness":
            argv += ["--edges-out", str(edges)]
        assert main(argv) == 0, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, command
    assert hashlib.sha256(edges.read_bytes()).hexdigest() == HEXAGON_7038_WITNESS_EDGES


@pytest.mark.parametrize("radius", ["-1", "0"])
def test_property_d_rejects_non_positive_radius(tmp_path, capsys, radius):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["property-d", "an", "--dim", "2", "--radius", radius, "--out", str(out)])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err
    assert not out.exists()


def test_property_d_refuses_box_without_interior_vertex(tmp_path, capsys):
    # at radius 1/2 no vertex of (1/2)A_2^# keeps its 2-step neighbourhood
    # in the box, so no pair would be checked and "holds" would be vacuous
    out = tmp_path / "out.json"
    code = main(["property-d", "an", "--dim", "2", "--radius", "1/2", "--out", str(out)])
    assert code == 2
    assert "interior" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["ratio", "an", "--dim", "2", "--radii", "1", "--budget", "0"], id="ratio-an-0"),
        pytest.param(["ratio", "counterexample", "--n", "4", "--budget", "-1"], id="ratio-counterexample--1"),
        pytest.param(["witness", "--basis", "3,0,1,3", "--k", "4", "--budget", "0"], id="witness-0"),
    ],
)
def test_budget_rejects_non_positive(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("radii", ["0", "-1", "1,0"])
def test_ratio_rejects_non_positive_radii(tmp_path, capsys, radii):
    # radius 0 gave a one-vertex "ratio 1/1" entry and -1 a ZeroDivisionError
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["ratio", "an", "--dim", "2", "--radii=" + radii, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--radii" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["ratio", "an", "--dim", "2"], "--radii", id="ratio-an-no-radii"),
        pytest.param(["bound", "an"], "--dim", id="bound-an-no-dim"),
        pytest.param(["bound", "an", "--dim", "1"], "--dim", id="bound-an-dim-1"),
        pytest.param(["bound", "an", "--dim", "13"], "--dim", id="bound-an-dim-13"),
        pytest.param(["bound", "dn", "--dim", "3"], "--dim", id="bound-dn-dim-3"),
        pytest.param(["bound", "cube", "--dim", "0"], "--dim", id="bound-cube-dim-0"),
        pytest.param(["ratio", "cube", "--dim", "0"], "--dim", id="ratio-cube-dim-0"),
        pytest.param(["color", "cube", "--dim", "-1", "--seed", "1"], "--dim", id="color-cube-dim-minus-1"),
        pytest.param(["ratio", "counterexample", "--n", "0"], "--n", id="ratio-counterexample-n-0"),
        pytest.param(["ratio", "counterexample", "--n", "-3"], "--n", id="ratio-counterexample-n-minus-3"),
        pytest.param(["bound", "hexagon"], "--basis", id="bound-hexagon-no-basis"),
        pytest.param(["witness", "--k", "4"], "--basis", id="witness-no-basis"),
    ],
)
def test_missing_or_too_small_argument_is_named(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert flag in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_color_rejects_non_positive_samples(capsys, samples):
    with pytest.raises(SystemExit) as exc:
        main(["color", "an", "--dim", "2", "--samples", samples, "--seed", "1"])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_bad_threads_environment_is_ignored(tmp_path, monkeypatch):
    _, plain = run_cli(["bound", "cube", "--dim", "2"], tmp_path, "plain.json")
    monkeypatch.setenv("VORONORM_THREADS", "abc")
    code, raw = run_cli(["bound", "cube", "--dim", "2"], tmp_path, "env.json")
    assert code == 0
    assert raw == plain


@pytest.mark.parametrize("radius", ["0", "-2"])
def test_witness_rejects_non_positive_radius(tmp_path, capsys, radius):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--basis", "3,0,1,3", "--k", "4", "--radius", radius, "--out", str(out)])
    assert exc.value.code == 2
    assert "--radius" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", ["0", "-1"])
def test_witness_rejects_non_positive_k(tmp_path, capsys, k):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--basis", "3,0,1,3", "--k", k, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--k" in err and err.count("\n") == 1
    assert not out.exists()


def test_broken_gauge_fails_the_coloring_certificate(tmp_path, capsys, monkeypatch):
    # a step normalisation off by a factor 2 puts every sampled step at
    # gauge 1/2; the guard must raise (not assert, which python -O strips)
    # and the CLI must map it to exit 1 with a one-line message and no report
    unit_step = GaugeNorm.unit_step
    monkeypatch.setattr(GaugeNorm, "unit_step", lambda self, y: (lambda z, e: (z, 2 * e))(*unit_step(self, y)))
    with pytest.raises(CertificateError):
        verify_coloring(coset_coloring("an", 2), 5, seed=1)
    out = tmp_path / "out.json"
    code = main(["color", "an", "--dim", "2", "--samples", "5", "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate check failed") and err.count("\n") == 1
    assert not out.exists()


def test_dependent_mis_witness_fails_the_certificate(tmp_path, capsys, monkeypatch):
    # a solver whose witness holds two adjacent vertices, 0 and 1, of the
    # complete graph K_4 and of the A_2 box at radius 1; the re-check must
    # raise (not assert, which python -O strips) and the CLI must exit 1
    # with a one-line message and no report
    monkeypatch.setattr(independence, "_solve_mask", lambda adj, full, budget, group=(): (2, 0b11, True, 2, 0))
    with pytest.raises(CertificateError):
        independence.max_independent_set(cube_graph(2))
    assert an_unit_distance_graph(2, 1).adj[0] >> 1 & 1
    out = tmp_path / "out.json"
    code = main(["ratio", "an", "--dim", "2", "--radii", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate check failed") and err.count("\n") == 1
    assert not out.exists()


def test_inflated_constrained_alpha_fails_the_certificate(tmp_path, capsys, monkeypatch):
    # a solver that claims one vertex more than its witness holds, only on
    # the runs forced to contain -k; the report must not take the claim
    solve = independence._solve_mask

    def inflate_constrained(adj, cand, budget, group=()):
        alpha, mask, proven, upper, nodes = solve(adj, cand, budget, group)
        return alpha + (cand != (1 << len(adj)) - 1), mask, proven, upper, nodes

    monkeypatch.setattr(independence, "_solve_mask", inflate_constrained)
    out = tmp_path / "out.json"
    assert main(["ratio", "counterexample", "--n", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: certificate check failed: witness for -1 of size 7 for a claimed alpha of 8\n"
    assert not out.exists()


def _swap_two(perm):
    perm[0], perm[1] = perm[1], perm[0]


def _repeat_one(perm):
    perm[0] = perm[1]


@pytest.mark.parametrize("corrupt", [_swap_two, _repeat_one], ids=["non-automorphism", "non-bijection"])
def test_bad_graph_symmetry_fails_the_certificate(tmp_path, capsys, monkeypatch, corrupt):
    # a point-group generator that is not an automorphism or not a
    # bijection would let orbital branching drop optimal sets: exit 1 with
    # a one-line message and no report
    build = independence.an_unit_distance_graph

    def broken(n, radius):
        g = build(n, radius)
        corrupt(g.symmetries[0])
        return g

    monkeypatch.setattr(independence, "an_unit_distance_graph", broken)
    out = tmp_path / "out.json"
    code = main(["ratio", "an", "--dim", "2", "--radii", "3/2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate check failed") and err.count("\n") == 1
    assert not out.exists()


def test_large_point_group_is_cut_at_the_cap(tmp_path, capsys, monkeypatch):
    # A_7 at radius 1/2: 1,361 vertices and a point group of order 80,640,
    # whose closure stops at MAX_GROUP_ENTRIES stored entries
    close, sizes = independence._close_group, []

    def counted(gens, n):
        out = close(gens, n)
        sizes.append((len(out) + 1) * n)
        return out

    monkeypatch.setattr(independence, "_close_group", counted)
    out = tmp_path / "out.json"
    code = main(["ratio", "an", "--dim", "7", "--radii", "1/2", "--budget", "1000", "--out", str(out)])
    assert code in (0, 3)
    assert capsys.readouterr().err == ""
    doc = json.loads(out.read_bytes())
    assert doc["entries"][0]["vertices"] == 1361
    assert code == (0 if doc["entries"][0]["proven"] else 3)
    assert sizes and max(sizes) <= independence.MAX_GROUP_ENTRIES < 80_640 * 1361


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "cube", "--dim", "15"],
        ["bound", "cube", "--dim", "40"],
        ["ratio", "cube", "--dim", "16"],
        ["ratio", "an", "--dim", "2", "--radii", "40"],  # 57,841 points
        ["ratio", "counterexample", "--n", "10000"],  # 20,001 points on the line
        ["ratio", "an", "--dim", "10", "--radii", "1"],  # 7,535,023 points, counted before enumerating
    ],
)
def test_oversized_unit_distance_graph_exits_2(tmp_path, capsys, argv):
    # refused before the adjacency is allocated: 2^16 complete bitmasks
    # alone would take 512 MiB
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code = main(argv + ["--out", str(out)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, count",
    [
        (["property-d", "an", "--dim", "6"], 196645),
        (["property-d", "dn", "--dim", "6"], 164305),
    ],
)
def test_oversized_cayley_graph_exits_2(tmp_path, capsys, argv, count):
    # counted before the box is enumerated: D_6 used to run 25 s and end in
    # a MemoryError under 2 GB, A_6 ran past 60 s
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code = main(argv + ["--out", str(out)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    err = capsys.readouterr().err
    assert f"Cayley graph of {count} vertices exceeds the limit of 65536" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_failed_density_guard_exits_1(tmp_path, capsys, monkeypatch):
    # a brute-force count off by one must fail the certificate with one
    # stderr line, not escape main as a traceback
    brute = density.an_brute_neighborhood_counts

    def off_by_one(n):
        counts = brute(n)
        counts[()] += 1
        return counts

    monkeypatch.setattr(density, "an_brute_neighborhood_counts", off_by_one)
    out = tmp_path / "out.json"
    code = main(["bound", "an", "--dim", "3", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: certificate check failed") and err.count("\n") == 1
    assert "brute force" in err
    assert not out.exists()


def _an_expected_bound_below(monkeypatch):
    monkeypatch.setattr(density, "an_expected_bound", lambda n: F(1, 2**n + 1))


def _hex_ab_density_expected_below(monkeypatch):
    # below the maximum 3/8, so the assembled bound alone would still match
    monkeypatch.setitem(density.HEX_EXPECTED_DELTAS, "AB", F(1, 5))


def _corrupt_hex_steps(edit):
    """A patch that derives the pattern's step table as usual, then edits it."""

    def patch(monkeypatch):
        derive = HexagonPattern.steps.func
        monkeypatch.setattr(HexagonPattern, "steps", property(lambda pattern: edit(derive(pattern))))

    return patch


def _drop_class_b_step(table):
    return table[0], table[1][1:], table[2]


def _move_s0_to_other_coset(table):
    (d, k), *rest = table[0]
    return ((d, 3 - k), *rest), table[1], table[2]


def _move_s0_into_class_a(table):
    (d, _), *rest = table[0]
    return ((d, 0), *rest), table[1], table[2]


def _edit_cube_rows(edit):
    """A patch that builds the sup gauge as usual, then edits its rows."""

    def patch(monkeypatch):
        sup = independence.gauge_sup

        def edited(n):
            gauge = sup(n)
            gauge.rows = edit(gauge.rows)
            return gauge

        monkeypatch.setattr(independence, "gauge_sup", edited)

    return patch


def _drop_minus_e0(rows):
    return tuple(a for a in rows if a[0] != -1)


def _double_e0(rows):
    # only +-e_0 have a nonzero first entry; at dimension 1 the doubled
    # rows are still closed under every generator
    return tuple((2 * a[0],) + a[1:] for a in rows)


@pytest.mark.parametrize(
    "patch, argv, message",
    [
        (_an_expected_bound_below, ["bound", "an", "--dim", "3"], "an dim 3: assembled bound 1/8 > 1/9"),
        (
            corrupt_dn_singleton_reference,
            ["bound", "dn", "--dim", "4"],
            "D_4 subset {0}: closed form 26, brute force 25",
        ),
        (
            _hex_ab_density_expected_below,
            ["bound", "hexagon", "--basis", "3,0,1,3"],
            "type AB: density 2/7, expected 1/5",
        ),
        (
            _corrupt_hex_steps(_drop_class_b_step),
            ["bound", "hexagon", "--basis", "3,0,1,3"],
            "pattern step (6, 4) from coset 0 to coset 1 has no reverse step",
        ),
        (
            _corrupt_hex_steps(_move_s0_to_other_coset),
            ["bound", "hexagon", "--basis", "3,0,1,3"],
            "pattern step (12, -4) from coset 0 to coset 1 has no reverse step",
        ),
        (
            _corrupt_hex_steps(_move_s0_into_class_a),
            ["bound", "hexagon", "--basis", "3,0,1,3"],
            "s[0] lies in neither class-B coset",
        ),
        (
            _edit_cube_rows(_drop_minus_e0),
            ["bound", "cube", "--dim", "3"],
            "the sign change of coordinate 0 maps gauge row (1, 0, 0) to (-1, 0, 0), which is not a row",
        ),
        (_edit_cube_rows(_double_e0), ["bound", "cube", "--dim", "1"], "cube difference (1) has gauge 2, not 1"),
    ],
    ids=[
        "an-bound-violated",
        "dn-reference-mismatch",
        "hexagon-type-mismatch",
        "hexagon-step-dropped",
        "hexagon-step-moved",
        "hexagon-step-into-class-a",
        "cube-row-dropped",
        "cube-row-scaled",
    ],
)
def test_failed_certificate_exits_1_without_report(tmp_path, capsys, monkeypatch, patch, argv, message):
    # a D_n closed-form or hexagon per-type disagreement, a broken hexagon
    # step table, or cube gauge rows that are not closed or not on the
    # level, fails like an A_n one: exit 1, one stderr line and no report,
    # not a report with the disagreement in its notes or entries
    patch(monkeypatch)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: certificate check failed: {message}\n"
    assert not out.exists()


def test_cube_certificate_reads_the_point_group_layer(tmp_path, capsys, monkeypatch):
    # the certificate checks its gauge rows under the generators that
    # constructions.point_group_generators lists, so a generator patched
    # into that list, which maps a row off the set, fails it by name
    layer = constructions.point_group_generators
    doubling = ("the doubling", lambda p: tuple(2 * c for c in p))
    monkeypatch.setattr(independence, "point_group_generators", lambda family, n: layer(family, n) + [doubling])
    out = tmp_path / "out.json"
    assert main(["bound", "cube", "--dim", "3", "--out", str(out)]) == 1
    message = "the doubling maps gauge row (1, 0, 0) to (2, 0, 0), which is not a row"
    assert capsys.readouterr().err == f"error: certificate check failed: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["bound", "ratio"])
def test_cube_certificate_builds_no_graph(tmp_path, monkeypatch, command):
    # the cube's complete graph is checked by orbits of the signed
    # permutations, so neither a graph nor its edge scan is built
    def refuse(*args, **kwargs):
        raise RuntimeError("graph built on the cube path")

    monkeypatch.setattr(graphs.GeometricGraph, "__init__", refuse)
    monkeypatch.setattr(graphs, "_unit_edges", refuse)
    code, raw = run_cli([command, "cube", "--dim", "10"], tmp_path)
    assert code == 0
    doc = json.loads(raw)
    if command == "bound":
        assert (doc["complete_graph"], doc["alpha"], doc["assembled_bound"]) == (True, 1, "1/1024")
    else:
        assert [(e["alpha"], e["proven"], e["upper_bound"]) for e in doc["entries"]] == [(1, True, 1)]


def test_an_formula_mismatch_past_dim_6_exits_1(tmp_path, capsys, monkeypatch):
    # the A_n closed form is cross-checked at every n, not only up to n = 6
    formula = density.an_neighborhood_size_formula
    monkeypatch.setattr(density, "an_neighborhood_size_formula", lambda n, weights: formula(n, weights) + 1)
    out = tmp_path / "out.json"
    assert main(["bound", "an", "--dim", "7", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: certificate check failed: A_7 clique (): formula 256, brute force 255\n"
    assert not out.exists()


def test_asymmetric_generators_fail_the_certificate(tmp_path, capsys, monkeypatch):
    # a generator set not closed under negation is a program fault, not a
    # usage error: exit 1, one stderr line and no report
    monkeypatch.setattr(graphs, "an_vertices_scaled", lambda n: an_vertices_scaled(n)[1:])
    out = tmp_path / "out.json"
    assert main(["property-d", "an", "--dim", "2", "--out", str(out)]) == 1
    message = "step (2, -1, -1) from class 0 to class 0 has no reverse step"
    assert capsys.readouterr().err == f"error: certificate check failed: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_property_d_hexagon_builds_no_graph(tmp_path, monkeypatch, mode):
    # the pattern graph is checked by its steps per coset: no graph is
    # built, and only the interior of each coset is listed
    def refuse(*args, **kwargs):
        raise RuntimeError("graph built on the property-d path")

    bounds = []

    def listing(p, q, offset, bound):
        bounds.append(bound)
        return planar_coset_in_box(p, q, offset, bound)

    monkeypatch.setattr(graphs.GeometricGraph, "__init__", refuse)
    monkeypatch.setattr(graphs, "_unit_edges", refuse)
    monkeypatch.setattr(graphs, "planar_coset_in_box", listing)
    code, raw = run_cli(["property-d", "hexagon", "--basis", "3,0,1,3", "--mode", mode, "--radius", "6"], tmp_path)
    assert code == 0 and json.loads(raw)["interior_vertices"] > 0
    # three cosets, each listed within 6 - 2 step extents (at scale 12)
    assert len(bounds) == 3 and all(b < 6 * 12 for b in bounds)


@pytest.mark.parametrize("family", ["an", "dn"])
def test_property_d_weak_mode_needs_hexagon(tmp_path, capsys, family):
    # weak mode reads the 2-walks through the hexagon's class-B cosets,
    # which the Cayley graphs do not have
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["property-d", family, "--dim", "4", "--mode", "weak", "--out", str(out)])
    assert time.monotonic() - t0 < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--mode" in err and err.count("\n") == 1
    assert not out.exists()


def test_hexagon_run_path_never_calls_the_fraction_gauge(tmp_path, monkeypatch):
    # GaugeNorm.value is the Fraction view of the rows that the tests and the
    # tracer read; the hexagon commands run on scaled integers from the box
    # to the report
    commands = [
        ["bound", "hexagon", "--basis", "3,0,1,3"],
        ["property-d", "hexagon", "--basis", "3,0,1,3", "--mode", "weak"],
        ["witness", "--basis", "3,0,1,3", "--k", "4"],
    ]
    before = [run_cli(argv, tmp_path) for argv in commands]

    def refuse(self, x):
        raise RuntimeError("GaugeNorm.value called on the run path")

    monkeypatch.setattr(GaugeNorm, "value", refuse)
    after = [run_cli(argv, tmp_path) for argv in commands]
    assert after == before
    assert [code for code, _ in after] == [0, 0, 0]


def test_witness_default_radius_scales_with_the_basis(tmp_path):
    # the default box is 3 hexagon step extents; an absolute radius of 3
    # held no witness for this basis and the command exited 3
    code, data = run_cli(["witness", "--basis", "7,0,3,8", "--k", "4"], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["found"] is True and doc["verified_independently"] is True
    assert doc["vertex_count"] == 9


@pytest.mark.parametrize("k", [2, 3])
def test_witness_below_the_first_ball_is_found(tmp_path, k):
    # the first ball (gauge radius 1) has chromatic number 4; shrinking it
    # while the chromatic number stays >= k ends at an edge or a triangle
    code, data = run_cli(["witness", "--basis", "3,0,1,3", "--k", str(k)], tmp_path)
    assert code == 0
    doc = json.loads(data)
    assert doc["found"] is True and doc["verified_independently"] is True
    assert doc["vertex_count"] == k


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "dn", "--dim", "22"], "D_22 has 4194348 Cayley generators, over the limit of 65536"),
        (
            ["property-d", "hexagon", "--basis", "3,0,1,3", "--radius", "200"],
            "pattern graph of 213867 vertices exceeds the limit of 65536",
        ),
        (
            ["witness", "--basis", "3,0,1,3", "--k", "4", "--radius", "200"],
            "unit-distance graph of 213867 vertices exceeds the limit of 16384",
        ),
        (
            ["witness", "--basis", "3,0,1,3", "--k", "4", "--radius", "5000"],
            "unit-distance graph of 133346667 vertices exceeds the limit of 16384",
        ),
        # the box of one point passes its cap, the generators do not
        (
            ["property-d", "an", "--dim", "22", "--radius", "1/1000"],
            "A_22 has 8388606 Cayley generators, over the limit of 65536",
        ),
        (
            ["property-d", "dn", "--dim", "24", "--radius", "1/1000"],
            "D_24 has 16777264 Cayley generators, over the limit of 65536",
        ),
        # refused by the exponent alone, before 2^n is computed
        (
            ["bound", "cube", "--dim", "100000000"],
            "unit-distance graph of at least 2^100000000 vertices exceeds the limit of 16384",
        ),
        (
            ["bound", "cube", "--dim", "4000000000"],
            "unit-distance graph of at least 2^4000000000 vertices exceeds the limit of 16384",
        ),
        (
            ["ratio", "cube", "--dim", "100000000"],
            "unit-distance graph of at least 2^100000000 vertices exceeds the limit of 16384",
        ),
        (
            ["bound", "dn", "--dim", "100000000"],
            "D_100000000 has at least 2^100000000 Cayley generators, over the limit of 65536",
        ),
        (
            ["color", "an", "--dim", "100000000", "--seed", "1"],
            "coloring catalog of at least 2^100000000 vertex-facet pairs exceeds the limit of 65536",
        ),
        (
            ["color", "cube", "--dim", "100000000", "--seed", "1"],
            "coloring catalog of at least 2^100000000 vertex-facet pairs exceeds the limit of 65536",
        ),
    ],
)
def test_oversized_request_is_refused_before_allocating(tmp_path, capsys, monkeypatch, argv, message):
    # each of these used to end in a MemoryError under a 2 GB address-space
    # limit, in Python's own message on a too-long integer, or in no answer
    # at all; now the size is computed first and the command exits 2.  A
    # cell or generator list built anyway fails at once instead of
    # allocating gigabytes.
    _refuse_cell_vertices(monkeypatch)
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code = main(argv + ["--out", str(out)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


def _refuse_cell_vertices(monkeypatch):
    """Make every builder of cell vertices or Cayley generators raise."""

    def refuse(*args, **kwargs):
        raise RuntimeError("cell vertices built past a size cap")

    for module in (constructions, graphs, density):
        for name in ("an_vertices_scaled", "dn_vertices_scaled", "cube_vertices_scaled", "polytope_an"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


def test_ratio_an_builds_no_cell(tmp_path, monkeypatch):
    # the box graph reads only the gauge: at A_22 a box of one point runs
    # at once, where building the 2^23 - 2 cell vertices ran out of memory
    _refuse_cell_vertices(monkeypatch)
    t0 = time.monotonic()
    code, raw = run_cli(["ratio", "an", "--dim", "22", "--radii", "1/1000"], tmp_path)
    assert time.monotonic() - t0 < 1
    assert code == 0
    entries = json.loads(raw)["entries"]
    assert [(e["vertices"], e["alpha"], e["proven"]) for e in entries] == [(1, 1, True)]


@pytest.mark.parametrize(
    "dim, family, count",
    [("9", "an", 91_980), ("12", "cube", 98_304), ("20", "an", 880_803_000)],
)
def test_oversized_coloring_catalog_exits_2(tmp_path, capsys, dim, family, count):
    # |V|*|F| of the cell, counted in closed form before any vertex is
    # built; the A_20 cell alone has 2^21 - 2 vertices
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code = main(["color", family, "--dim", dim, "--samples", "1", "--seed", "1", "--out", str(out)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: coloring catalog of {count} vertex-facet pairs exceeds the limit of 65536\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv, flag",
    [(["bound", "an", "--dim", "2"], "--out"), (["witness", "--basis", "3,0,1,3", "--k", "4"], "--edges-out")],
)
def test_unwritable_output_path_exits_2(tmp_path, capsys, argv, flag, target):
    # an OSError from writing a report names the path in one line, with no
    # traceback and no report on stdout
    path = tmp_path / "missing" / "x.txt" if target == "missing-dir" else tmp_path
    t0 = time.monotonic()
    code = main(argv + [flag, str(path)])
    assert time.monotonic() - t0 < 1
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ") and captured.err.count("\n") == 1
    assert captured.out == ""
