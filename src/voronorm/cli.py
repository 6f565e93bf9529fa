"""Command-line front end.

Subcommands: bound, property-d, ratio, color, witness.  Exit codes:
0 = certificate matches the expected value, 1 = mismatch or failed
certificate check, 2 = usage error, 3 = budget exhausted / witness not
found.  Reports are byte-identical for identical configuration and seed
regardless of the thread setting.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .coloring import chromatic_witness_search, coset_coloring, verify_coloring
from .constructions import CertificateError, hexagon_pattern
from .density import MAX_CHAIN_DIM, verify_an_bound, verify_dn_bound, verify_hexagon_bound
from .geometry import DegenerateCell, Vec, reduce_planar_basis
from .graphs import an_property_d, dn_property_d, hex_step_extent, hex_unit_distance_graph, hexagon_property_d
from .independence import counterexample_density_gap, cube_certificate, ratio_sequence_an
from . import reports

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_fraction(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational number: {s!r}") from e


def _parse_radii(s: str) -> list:
    return [_parse_fraction(p) for p in s.split(",") if p]


def _parse_basis(s: str):
    parts = [_parse_fraction(p) for p in s.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("basis must be four rationals: b0x,b0y,b1x,b1y")
    return Vec(parts[:2]), Vec(parts[2:])


def _emit(args, payload: dict, to_csv=None) -> None:
    """Write the payload in the chosen format; ``to_csv`` builds the csv
    text, called only for ``--format csv`` (without it, csv is the text)."""
    if args.format == "json":
        text = reports.to_json(payload)
    elif args.format == "csv" and to_csv is not None:
        text = to_csv()
    else:
        text = reports.to_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pattern_from_args(args):
    b0, b1 = args.basis
    return hexagon_pattern(reduce_planar_basis(b0, b1))


def cmd_bound(args) -> int:
    if args.family == "cube":
        cert = cube_certificate(args.dim)
        payload, to_csv = reports.cube_certificate_dict(cert), None
    else:
        if args.family == "hexagon":
            cert = verify_hexagon_bound(_pattern_from_args(args))
        else:
            cert = (verify_an_bound if args.family == "an" else verify_dn_bound)(args.dim)
        payload, to_csv = reports.certificate_dict(cert), functools.partial(reports.certificate_csv, cert)
    _emit(args, payload, to_csv)
    return EXIT_OK if cert.matches_expected else EXIT_MISMATCH


def cmd_property_d(args) -> int:
    # default radii: 3/2 suffices for A_n and D_n (generator extent < 1/2);
    # the hexagon pattern lives at the scale of its basis, so its default
    # derives from the edge step extent
    radius = args.radius
    if args.family in ("an", "dn"):
        radius = Fraction(3, 2) if radius is None else radius
        check = an_property_d if args.family == "an" else dn_property_d
        rep, dim = check(args.dim, radius), args.dim
    else:
        pattern = _pattern_from_args(args)
        radius = 7 * hex_step_extent(pattern) if radius is None else radius
        rep, dim = hexagon_property_d(pattern, radius, args.mode), 2
    if rep.interior_vertices == 0:
        # no pair was checked, so "holds" would be vacuous
        raise ValueError(f"radius {radius} leaves no interior vertex to check")
    _emit(args, reports.property_d_dict(rep, args.family, dim))
    return EXIT_OK


def cmd_ratio(args) -> int:
    if args.family == "counterexample":
        rep = counterexample_density_gap(args.n, node_budget=args.budget)
        _emit(args, reports.counterexample_dict(rep))
        return EXIT_OK if rep.proven else EXIT_BUDGET
    if args.family == "an":
        seq = ratio_sequence_an(args.dim, args.radii, args.budget)
    else:
        seq = cube_certificate(args.dim).ratio_sequence()
    _emit(args, reports.ratio_sequence_dict(seq), functools.partial(reports.ratio_sequence_csv, seq))
    return EXIT_BUDGET if seq.any_timed_out else EXIT_OK


def cmd_color(args) -> int:
    if args.family == "hexagon":
        coloring = coset_coloring("hexagon", pattern=_pattern_from_args(args))
    else:
        coloring = coset_coloring(args.family, args.dim)
    rep = verify_coloring(coloring, args.samples, args.seed)
    _emit(args, reports.coloring_report_dict(rep))
    return EXIT_OK if rep.holds else EXIT_MISMATCH


def cmd_witness(args) -> int:
    # like property-d, the default box scales with the basis
    pattern = _pattern_from_args(args)
    radius = 3 * hex_step_extent(pattern) if args.radius is None else args.radius
    g = hex_unit_distance_graph(pattern, radius)
    res = chromatic_witness_search(g, pattern.gauge, args.k, node_budget=args.budget)
    payload = reports.witness_dict(res, g)
    if res.found and args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            fh.write(reports.witness_edge_list(res, g))
    _emit(args, payload)
    return EXIT_OK if res.found else EXIT_BUDGET


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and shared after it.

    ``parse_args`` leaves the parser as it found it and returns a fresh
    namespace each time, and every default is immutable, so repeated
    ``main`` calls in one process see the same parser state.
    """
    p = argparse.ArgumentParser(
        prog="voronorm",
        description="Certificates for density bounds of distance-1-avoiding sets "
        "under parallelohedron norms (cube, A_n, D_n, planar hexagons).",
    )
    p.add_argument("--threads", type=int, default=None, help="worker threads (results never depend on this)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, basis=False, dim=False):
        sp.add_argument("--out", help="output file (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="json")
        sp.add_argument("--threads", type=int, default=None)
        if dim:
            sp.add_argument("--dim", type=int, required=False)
        if basis:
            sp.add_argument("--basis", type=_parse_basis, help="b0x,b0y,b1x,b1y")

    sp = sub.add_parser("bound", help="density bound certificate")
    sp.add_argument("family", choices=("an", "dn", "hexagon", "cube"))
    common(sp, basis=True, dim=True)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("property-d", help="distance-2 implies gauge-1 check")
    sp.add_argument("family", choices=("an", "dn", "hexagon"))
    common(sp, basis=True, dim=True)
    sp.add_argument("--radius", type=_parse_fraction, default=None, help="box radius (family-specific default)")
    sp.add_argument("--mode", choices=("strong", "weak"), default="strong")
    sp.set_defaults(func=cmd_property_d)

    sp = sub.add_parser("ratio", help="independence ratio tables")
    sp.add_argument("family", choices=("an", "cube", "counterexample"))
    common(sp, dim=True)
    sp.add_argument("--radii", type=_parse_radii, default=None)
    sp.add_argument("--n", type=int, default=20, help="counterexample truncation")
    sp.add_argument("--budget", type=int, default=None, help="solver node budget")
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("color", help="coset coloring properness verification")
    sp.add_argument("family", choices=("an", "dn", "hexagon", "cube"))
    common(sp, basis=True, dim=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=cmd_color)

    sp = sub.add_parser("witness", help="finite chromatic witness search (hexagon)")
    common(sp, basis=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--radius", type=_parse_fraction, default=None, help="box radius (default: 3 edge step extents)")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--edges-out", help="also write the witness edge list here")
    sp.set_defaults(func=cmd_witness)

    return p


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _validate(args) -> None:
    fam = getattr(args, "family", None)
    if fam in ("an", "dn", "cube") and args.dim is None:
        _usage_error(f"--dim is required for {fam}")
    if (fam == "hexagon" or args.func is cmd_witness) and args.basis is None:
        _usage_error("--basis is required for the hexagon")
    least = {"an": 2, "dn": 4, "cube": 1}.get(fam)
    if least is not None and args.dim < least:
        _usage_error(f"--dim must be at least {least} for {fam}, got {args.dim}")
    if args.func is cmd_bound and fam == "an" and args.dim > MAX_CHAIN_DIM:
        _usage_error(f"--dim must be at most {MAX_CHAIN_DIM} for bound an, got {args.dim}")
    if args.func is cmd_ratio and fam == "counterexample" and args.n < 1:
        _usage_error(f"--n must be at least 1, got {args.n}")
    if args.func is cmd_ratio and fam == "an":
        if not args.radii:
            _usage_error("--radii is required for ratio an")
        if any(r <= 0 for r in args.radii):
            _usage_error(f"--radii must all be positive, got {','.join(map(str, args.radii))}")
    if args.func is cmd_property_d and fam != "hexagon" and args.mode == "weak":
        _usage_error(f"--mode weak reads the hexagon's class-B cosets; use --mode strong for {fam}")
    if args.func in (cmd_property_d, cmd_witness) and args.radius is not None and args.radius <= 0:
        _usage_error(f"--radius must be positive, got {args.radius}")
    if args.func is cmd_witness and args.k < 1:
        _usage_error(f"--k must be at least 1, got {args.k}")
    if args.func is cmd_color and args.samples < 1:
        _usage_error(f"--samples must be at least 1, got {args.samples}")
    if args.func in (cmd_ratio, cmd_witness) and args.budget is not None and args.budget < 1:
        _usage_error(f"--budget must be at least 1, got {args.budget}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate(args)
    try:
        return args.func(args)
    except CertificateError as e:
        print(f"error: certificate check failed: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except DegenerateCell as e:
        print(f"error: degenerate basis: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: cannot write {e.filename}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
