"""Serialization of certificates and reports.

All rational values are emitted as exact fraction strings "p/q" (JSON) with
a decimal convenience column in CSV; reports embed the computed value and
the expected reference value side by side.  Output is deterministic:
insertion-ordered dicts, sorted lists, no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from .coloring import ColoringReport, WitnessResult
from .density import DensityCertificate
from .graphs import GeometricGraph, PropertyDReport
from .independence import CounterexampleReport, CubeCertificate, RatioSequence


def frac_str(f: Fraction) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def vec_str(v) -> str:
    return ",".join(frac_str(c) for c in v)


def certificate_dict(cert: DensityCertificate) -> dict:
    return {
        "report": "density-certificate",
        "family": cert.family,
        "dim": cert.dim,
        "neighborhood_kind": cert.neighborhood_kind,
        "assembled_bound": frac_str(cert.assembled_bound),
        "expected_bound": frac_str(cert.expected_bound),
        "matches_expected": cert.matches_expected,
        "max_density": frac_str(cert.max_density),
        "maximizers": list(cert.maximizers),
        "entries": [
            {
                "label": e.label,
                "size": e.size,
                "neighborhood": e.neighborhood,
                "density": frac_str(e.density),
                "expected_density": None if e.expected_density is None else frac_str(e.expected_density),
                "matches": e.matches,
            }
            for e in cert.entries
        ],
        "notes": list(cert.notes),
    }


def certificate_csv(cert: DensityCertificate) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["label", "size", "neighborhood", "density", "density_decimal", "expected_density", "matches"])
    for e in cert.entries:
        w.writerow(
            [
                e.label,
                e.size,
                e.neighborhood,
                frac_str(e.density),
                repr(float(e.density)),
                "" if e.expected_density is None else frac_str(e.expected_density),
                "" if e.matches is None else str(e.matches).lower(),
            ]
        )
    return buf.getvalue()


def cube_certificate_dict(cert: CubeCertificate) -> dict:
    return {
        "report": "density-certificate",
        "family": "cube",
        "dim": cert.dim,
        "vertex_count": cert.vertex_count,
        "complete_graph": cert.complete,
        "alpha": cert.alpha,
        "assembled_bound": frac_str(cert.ratio),
        "expected_bound": frac_str(cert.expected_bound),
        "matches_expected": cert.matches_expected,
    }


def property_d_dict(rep: PropertyDReport, family: str, dim: int) -> dict:
    return {
        "report": "property-d",
        "family": family,
        "dim": dim,
        "mode": rep.mode,
        "interior_vertices": rep.interior_vertices,
        "checked_pairs": rep.checked_pairs,
        "holds": rep.holds,
        "violation_count": len(rep.violations),
        "violations": [
            {
                "u": vec_str(v.u),
                "w": vec_str(v.w),
                "graph_distance": v.graph_distance,
                "gauge": frac_str(v.gauge_value),
            }
            for v in rep.violations
        ],
    }


def ratio_sequence_dict(seq: RatioSequence) -> dict:
    return {
        "report": "ratio-sequence",
        "family": seq.family,
        "dim": seq.dim,
        "target_bound": frac_str(seq.target_bound),
        "entries": [
            {
                "radius": frac_str(e.radius),
                "vertices": e.vertex_count,
                "alpha": e.alpha,
                "ratio": frac_str(e.ratio),
                "ratio_decimal": repr(float(e.ratio)),
                "proven": e.proven,
                "upper_bound": e.upper_bound,
            }
            for e in seq.entries
        ],
    }


def ratio_sequence_csv(seq: RatioSequence) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["radius", "vertices", "alpha", "ratio_exact", "ratio_decimal", "bound", "proven"])
    for e in seq.entries:
        w.writerow(
            [
                frac_str(e.radius),
                e.vertex_count,
                e.alpha,
                frac_str(e.ratio),
                repr(float(e.ratio)),
                frac_str(seq.target_bound),
                str(e.proven).lower(),
            ]
        )
    return buf.getvalue()


def counterexample_dict(rep: CounterexampleReport) -> dict:
    return {
        "report": "counterexample",
        "n_max": rep.n_max,
        "vertices": rep.vertex_count,
        "alpha": rep.alpha,
        "proven": rep.proven,
        "ratio": frac_str(rep.ratio),
        "ratio_decimal": repr(float(rep.ratio)),
        "reference_independent_set": rep.reference_size,
        "constrained_runs": [
            {
                "forced_vertex": -r.k,
                "alpha": r.alpha,
                "max_positive_in_witness": r.max_positive,
                "structural_cap": r.structural_cap,
                "within_cap": r.within_cap,
            }
            for r in rep.constrained
        ],
    }


def coloring_report_dict(rep: ColoringReport) -> dict:
    return {
        "report": "coloring",
        "family": rep.family,
        "dim": rep.dim,
        "color_count": rep.color_count,
        "sampled_pairs": rep.sampled_pairs,
        "catalog_pairs": rep.catalog_pairs,
        "violation_count": len(rep.violations),
        "violations": [
            {"x": vec_str(v.x), "y": vec_str(v.y), "color": v.color} for v in rep.violations
        ],
    }


def witness_dict(res: WitnessResult, g: GeometricGraph) -> dict:
    return {
        "report": "chromatic-witness",
        "target_chromatic_number": res.k,
        "found": res.found,
        "vertex_count": res.vertex_count,
        "verified_independently": res.verified,
        "vertices": [vec_str(g.coords(i)) for i in res.vertex_indices],
    }


def witness_edge_list(res: WitnessResult, g: GeometricGraph) -> str:
    keep = set(res.vertex_indices)
    buf = io.StringIO()
    for i, j in g.edges():
        if i in keep and j in keep:
            buf.write(f"{vec_str(g.coords(i))} {vec_str(g.coords(j))}\n")
    return buf.getvalue()


def to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def to_text(payload: dict) -> str:
    lines = []

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {v}")
        else:
            lines.append(f"{pad}{obj}")

    walk(payload)
    return "\n".join(lines).rstrip() + "\n"
