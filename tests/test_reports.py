import json
from fractions import Fraction as F

from voronorm.density import verify_an_bound
from voronorm.graphs import an_property_d
from voronorm import reports


def test_frac_round_trip():
    for f in (F(1, 4), F(0), F(-3, 7), F(5)):
        assert F(reports.frac_str(f)) == f


def test_certificate_json_valid_and_exact():
    cert = verify_an_bound(2)
    doc = json.loads(reports.to_json(reports.certificate_dict(cert)))
    assert doc["assembled_bound"] == "1/4"
    assert doc["expected_bound"] == "1/4"
    assert all("/" in e["density"] for e in doc["entries"])


def test_certificate_csv_header_and_rows():
    cert = verify_an_bound(2)
    lines = reports.certificate_csv(cert).strip().split("\n")
    assert lines[0].startswith("label,size,neighborhood,density")
    assert len(lines) == 1 + len(cert.entries)


def test_property_d_serialization():
    rep = an_property_d(2, F(3, 2))
    doc = reports.property_d_dict(rep, "an", 2)
    assert doc["holds"] is True
    assert doc["violation_count"] == 0
    json.dumps(doc)


def test_text_format_renders():
    cert = verify_an_bound(2)
    text = reports.to_text(reports.certificate_dict(cert))
    assert "assembled_bound: 1/4" in text
