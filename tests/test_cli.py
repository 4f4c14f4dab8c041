import json
from importlib import resources

import jsonschema
import pytest

from bglb import cli
from bglb.cli import main
from bglb.complexes import colored, from_facets, to_dict
from bglb.generators import build, cross_polytope, default_suite_specs
from bglb.sr_algebra import GenericityError


def _write_instance(path, gamma, name):
    payload = to_dict(gamma, name=name)
    path.write_text(json.dumps(payload))
    return str(path)


def _holed_octahedron():
    oct_g = cross_polytope(3)
    facets = list(oct_g.complex.facets)[:-1]
    return colored(from_facets(facets, 6), list(oct_g.coloring.colors))


@pytest.fixture
def oct_file(tmp_path):
    return _write_instance(tmp_path / "oct.json", cross_polytope(3), "oct")


def _schema():
    text = resources.files("bglb").joinpath("report_schema.json").read_text()
    return json.loads(text)


# -- generate ---------------------------------------------------------------


def test_generate_cross_prints_invariants(tmp_path, capsys):
    out = tmp_path / "c2.json"
    assert main(["generate", "--family", "cross", "--dim", "2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "cross_d2 -> %s" % out
    assert lines[1] == "n = 4, palette = 2"
    assert lines[2] == "f = 1 4 4"
    assert lines[3] == "h = 1 2 1"
    assert lines[4] == "g = 0 0 0"
    payload = json.loads(out.read_text())
    assert payload["name"] == "cross_d2"
    assert payload["provenance"] == {"family": "cross", "dim": 2}


def test_generate_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["generate", "--family", "stacked_cross", "--dim", "4", "--count", "2",
            "--seed", "1", "--name", "s42"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "n = 12, palette = 4" in out
    assert "h = 1 8 12 8 1" in out


def test_generate_default_output_name(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    base = json.dumps({"family": "simplex", "dim": 3})
    assert main(["generate", "--family", "barycentric", "--base", base]) == 0
    expected = tmp_path / "barycentric_of_simplex_d3.json"
    assert expected.exists()
    assert "barycentric_of_simplex_d3" in capsys.readouterr().out


def test_generate_rejects_incomplete_spec(capsys):
    assert main(["generate", "--family", "cross"]) == 2
    assert capsys.readouterr().err.startswith("bglb: ")


# -- compute ----------------------------------------------------------------


def test_compute_scalar_invariants(oct_file, capsys):
    assert main(["compute", "--in", oct_file, "--what", "f"]) == 0
    assert capsys.readouterr().out == "1 6 12 8\n"
    assert main(["compute", "--in", oct_file, "--what", "h"]) == 0
    assert capsys.readouterr().out == "1 3 3 1\n"
    assert main(["compute", "--in", oct_file, "--what", "g"]) == 0
    assert capsys.readouterr().out == "0 0 0 0\n"


def test_compute_flag_h(oct_file, capsys):
    assert main(["compute", "--in", oct_file, "--what", "flag_h"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "{} -> 1"
    assert lines[1] == "{1} -> 1"
    assert lines[-1] == "{1,2,3} -> 1"
    assert len(lines) == 8


def test_compute_betti(oct_file, capsys):
    assert main(["compute", "--in", oct_file, "--what", "betti"]) == 0
    assert capsys.readouterr().out == "-1 -> 0\n0 -> 0\n1 -> 0\n2 -> 1\n"


def test_compute_hilbert_both_parameter_modes(oct_file, capsys):
    assert main(["compute", "--in", oct_file, "--what", "hilbert"]) == 0
    assert capsys.readouterr().out == "1 3 3 1 0\n"
    assert main(["compute", "--in", oct_file, "--what", "hilbert",
                 "--lsop", "generic", "--seed", "2"]) == 0
    assert capsys.readouterr().out == "1 3 3 1 0\n"


def test_compute_generic_draw_failure_is_operational(oct_file, capsys, monkeypatch):
    args = ["compute", "--in", oct_file, "--what", "hilbert", "--lsop", "generic"]

    def no_lsop(*a, **k):
        raise GenericityError("no lsop found after 3 draws from seed 1")

    monkeypatch.setattr(cli, "draw_verified_lsop", no_lsop)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == "bglb: generic draw failed: no lsop found after 3 draws from seed 1\n"

    def broken(*a, **k):
        raise RuntimeError("bug in the draw")

    # a programming error is not an operational one: it must surface
    monkeypatch.setattr(cli, "draw_verified_lsop", broken)
    with pytest.raises(RuntimeError, match="bug in the draw"):
        main(args)


def test_compute_needs_coloring_for_g(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(to_dict(from_facets([(1, 2)], 2))))
    assert main(["compute", "--in", str(path), "--what", "g"]) == 2
    assert "coloring" in capsys.readouterr().err


# -- verify -----------------------------------------------------------------


def test_verify_report_is_schema_valid(oct_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--in", oct_file, "--checks", "all", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    jsonschema.validate(instance=report, schema=_schema())
    assert report["totals"]["fail"] == 0
    assert report["header"]["checks"][0] == "gorenstein"
    block = report["reports"][0]
    assert block["instance"] == "oct"
    assert block["provenance"] == {"path": oct_file}


def test_verify_is_deterministic(tmp_path):
    specs = dict(default_suite_specs())
    paths = []
    for name in ("cross_d3", "stacked_d4_m2"):
        paths += ["--in", _write_instance(tmp_path / (name + ".json"), build(specs[name]), name)]
    args = ["verify", *paths, "--checks", "rank_selected,lemma33,link_sum,equality,flag_symmetry"]
    texts = []
    for run in ("a", "b"):
        out = tmp_path / (run + ".json")
        assert main(args + ["--out", str(out)]) == 0
        text = out.read_text()
        stamp = json.loads(text)["header"]["timestamp"]
        assert text.count(stamp) == 1
        texts.append(text.replace(stamp, "TIMESTAMP"))
    assert texts[0] == texts[1]
    assert len(json.loads(texts[0])["reports"]) == 2


def test_verify_subset_of_checks(oct_file, capsys):
    assert main(["verify", "--in", oct_file, "--checks", "bglb,lemma33"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = {row["check"] for row in report["reports"][0]["checks"]}
    assert names == {"bglb", "lemma33"}
    # bglb comes first in canonical order regardless of the flag order
    assert report["header"]["checks"] == ["bglb", "lemma33"]


def test_verify_gates_on_missing_hypothesis(tmp_path, capsys):
    path = _write_instance(tmp_path / "holed.json", _holed_octahedron(), "holed")
    assert main(["verify", "--in", path, "--checks", "bglb"]) == 0
    report = json.loads(capsys.readouterr().out)
    row = report["reports"][0]["checks"][0]
    assert row["status"] == "skipped"
    assert row["details"]["reason"] == "sphere-links hypothesis not certified"
    assert row["details"]["witness"]["face"] == []
    assert report["totals"] == {"pass": 0, "fail": 0, "skipped": 1}


def test_verify_fails_on_broken_hypothesis_check(tmp_path, capsys):
    path = _write_instance(tmp_path / "holed.json", _holed_octahedron(), "holed")
    assert main(["verify", "--in", path, "--checks", "gorenstein"]) == 1
    report = json.loads(capsys.readouterr().out)
    row = report["reports"][0]["checks"][0]
    assert row["status"] == "fail"
    assert row["witness"]["face"] == []
    jsonschema.validate(instance=report, schema=_schema())


def test_verify_family_suite_multigraded(capsys):
    assert main(["verify", "--family-suite", "default", "--checks", "multigraded"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["reports"]) == 18
    assert report["totals"] == {"pass": 16, "fail": 0, "skipped": 2}
    skipped = {b["instance"] for b in report["reports"] if b["summary"]["skipped"]}
    assert skipped == {"sd_simplex_d4", "susp_sd_simplex_d4"}


def test_verify_csv_format(oct_file, capsys):
    assert main(["verify", "--in", oct_file, "--checks", "bglb", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance,check,params,status,witness"
    assert lines[1].startswith("oct,bglb,")
    assert ",pass," in lines[1]


def test_verify_text_format(oct_file, capsys):
    assert main(["verify", "--in", oct_file, "--checks", "bglb,flag_symmetry",
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("bglb 0.1.0  checks=bglb,flag_symmetry")
    assert lines[1] == "oct: 2 pass, 0 fail, 0 skipped"
    assert lines[-1] == "total: 2 pass, 0 fail, 0 skipped"


def test_verify_operational_errors(tmp_path, oct_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--in", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["verify", "--in", str(tmp_path / "missing.json")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["verify", "--in", oct_file, "--checks", "bogus"]) == 2
    assert "unknown checks" in capsys.readouterr().err
    assert main(["verify", "--checks", "bglb"]) == 2
    assert "nothing to verify" in capsys.readouterr().err
    assert main(["verify", "--family-suite", "fancy"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_rejects_uncolored_input(tmp_path, capsys):
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(to_dict(from_facets([(1, 2)], 2))))
    assert main(["verify", "--in", str(path)]) == 2
    assert "no coloring" in capsys.readouterr().err


def test_verify_rejects_bad_field(oct_file, capsys):
    assert main(["verify", "--in", oct_file, "--p", "1000001"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "bglb 0.1.0"
