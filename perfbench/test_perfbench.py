"""Self-test of the benchmark's own machinery on a tiny instance.

Run from the repository root:  python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import check
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
CHECKS = ("gorenstein,cm,bglb,rank_selected,lemma33,link_sum,flag_symmetry,equality,"
          "hilbert,multigraded,lefschetz")


def _sample(work: Path, trace: bool, threads: str | None = None) -> None:
    work.mkdir()
    plan = {"workdir": str(work), "instances": [["cross_d3", {"family": "cross", "dim": 3}]],
            "checks": CHECKS, "seeds": [5, 7], "setup_only": False, "trace": trace}
    (work / "plan.json").write_text(json.dumps(plan))
    env = dict(os.environ)
    env.pop("BGLB_THREADS", None)
    if threads is not None:
        env["BGLB_THREADS"] = threads
    subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "plan.json")],
                   cwd=REPO, env=env, check=True, timeout=120)


@pytest.fixture(scope="module")
def samples(tmp_path_factory) -> Path:
    """Sample directories: plain (untraced), traced (one thread), threaded (two)."""
    base = tmp_path_factory.mktemp("perfbench")
    _sample(base / "plain", trace=False)
    _sample(base / "traced", trace=True, threads="1")
    _sample(base / "threaded", trace=True, threads="2")
    return base


def _report(work: Path) -> dict:
    rep = json.loads((work / "report.json").read_text())
    del rep["header"]["timestamp"]
    return rep


def test_report_identical_with_tracing_on_and_off(samples):
    for name in ("plain", "traced"):
        assert json.loads((samples / name / "result.json").read_text())["exit_code"] == 0
    assert _report(samples / "plain") == _report(samples / "traced")


def test_spans_nest_and_self_times_add_up(samples):
    spans = tracer.load_spans(str(samples / "traced" / "spans.json"))
    by_id = {s.sid: s for s in spans}
    names = {s.name for s in spans}
    # the column sketch only starts on matrices larger than cross_d3 has
    traced = {layer + "." + f for layer, fnames in tracer.TRACED.items() for f in fnames}
    assert names == (traced - {"linalg.sketch_columns"}) | {tracer.SERIALIZE}
    for s in spans:
        assert s.self_s >= -1e-9
        if s.parent:
            p = by_id[s.parent]
            assert p.t0 <= s.t0 and s.t1 <= p.t1
    # one thread: the self times of a root span's subtree sum to its duration
    roots = [s for s in spans if not s.parent]
    assert {r.name for r in roots} == {"generators.build", "complexes.to_dict", "cli.main"}
    main = next(r for r in roots if r.name == "cli.main")
    subtree = {main.sid}
    for s in sorted(spans, key=lambda s: s.sid):
        if s.parent in subtree:
            subtree.add(s.sid)
    assert sum(by_id[i].self_s for i in subtree) == pytest.approx(main.dur, rel=1e-9)
    m = tracer.layer_metrics(spans)
    assert set(m) <= set(tracer.PER_LAYER)
    assert m["sr_algebra.multiplication_injective.calls"] > 0
    assert m["complexes.rank_select.calls"] > 0


def test_worker_spans_parent_to_parallel_map(samples):
    spans = tracer.load_spans(str(samples / "threaded" / "spans.json"))
    by_id = {s.sid: s for s in spans}
    main_thread = next(s.thread for s in spans if s.name == "cli.main")
    links = [s for s in spans if s.name == "complexes.link" and s.thread != main_thread]
    assert links
    for s in links:
        assert by_id[s.parent].name == "util.parallel_map"
        assert by_id[s.parent].t0 <= s.t0 and s.t1 <= by_id[s.parent].t1


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [tracer.Span(1, 0, "util.parallel_map", 0.0, 10.0, 0, 2),
             tracer.Span(2, 1, "complexes.link", 1.0, 5.0, 1, None),
             tracer.Span(3, 1, "complexes.link", 3.0, 7.0, 2, None)]
    tracer.compute_self_times(spans)
    assert [s.self_s for s in spans] == [4.0, 4.0, 4.0]


def test_checker_passes_report_and_flags_doctored_hilbert_dim(samples):
    plain_dir = samples / "plain"
    rep = json.loads((plain_dir / "report.json").read_text())
    inst = {"cross_d3": json.loads((plain_dir / "cross_d3.json").read_text())}
    checks = CHECKS.split(",")
    v = check.check_report(rep, 0, inst, checks, 1)
    assert (v.failed, v.problems) == (0, [])
    assert v.decided == v.attempted > 0

    row = next(r for b in rep["reports"] for r in b["checks"] if r["check"] == "hilbert")
    row["details"]["dims"][1] += 1
    v = check.check_report(rep, 0, inst, checks, 1)
    assert v.failed == 1 and "brute-force" in v.problems[0]
    assert check.check_report(None, 1, inst, checks, 42).failed == 42


def test_h_vector_brute_force():
    octahedron = [(a, b, c) for a in (1, 2) for b in (3, 4) for c in (5, 6)]
    assert check.h_vector_brute(octahedron, 3) == [1, 3, 3, 1]


def test_benchmark_json_matches_the_code():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracer.PER_LAYER
    for w in WORKLOADS.values():
        assert w.dominant + ".s" in tracer.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "hilbert",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
