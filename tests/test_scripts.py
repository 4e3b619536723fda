"""The scripts under ``scripts/`` run from any working directory."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from sbuntwist.verify import EquivalenceReport, PositionScanReport

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "run_verification.py",
)


def run_script(cwd, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, SCRIPT, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_run_verification_runs_outside_the_repository(tmp_path):
    proc = run_script(tmp_path, "--samples", "1", "--dmax", "1")
    assert proc.returncode == 0, proc.stderr
    assert "all checks hold" in proc.stdout


def test_run_verification_json_summary_matches_the_exit_code(tmp_path):
    proc = run_script(tmp_path, "--samples", "1", "--dmax", "1", "--json")
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["ok"] == (proc.returncode == 0), proc.stderr
    scans = summary["scans"]
    assert [(s["mode"], s.get("prime")) for s in scans] == [
        ("oracle-phi3", None), ("oracle-phi6", None), ("table", 7), ("table", 11),
        ("lemma3", 5), ("lemma3", 7), ("lemma3", 11), ("lemma3", 13),
    ]
    for scan in scans:
        assert scan["checked"] >= 1 and scan["elapsed_s"] >= 0
        assert isinstance(scan["violations"], int) and isinstance(scan["failures"], list)


@pytest.mark.parametrize(
    "value,flag",
    [(v, f) for f in ("--samples", "--dmax") for v in ("0", "-1")]
    + [("-1", "--seed"), ("1000001", "--samples")],
)
def test_run_verification_rejects_an_empty_scan(tmp_path, flag, value):
    # zero samples or an empty grid would print "all checks hold" vacuously,
    # a negative seed would repeat the scans of its absolute value, and more
    # closed-point samples than the seed stride would reach the next seed's points
    proc = run_script(tmp_path, flag, value)
    assert proc.returncode == 2
    if value == "1000001":
        rule = "<= 1000000"
    else:
        rule = f">= {0 if flag == '--seed' else 1}"
    assert f"{flag} must be {rule}, got {value}" in proc.stderr
    assert "all checks hold" not in proc.stdout


def _load_script(name):
    path = os.path.join(os.path.dirname(SCRIPT), f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_bench():
    return _load_script("bench")


def test_run_verification_lists_each_failed_check(monkeypatch, capsys):
    # one failing report of each scan shape: a formula mismatch, a table
    # failure and a census failure; the other scans run for real
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    script = _load_script("run_verification")
    scan_table, scan_closed_points = script.scan_table, script.scan_closed_points

    def fake_table(q, random_samples, seed):
        rep = scan_table(q, random_samples=random_samples, seed=seed)
        if q != 7:
            return rep
        return dataclasses.replace(
            rep, count_mismatches=1, first_failure="case 5 witness read as case 7"
        )

    def fake_closed_points(p, samples, seed):
        if p != 5:
            return scan_closed_points(p, samples=samples, seed=seed)
        return PositionScanReport(p, samples, 1, 1, 1, ((2, 1),))

    monkeypatch.setattr(
        script, "scan_phi3", lambda dmax: EquivalenceReport("oracle-phi3", 2, 1, "(d=1, b=0)")
    )
    monkeypatch.setattr(script, "scan_table", fake_table)
    monkeypatch.setattr(script, "scan_closed_points", fake_closed_points)
    monkeypatch.setattr(sys, "argv", ["run_verification.py", "--samples", "1", "--dmax", "1",
                                      "--json"])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    block = lines.index("STRUCTURAL FAILURES:")
    expected = [
        "oracle-phi3: (d=1, b=0)",
        "table over F_7: case 5 witness read as case 7",
        "p=5: 1 collinear hits in case 2, which a transitive orbit cannot form",
    ]
    assert lines[block + 1:-1] == [f"  - {f}" for f in expected]
    summary = json.loads(lines[-1])
    assert summary["ok"] is False
    assert [((s["mode"], s.get("prime")), s["failures"]) for s in summary["scans"]
            if s["failures"]] == [
        (("oracle-phi3", None), expected[:1]),
        (("table", 7), expected[1:2]),
        (("lemma3", 5), expected[2:]),
    ]


def _canned_perfbench(workload, items_per_s):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"}}}
    return "\n".join([
        "meta " + json.dumps({"workload": workload, "seed": 1, "src_lines": 2300}),
        f"items_per_s {items_per_s} 1/s n=10",
        "notes " + json.dumps({"digest": "sha256:abc", "passes": 2}),
        json.dumps(result),
    ]) + "\n"


CANNED_PYTEST = """\
........................................................................ [100%]
============================= slowest durations ==============================
4.21s call     tests/test_acceptance.py::test_criterion_6_line_count_table_and_classifier_totality
0.30s call     tests/test_acceptance.py::test_criterion_5_degree6_general_position_scan
0.01s setup    tests/test_acceptance.py::test_criterion_5_degree6_general_position_scan
475 passed in 14.02s
"""


def test_bench_record_assembles_perfbench_lines_and_criterion_times():
    bench = _load_bench()
    outputs = {w: _canned_perfbench(w, 100.0 + i) for i, w in enumerate(bench.WORKLOADS)}
    tree = {"head": "0701628", "uncommitted": True}
    record = bench.bench_record(10, outputs, CANNED_PYTEST, 15.5, tree)
    assert record["pr"] == 10 and record["src_lines"] == 2300
    assert record["tree"] == tree
    assert sorted(record["perfbench"]) == ["census", "classify", "words"]
    census = record["perfbench"]["census"]
    assert census["meta"]["workload"] == "census"
    assert census["notes"]["digest"] == "sha256:abc"
    assert census["result"]["metrics"]["items_per_s"]["value"] == 100.0
    # the call time, not the setup time, of each criterion
    assert record["tier1"] == {
        "summary": "475 passed in 14.02s", "wall_s": 15.5,
        "criterion_5_s": 0.30, "criterion_6_s": 4.21,
    }
    json.dumps(record)  # the record is what BENCH_<N>.json holds


def test_bench_record_refuses_incomplete_output():
    bench = _load_bench()
    with pytest.raises(ValueError, match="criterion_5_s"):
        bench.criterion_times(CANNED_PYTEST.replace("criterion_5", "criterion_x"))
    no_notes = "\n".join(
        line for line in _canned_perfbench("words", 1.0).splitlines()
        if not line.startswith("notes ")
    )
    with pytest.raises(ValueError, match="notes"):
        bench.perfbench_record(no_notes)


def test_bench_tree_names_the_head_and_uncommitted_changes():
    bench = _load_bench()
    head = "031b4254c383e1efd198699b5ee336f8fe5607c7\n"
    assert bench.tree_record(head, "") == {"head": head.strip(), "uncommitted": False}
    status = " M src/sbuntwist/links.py\n?? tests/test_new.py\n"
    assert bench.tree_record(head, status) == {"head": head.strip(), "uncommitted": True}


def test_mutants_refuses_a_stale_mutant_before_pytest_starts(monkeypatch, capsys):
    script = _load_script("mutants")

    def no_pytest(*args, **kwargs):
        raise AssertionError("pytest started")

    monkeypatch.setattr(script, "run_pytest", no_pytest)
    gone = script.Mutant("gone", "src/sbuntwist/links.py", "m2 = d2 * t\n", "m2 = d2\n",
                         ("tests/test_links.py",))
    assert script.run(script.MUTANTS + (gone,)) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["STALE MUTANTS:", "  gone: old text occurs 0 times in "
                                "src/sbuntwist/links.py"]


@pytest.mark.parametrize(
    "code, shown, status, summary",
    [
        (1, "killed", 0, "1 killed, 0 survived, 0 hung, 0 crash"),
        (-9, "CRASH", 1, "0 killed, 0 survived, 0 hung, 1 crash"),
        (2, "CRASH", 1, "0 killed, 0 survived, 0 hung, 1 crash"),
        (5, "CRASH", 1, "0 killed, 0 survived, 0 hung, 1 crash"),
    ],
)
def test_mutants_counts_only_a_test_failure_as_a_kill(monkeypatch, capsys, code, shown, status,
                                                      summary):
    # pytest exits 1 when a test fails; a signal (-9 is an out-of-memory
    # kill) or pytest's own error exits (2 interrupted, 5 no tests
    # collected) say nothing about the mutant
    script = _load_script("mutants")
    codes = iter([0, code])  # the clean copy passes, then the mutant's run
    monkeypatch.setattr(script.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, next(codes)))
    assert script.run(script.MUTANTS[:1]) == status
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].split()[0] == shown
    assert lines[1] == f"1 mutants: {summary}"


def test_committed_mutants_are_not_stale():
    # an edit that removes or repeats a mutant's old text must update the list
    script = _load_script("mutants")
    assert script.stale(script.MUTANTS) == []


def _load_abtest(monkeypatch):
    monkeypatch.syspath_prepend(os.path.dirname(SCRIPT))  # abtest imports bench
    return _load_script("abtest")


def _canned_run(metrics, digest="sha256:abc", failed=0):
    """perfbench/run.py output with the given {name: (value, unit)} metrics."""
    result = {"correct": not failed, "attempted": 100, "failed": failed,
              "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}
    return "\n".join([
        "meta " + json.dumps({"workload": "classify", "seed": 1}),
        "notes " + json.dumps({"digest": digest}),
        json.dumps(result),
    ]) + "\n"


AB_SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "classify"}],
    "end_to_end": [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def test_abtest_metric_report_pins_medians_wins_and_verdicts(monkeypatch):
    abtest = _load_abtest(monkeypatch)
    parent = [100.0, 104.0, 96.0, 102.0, 98.0, 100.0, 106.0, 94.0, 100.0, 101.0]
    change = [130.0, 99.0, 125.0, 133.0, 128.0, 131.0, 136.0, 122.0, 129.0, 130.0]
    rep = abtest.metric_report("higher", 0.15, parent, change)
    assert rep["parent_median"] == 100.0 and rep["change_median"] == 129.5
    # quartiles 97.5 and 102.5 of the parent, the default (exclusive) method
    assert rep["parent_iqr"] == 5.0
    assert rep["rel_change"] == 0.295 and rep["pairs"] == 10
    # pair 2 is lost: 9 of 10 is enough for a gain
    assert rep["wins"] == 9 and rep["gain"] is True and rep["breach"] is False
    # one more lost pair and the gain goes, however far apart the medians
    rep = abtest.metric_report("higher", 0.15, parent, [90.0] + change[1:])
    assert rep["wins"] == 8 and rep["gain"] is False
    # lower is better: 12% more memory breaches a 10% bound, 8% does not
    rss = [30.0] * 4
    assert abtest.metric_report("lower", 0.1, rss, [33.6] * 4)["breach"] is True
    rep = abtest.metric_report("lower", 0.1, rss, [32.4] * 4)
    assert rep["breach"] is False and rep["wins"] == 0 and rep["gain"] is False
    # a median gain inside the parent's spread is no gain, and a spread
    # wider than the bound leaves the metric unresolved
    rep = abtest.metric_report("lower", 0.25, [1.0, 2.0, 3.0, 4.0], [0.9, 1.9, 2.9, 3.9])
    assert rep["wins"] == 4 and rep["gain"] is False
    assert rep["parent_iqr"] == rep["change_iqr"] == 2.5 and rep["unresolved"] is True
    # unless every run of the change beats every run of the parent
    rep = abtest.metric_report("lower", 0.25, [1.0, 2.0, 3.0, 4.0], [0.5, 0.6, 0.7, 0.8])
    assert rep["unresolved"] is False


def test_abtest_workload_report_reads_the_bounds_and_compares_traces(monkeypatch):
    abtest = _load_abtest(monkeypatch)
    runs = {
        "parent": [_canned_run({"items_per_s": (100.0 + i, "1/s"), "peak_rss_mb": (30.0, "MB")})
                   for i in range(3)],
        "change": [_canned_run({"items_per_s": (130.0 + i, "1/s"), "peak_rss_mb": (34.0, "MB")})
                   for i in range(3)],
    }
    setups = {"parent": [0.10] * 20, "change": [0.10] * 20}
    counts = {"gf.mul.calls_per_item": (129.775, "count"), "plane.x.self_ms": (0.1, "ms")}
    traces = {"parent": _canned_run(counts), "change": _canned_run(counts)}
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces)
    assert sorted(rep["metrics"]) == ["items_per_s", "peak_rss_mb", "setup_s"]
    items = rep["metrics"]["items_per_s"]
    assert (items["parent_median"], items["change_median"], items["wins"]) == (101.0, 131.0, 3)
    assert items["gain"] is True and items["bound"] == 0.15
    # RSS +13.3% breaches its 10% bound; set-up is tied, so no wins
    assert rep["metrics"]["peak_rss_mb"]["breach"] is True
    assert rep["metrics"]["setup_s"]["pairs"] == 20 and rep["metrics"]["setup_s"]["wins"] == 0
    assert rep["trace"] == {"parent_digest": "sha256:abc", "change_digest": "sha256:abc",
                            "digests_equal": True, "counts_equal": True,
                            "differing_counts": {}, "moved_counts": {}}
    assert rep["failed_frac"] == {"parent": 0.0, "change": 0.0} and rep["ok"] is False

    # within every bound, but a new digest, a moved count and a failed item
    runs["change"] = [_canned_run({"items_per_s": (99.0, "1/s"), "peak_rss_mb": (31.0, "MB")},
                                  failed=1)] * 3
    moved = dict(counts, **{"gf.mul.calls_per_item": (130.0, "count")})
    traces["change"] = _canned_run(moved, digest="sha256:def")
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces)
    assert not any(m["breach"] for m in rep["metrics"].values())
    assert rep["failed_frac"]["change"] == 0.01
    assert rep["trace"]["digests_equal"] is False
    # the ms row is not a count, so only the call count is compared
    assert rep["trace"]["differing_counts"] == {"gf.mul.calls_per_item": [129.775, 130.0]}
    assert rep["ok"] is False


def test_abtest_moved_names_the_counts_that_may_differ(monkeypatch):
    abtest = _load_abtest(monkeypatch)
    runs = {side: [_canned_run({"items_per_s": (100.0, "1/s"), "peak_rss_mb": (30.0, "MB")})] * 3
            for side in ("parent", "change")}
    setups = {"parent": [0.10] * 20, "change": [0.10] * 20}
    counts = {"gf.mul.calls_per_item": (39.775, "count"), "gf.inv.calls_per_item": (21.1855, "count"),
              "plane.line_through.calls_per_item": (15.0, "count")}
    moved = dict(counts, **{"gf.mul.calls_per_item": (0.0, "count"),
                            "gf.inv.calls_per_item": (0.0, "count")})
    traces = {"parent": _canned_run(counts), "change": _canned_run(moved)}
    names = ("gf.mul.calls_per_item", "gf.inv.calls_per_item")
    # unnamed, both moved counts set ok false
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces)
    assert sorted(rep["trace"]["differing_counts"]) == sorted(names)
    assert rep["trace"]["counts_equal"] is False and rep["ok"] is False
    # named, they may differ, and the report lists both values of each
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces, names)
    assert rep["trace"]["moved_counts"] == {"gf.inv.calls_per_item": [21.1855, 0.0],
                                            "gf.mul.calls_per_item": [39.775, 0.0]}
    assert rep["trace"]["differing_counts"] == {} and rep["trace"]["counts_equal"] is True
    assert rep["ok"] is True
    # naming only one of them leaves the other one failing the run
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces, names[:1])
    assert rep["trace"]["differing_counts"] == {"gf.inv.calls_per_item": [21.1855, 0.0]}
    assert rep["ok"] is False
    # a named count that does not move is listed and passes
    same = {"parent": _canned_run(counts), "change": _canned_run(counts)}
    rep = abtest.workload_report(AB_SPEC, runs, setups, same, names)
    assert rep["trace"]["moved_counts"]["gf.mul.calls_per_item"] == [39.775, 39.775]
    assert rep["ok"] is True
    # a digest that differs still fails, whatever counts are named
    traces["change"] = _canned_run(moved, digest="sha256:def")
    rep = abtest.workload_report(AB_SPEC, runs, setups, traces, names)
    assert rep["trace"]["counts_equal"] is True and rep["ok"] is False


def test_abtest_alternates_the_trees_and_prints_one_json(monkeypatch, capsys, tmp_path):
    abtest = _load_abtest(monkeypatch)
    monkeypatch.setattr(abtest, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(AB_SPEC))
    calls = []

    def fake_perfbench(tree, workload, seed, seconds, trace):
        calls.append((tree, f"trace {trace}"))
        if trace:
            return _canned_run({"gf.mul.calls_per_item": (1.0, "count")})
        rate = 130.0 if tree == "tree-c0ffee" else 100.0
        return _canned_run({"items_per_s": (rate, "1/s"), "peak_rss_mb": (30.0, "MB")})

    def fake_setup(tree, workload, seed, speed):
        calls.append((tree, "setup"))
        return 0.1

    monkeypatch.setattr(abtest, "extract", lambda rev, dest: f"tree-{rev}")
    monkeypatch.setattr(abtest, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(abtest, "setup_seconds", fake_setup)
    monkeypatch.setattr(abtest, "_speed", lambda: None)
    code = abtest.main(["--parent", "f00d", "--change", "c0ffee", "--pairs", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["ok"] is True
    assert (report["parent"], report["change"], report["pairs"]) == ("f00d", "c0ffee", 3)
    assert report["seconds"] == 20 and report["setup_samples"] == 20 and report["moved"] == []
    # one traced run per tree first, then the set-up samples, then the timed pairs
    assert calls[:2] == [("tree-f00d", "trace 1"), ("tree-c0ffee", "trace 1")]
    parent, change = ("tree-f00d", "setup"), ("tree-c0ffee", "setup")
    assert calls[2:42] == [parent, change, change, parent] * 10
    parent, change = ("tree-f00d", "trace 0"), ("tree-c0ffee", "trace 0")
    assert calls[42:] == [parent, change, change, parent, parent, change]
    items = report["workloads"]["classify"]["metrics"]["items_per_s"]
    assert items["wins"] == 3 and items["rel_change"] == 0.3


def test_abtest_refuses_a_moved_name_no_trace_reports(monkeypatch, capsys, tmp_path):
    abtest = _load_abtest(monkeypatch)
    monkeypatch.setattr(abtest, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(AB_SPEC))
    calls = []

    def fake_perfbench(tree, workload, seed, seconds, trace):
        calls.append(trace)
        return _canned_run({"gf.mul.calls_per_item": (1.0, "count"),
                            "plane.x.self_ms": (0.1, "ms")})

    monkeypatch.setattr(abtest, "extract", lambda rev, dest: f"tree-{rev}")
    monkeypatch.setattr(abtest, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(abtest, "setup_seconds", lambda *args: pytest.fail("timed a set-up"))
    monkeypatch.setattr(abtest, "_speed", lambda: None)
    # a typo, and a metric that is reported but is not a count
    with pytest.raises(SystemExit) as exc:
        abtest.main(["--parent", "HEAD", "--moved", "gf.mul.calls_per_item",
                     "--moved", "gf.mull.calls_per_item", "--moved", "plane.x.self_ms"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--moved gf.mull.calls_per_item, plane.x.self_ms: no trace reports such a count" in err
    # refused after the two traced runs, before any timed run
    assert calls == [1, 1]


def test_abtest_takes_several_names_per_flag_and_repeated_flags(monkeypatch, capsys, tmp_path):
    # ``--workload classify words`` and ``--workload classify --workload
    # words`` are the same request, and so for ``--moved``; a bad name
    # among several is still refused
    abtest = _load_abtest(monkeypatch)
    monkeypatch.setattr(abtest, "ROOT", tmp_path)
    spec = dict(AB_SPEC, workloads=[{"name": n} for n in ("census", "classify", "words")])
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    traced = []

    def fake_perfbench(tree, workload, seed, seconds, trace):
        if trace:
            traced.append(workload)
        counts = {n: (1.0, "count") for n in ("a.calls", "b.calls", "c.calls")}
        return _canned_run(dict(counts, items_per_s=(100.0, "1/s"), peak_rss_mb=(30.0, "MB")))

    monkeypatch.setattr(abtest, "extract", lambda rev, dest: f"tree-{rev}")
    monkeypatch.setattr(abtest, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(abtest, "setup_seconds", lambda *args: 0.1)
    monkeypatch.setattr(abtest, "_speed", lambda: None)
    code = abtest.main(["--parent", "f00d", "--change", "c0ffee", "--pairs", "1",
                        "--workload", "words", "census", "--workload", "classify",
                        "--moved", "a.calls", "b.calls", "--moved", "c.calls"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and list(report["workloads"]) == ["words", "census", "classify"]
    assert traced == ["words", "words", "census", "census", "classify", "classify"]
    assert report["moved"] == ["a.calls", "b.calls", "c.calls"]
    with pytest.raises(SystemExit) as exc:
        abtest.main(["--parent", "f00d", "--workload", "classify", "clasify"])
    assert exc.value.code == 2 and "invalid choice: 'clasify'" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,least", [("--pairs", "0", 1), ("--seed", "-1", 0)])
def test_abtest_refuses_too_few_runs(monkeypatch, capsys, flag, value, least):
    abtest = _load_abtest(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        abtest.main(["--parent", "HEAD", flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be >= {least}, got {value}" in capsys.readouterr().err
