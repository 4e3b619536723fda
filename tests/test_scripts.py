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


def test_committed_mutants_are_not_stale():
    # an edit that removes or repeats a mutant's old text must update the list
    script = _load_script("mutants")
    assert script.stale(script.MUTANTS) == []
