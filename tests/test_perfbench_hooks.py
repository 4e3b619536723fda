"""The benchmark traces library functions by name (``perfbench/worker.py``
``install``) and its workloads call library names, fields and report
attributes (``perfbench/workloads.py``); renaming or deleting one of them
breaks ``perfbench/run.py``.  These tests install the benchmark's tracer
over the library and remove it again, and run each workload's first item,
so such a change fails here first.  The census and classify output digests
are pinned here, as the words digest is in ``test_untwist.py``."""

import hashlib
import json
import os
import sys

import pytest

from sbuntwist.gf import FiniteField

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import worker

    modules = [mod for name, mod in sys.modules.items() if name.startswith("sbuntwist")]
    modules.append(worker.workloads)
    before = [dict(vars(mod)) for mod in modules]
    methods = dict(FiniteField.__dict__)
    tracer = tracing.Tracer(modules)
    try:
        worker.install(tracer)
    finally:
        tracer.uninstall()
    for mod, saved in zip(modules, before):
        assert all(vars(mod)[k] is v for k, v in saved.items()), mod.__name__
    assert all(FiniteField.__dict__[k] is v for k, v in methods.items())


def test_every_workload_builds_and_checks_its_first_item(monkeypatch):
    # names the tracer does not patch: plane.EXPECTED_LINE_COUNTS,
    # ConfigCase.*.case_id, rep.samples, rep.mismatches, ...
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        workload = cls(1)
        assert workload.once() is None, name
        item = workload.items[0]
        assert workload.check(item, workload.run(item)) is None, name


# the span each workload's item must record under the tracer
TRACED_SPANS = {
    "census": "plane.general_position_report",
    "classify": "plane.classify_configuration",
    "words": "untwist.untwist",
}


def test_every_workload_runs_its_first_item_traced(monkeypatch):
    # a traced item runs the wrappers' measure lambdas, which read library
    # results (Factorization.trace for untwist.untwist); untraced runs do not
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import worker

    assert set(TRACED_SPANS) == set(worker.workloads.WORKLOADS)
    for name, cls in worker.workloads.WORKLOADS.items():
        workload = cls(1)
        item = workload.items[0]
        modules = [mod for mod_name, mod in sys.modules.items() if mod_name.startswith("sbuntwist")]
        tracer = tracing.Tracer(modules + [worker.workloads])
        try:
            worker.install(tracer)
            tracer.begin_phase("items")
            assert workload.check(item, workload.run(item)) is None, name
            tracer.end_phase()
        finally:
            tracer.uninstall()
        assert tracer.totals["items"][TRACED_SPANS[name]][0] > 0, name
        if name == "words":
            assert tracer.phase_counts["items"]["untwist.untwist#measure"] > 0


@pytest.mark.parametrize(
    "name, digest",
    [
        ("census", "sha256:10338e083c3726c3eb9123e5fe4fde475588c97004cd645aaaef43654a5eaa9b"),
        ("classify", "sha256:801e9b582cc4716c0af2f38e3a4291705a85f80cfb100ba520a6b68caf28527b"),
    ],
    ids=["census", "classify"],
)
def test_the_census_and_classify_benchmark_digests_are_pinned(monkeypatch, name, digest):
    # each workload's output digest at seed 1, as perfbench/run.py reports
    # it: the census pins every sample's hits and collinear cases, and the
    # classify pin tells apart cases 5 and 7, which both force 11 lines
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    workload = workloads.WORKLOADS[name](1)
    lines = [json.dumps(workload.summary(item, workload.run(item))) for item in workload.items]
    assert "sha256:" + hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
