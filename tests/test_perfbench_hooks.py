"""The benchmark traces library functions by name (``perfbench/worker.py``
``install``) and its workloads call library names, fields and report
attributes (``perfbench/workloads.py``); renaming or deleting one of them
breaks ``perfbench/run.py``.  These tests install the benchmark's tracer
over the library and remove it again, and run each workload's first item,
so such a change fails here first."""

import os
import sys

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
