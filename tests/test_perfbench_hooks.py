"""The benchmark traces library functions by name (``perfbench/worker.py``
``install``); renaming or deleting one of them breaks ``--trace`` runs.
This installs the benchmark's tracer over the library and removes it again,
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
