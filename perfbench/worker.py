"""Runs one workload in one fresh process; started by ``perfbench/run.py``.

The process does its set-up (imports, field construction, input pool and,
for ``classify``, the witness table), prints ``READY`` so the parent can
time set-up from process start, then runs the timed region and prints one
JSON object as its last line.  ``gf.field`` and ``verify.case_witness``
are per-process caches, so each fresh process pays them exactly once, as a
CLI invocation does.

Untraced (default): end-to-end metrics, scaled to the reference speed of
``speed.py``.  ``--trace``: raw per-layer metrics from passes with the
tracer installed, alternating with untraced passes that give the tracing
overhead.  ``--setup-only`` exits after ``READY``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, reference_kernel  # noqa: E402
from workloads import cycles, gf, plane, untwist, verify  # noqa: E402

curves = importlib.import_module("sbuntwist.curves")
links = importlib.import_module("sbuntwist.links")

clock = time.perf_counter


class Run:
    """Latencies, first-pass results and failures of the passes made."""

    def __init__(self, wl, seed):
        self.wl = wl
        # Each pass visits the pool in a fresh order, so the median over
        # passes does not carry one fixed predecessor's effect on an item.
        self.order_rng = random.Random(seed)
        self.order = list(range(len(wl.items)))
        self.raw = [[] for _ in wl.items]
        self.scaled = [[] for _ in wl.items]
        self.results = [None] * len(wl.items)
        self.failures = []
        self.attempted = 0
        self.kernel_s = 0.0
        self.kernel_runs = 0

    def fail(self, where, problem):
        self.failures.append(f"{where}: {problem}")

    def run_pass(self, tracer=None):
        """One pass over the pool.  Untraced passes time the reference loop
        before each item and keep both raw and scaled latencies; traced
        passes are left raw."""
        wl = self.wl
        self.order_rng.shuffle(self.order)
        for idx in self.order:
            item = wl.items[idx]
            if tracer is not None:
                tracer.item = idx
            else:
                t0 = clock()
                reference_kernel()
                ref = clock() - t0
                self.kernel_s += ref
                self.kernel_runs += 1
            self.attempted += 1
            t0 = clock()
            try:
                out = wl.run(item)
            except Exception as exc:  # any raise is a failed item, named below
                self.fail(f"item {idx} ({wl.describe(item)})", f"raised {type(exc).__name__}: {exc}")
                continue
            latency = clock() - t0
            self.raw[idx].append(latency)
            if tracer is None:
                self.scaled[idx].append(latency * REFERENCE_S / ref)
            problem = wl.check(item, out)
            if problem is None:
                summary = json.dumps(wl.summary(item, out))
                if self.results[idx] is None:
                    self.results[idx] = summary
                elif self.results[idx] != summary:
                    problem = "result differs from the item's first pass"
            if problem is not None:
                self.fail(f"item {idx} ({wl.describe(item)})", problem)
        if tracer is not None:
            tracer.item = -1

    def digest(self):
        text = "\n".join(r or "" for r in self.results)
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()

    def report(self, metrics, notes):
        if self.failures:
            print(
                f"{self.wl.__class__.__name__.lower()}: {len(self.failures)} failed; "
                f"first {self.failures[0]}",
                file=sys.stderr,
            )
        notes.update(digest=self.digest(), failures=self.failures[:5], pool=len(self.wl.items))
        print(
            json.dumps(
                {
                    "correct": not self.failures,
                    "attempted": self.attempted,
                    "failed": len(self.failures),
                    "metrics": metrics,
                    "notes": notes,
                }
            )
        )
        return 0 if not self.failures else 1


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def latency_profile(latencies):
    """(p50 ms, tail ms, items, items beyond the tail) over the pool, where
    an item's latency is the median of its passes and the tail is the
    highest percentile with ten items beyond it."""
    per_item = sorted(statistics.median(lat) for lat in latencies if lat)
    n = len(per_item)
    beyond = min(10, n - 1)
    return statistics.median(per_item) * 1e3, per_item[n - 1 - beyond] * 1e3, n, beyond


def untraced(wl, seed, seconds):
    run = Run(wl, seed)
    start = clock()
    problem = wl.once()
    if problem is not None:
        run.fail("once-per-run scan", problem)
    passes = 0
    while True:
        run.run_pass()
        passes += 1
        if run.failures or clock() - start >= seconds:
            break
    # The reference loops are not part of the timed work.
    work_s = clock() - start - run.kernel_s
    speed = REFERENCE_S * run.kernel_runs / run.kernel_s

    p50, tail, n, beyond = latency_profile(run.scaled)
    raw_p50, raw_tail, _, _ = latency_profile(run.raw)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "items_per_s": metric(run.attempted / (work_s * speed), "1/s", run.attempted),
        "item_p50_ms": metric(p50, "ms", n),
        "item_tail_ms": metric(tail, "ms", n),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
    }
    notes = {
        "passes": passes,
        "work_s": work_s,
        "speed_factor": speed,
        "raw_items_per_s": run.attempted / work_s,
        "raw_item_p50_ms": raw_p50,
        "raw_item_tail_ms": raw_tail,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
        "failed_frac": len(run.failures) / run.attempted,
    }
    return run.report(metrics, notes)


# --- tracing -----------------------------------------------------------------

SPANS = (
    plane.sample_closed_point,
    plane.general_position_report,
    plane.classify_configuration,
    plane.connecting_lines,
    plane.sample_configuration,
    verify.scan_closed_points,
    verify.case_witness,
    verify.scan_phi3,
    verify.scan_phi6,
    curves.phi6_decomposition_push,
    cycles.noether_check,
    links.push,
    untwist.random_chain,
)
COUNTERS = (
    plane.collinear,
    plane.on_common_conic,
    plane.line_through,
    plane.incident,
    curves.quad_transform_push,
)
GF_COUNTED = ("mul", "inv", "frobenius", "add", "sub")


def layer_name(fn):
    return fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__


def fresh_or_centred(args, kwargs):
    centre = args[1] if len(args) > 1 else kwargs.get("center_id")
    return "links.fresh_push" if centre is None else "links.centred_push"


def install(tracer):
    F = gf.FiniteField
    for op in GF_COUNTED:
        tracer.patch_method(F, op, tracer.counter(f"gf.{op}", F.__dict__[op]))
    tracer.patch_method(
        F, "random_element", tracer.counter("gf.random_element", F.random_element, by_parent=True)
    )
    for fn in SPANS:
        tracer.patch_function(fn, tracer.span(layer_name(fn), fn))
    for fn in COUNTERS:
        tracer.patch_function(fn, tracer.counter(layer_name(fn), fn))
    tracer.patch_function(
        plane.frobenius_orbit,
        tracer.counter("plane.frobenius_orbit", plane.frobenius_orbit, by_parent=True),
    )
    tracer.patch_function(
        cycles.max_multiplicity_orbit,
        tracer.span(
            "cycles.max_multiplicity_orbit",
            cycles.max_multiplicity_orbit,
            measure=lambda args, _: len(args[0].orbits),
        ),
    )
    tracer.patch_function(
        untwist.untwist,
        tracer.span(
            "untwist.untwist",
            untwist.untwist,
            measure=lambda _, fact: sum(len(c.orbits) for c in fact.trace),
        ),
    )
    for fn in (links.phi3_push, links.phi6_push):
        tracer.patch_function(fn, tracer.span(fresh_or_centred, fn))
    tracer.patch_function(
        workloads.render_document,
        tracer.span("cli.render_cycle_document", workloads.render_document),
    )
    tracer.patch_function(
        workloads.parse_document,
        tracer.span("cli.parse_cycle_document", workloads.parse_document),
    )


def gf_ns_per_call(seed):
    """Nanoseconds per public FiniteField call on fixed seeded elements,
    the median of five samples of at least 20 ms each."""
    rng = random.Random(seed)
    out = {}
    for p, m, ops in ((13, 6, ("mul", "inv", "frobenius")), (11, 1, ("mul", "inv"))):
        F = gf.field(p, m)
        elems = []
        while len(elems) < 64:
            a = F.random_element(rng)
            if a != F.zero:
                elems.append(a)
        pairs = list(zip(elems, elems[1:] + elems[:1]))
        for op in ops:
            fn = getattr(F, op)
            samples = []
            for _ in range(5):
                calls = 0
                t0 = time.perf_counter_ns()
                while True:
                    if op == "mul":
                        for a, b in pairs:
                            fn(a, b)
                    else:
                        for a in elems:
                            fn(a)
                    calls += len(elems)
                    elapsed = time.perf_counter_ns() - t0
                    if elapsed >= 20_000_000:
                        break
                samples.append(elapsed / calls)
            out[f"gf.{op}_ns.p{p}m{m}"] = statistics.median(samples)
    return out


def traced(cls, seed, seconds):
    gf_ns = gf_ns_per_call(seed)
    modules = [mod for name, mod in sys.modules.items() if name.startswith("sbuntwist")]
    tracer = tracing.Tracer(modules + [workloads])
    install(tracer)
    tracer.begin_phase("setup")
    wl = cls(seed)
    tracer.end_phase()
    print("READY", flush=True)

    run = Run(wl, seed)
    start = clock()
    tracer.begin_phase("once")
    problem = wl.once()
    tracer.end_phase()
    if problem is not None:
        run.fail("once-per-run scan", problem)
    plain, traced_walls = [], []
    while True:
        tracer.uninstall()
        t0, kernel_s = clock(), run.kernel_s
        run.run_pass()
        plain.append(clock() - t0 - (run.kernel_s - kernel_s))
        install(tracer)
        tracer.begin_phase("items")
        t0 = clock()
        run.run_pass(tracer)
        traced_walls.append(clock() - t0)
        tracer.end_phase()
        if run.failures or clock() - start >= seconds:
            break
    tracer.uninstall()

    items = len(traced_walls) * len(wl.items)
    counts = tracer.phase_counts["items"]
    once_counts = tracer.phase_counts["once"]

    def row(phase, name):
        """[calls, total_ns, self_ns] of a span name in a phase."""
        return tracer.totals[phase].get(name, (0, 0, 0))

    def per_item(value, unit="count"):
        return metric(value / items, unit, items)

    def calls(name):
        return per_item(counts[name])

    def span_calls(name):
        return per_item(row("items", name)[0])

    def self_ms(name):
        return per_item(row("items", name)[2] / 1e6, "ms")

    def ratio(accepted, attempts):
        return metric(accepted / attempts if attempts else 0.0, "ratio", attempts)

    orbits_sampled = counts[("plane.frobenius_orbit", "plane.sample_closed_point")]
    draws = counts[("gf.random_element", "plane.sample_configuration")] // 3
    metrics = {
        "gf.mul.calls_per_item": calls("gf.mul"),
        "gf.inv.calls_per_item": calls("gf.inv"),
        "gf.frobenius.calls_per_item": calls("gf.frobenius"),
        "gf.addsub.calls_per_item": per_item(counts["gf.add"] + counts["gf.sub"]),
    }
    metrics.update((name, metric(ns, "ns", 5)) for name, ns in gf_ns.items())
    metrics.update(
        {
            "plane.sample_closed_point.self_ms": self_ms("plane.sample_closed_point"),
            "plane.sample_closed_point.accept_ratio": ratio(
                row("items", "plane.sample_closed_point")[0], orbits_sampled
            ),
            "plane.general_position_report.self_ms": self_ms("plane.general_position_report"),
            "plane.collinear.calls_per_item": calls("plane.collinear"),
            "plane.on_common_conic.calls_per_item": calls("plane.on_common_conic"),
            "plane.classify_configuration.self_ms": self_ms("plane.classify_configuration"),
            "plane.connecting_lines.self_ms": self_ms("plane.connecting_lines"),
            "plane.line_through.calls_per_item": calls("plane.line_through"),
            "plane.incident.calls_per_item": calls("plane.incident"),
            "plane.sample_configuration.self_ms": self_ms("plane.sample_configuration"),
            "plane.sample_configuration.accept_ratio": ratio(
                6 * row("items", "plane.sample_configuration")[0], draws
            ),
            "verify.scan_closed_points.self_ms": self_ms("verify.scan_closed_points"),
            "verify.case_witness.s": metric(row("setup", "verify.case_witness")[1] / 1e9, "s", 1),
            "verify.scan_phi3.s": metric(row("once", "verify.scan_phi3")[1] / 1e9, "s", 1),
            "verify.scan_phi6.s": metric(row("once", "verify.scan_phi6")[1] / 1e9, "s", 1),
            "curves.quad_transform_push.calls": metric(
                once_counts["curves.quad_transform_push"], "count", 1
            ),
            "curves.phi6_decomposition_push.self_s": metric(
                row("once", "curves.phi6_decomposition_push")[2] / 1e9, "s", 1
            ),
            "cycles.max_multiplicity_orbit.calls_per_item": span_calls(
                "cycles.max_multiplicity_orbit"
            ),
            "cycles.max_multiplicity_orbit.orbits_scanned_per_item": calls(
                "cycles.max_multiplicity_orbit#measure"
            ),
            "cycles.max_multiplicity_orbit.self_ms": self_ms("cycles.max_multiplicity_orbit"),
            "cycles.noether_check.self_ms": self_ms("cycles.noether_check"),
            "links.push.calls_per_item": span_calls("links.push"),
            "links.push.self_ms": self_ms("links.push"),
            "links.fresh_push.self_ms": self_ms("links.fresh_push"),
            "untwist.untwist.self_ms": self_ms("untwist.untwist"),
            "untwist.random_chain.self_ms": self_ms("untwist.random_chain"),
            "untwist.trace_orbit_refs_per_item": calls("untwist.untwist#measure"),
            "cli.parse_cycle_document.self_ms": self_ms("cli.parse_cycle_document"),
            "cli.render_cycle_document.self_ms": self_ms("cli.render_cycle_document"),
            "trace.overhead_frac": metric(
                statistics.median(traced_walls) / statistics.median(plain) - 1.0,
                "ratio",
                len(plain),
            ),
        }
    )
    notes = {"traced_passes": len(traced_walls), "untraced_passes": len(plain)}
    return run.report(metrics, notes)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        return traced(cls, args.seed, args.seconds)
    wl = cls(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    return untraced(wl, args.seed, args.seconds)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except workloads.GateFailure as exc:
        print(f"set-up check failed: {exc}", file=sys.stderr)
        sys.exit(1)
