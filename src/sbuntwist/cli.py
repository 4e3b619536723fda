"""Command-line interface.

Cycle data travels as a JSON document: {"label": "gamma"|"gamma_inv",
"d": int, "orbits": [{"degree": int, "mult": int}, ...],
"declared_target": optional label}.  Orbit ids are assigned positionally
(x1, x2, ...) on parse, in document order.

Exit codes: 0 success, 1 mathematical failure or violation, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .cycles import (
    BrauerLabel,
    CycleClass,
    Orbit,
    arithmetic_genus,
    noether_check,
    self_intersection,
)
from .gf import field
from .links import (
    DegenerateImage,
    Link,
    LinkKind,
    UnsupportedDegree,
    WrongDegree,
    push,
)
from .untwist import (
    Factorization,
    InconsistentCycle,
    NonTermination,
    ParityContradiction,
    untwist,
)
from .verify import (
    DEFAULT_DMAX, census_failures, scan_closed_points, scan_phi3, scan_phi6, scan_table
)

LABELS = {label.value: label for label in BrauerLabel}


class DocumentError(Exception):
    """Parse failure; the message names the offending field."""


def _max_int_bits() -> int:
    """Bits allowed in d, a degree or a mult: ``check`` prints sums of
    degree * mult^2, so a third of the bits that ``str`` converts under
    ``sys.get_int_max_str_digits()`` (log2 10 = 3.3219...), less 64 for the sum."""
    digits = sys.get_int_max_str_digits()  # 0 turns the limit off
    return (digits * 3321928 // 10**6 - 64) // 3 if digits else sys.maxsize


def _shown(value: object) -> str:
    """``repr`` for a parse message, but an int past the size bound shows
    its bit count, and a value whose ``repr`` raises (as it does on ints
    past the int-string limit, also inside a container) shows its type."""
    if isinstance(value, int) and value.bit_length() > _max_int_bits():
        return f"{value.bit_length()}-bit integer"
    try:
        return repr(value)
    except (ValueError, RecursionError):
        return f"a {type(value).__name__} too large to print"


def _label(name: str, raw: object) -> BrauerLabel:
    if not isinstance(raw, str) or raw not in LABELS:
        raise DocumentError(f"field {name!r}: expected one of {sorted(LABELS)}, got {_shown(raw)}")
    return LABELS[raw]


def parse_cycle_document(data: object) -> tuple[CycleClass, Optional[BrauerLabel]]:
    if not isinstance(data, dict):
        raise DocumentError("document: expected a JSON object")
    known = {"label", "d", "orbits", "declared_target"}
    # str keys, all that JSON gives, in their own order; then any other by its shown form
    order = lambda k: (not isinstance(k, str), k if isinstance(k, str) else _shown(k))  # noqa: E731
    for key in sorted(set(data) - known, key=order):
        raise DocumentError(f"field {_shown(key)}: unknown field")

    label = _label("label", data.get("label"))
    d = data.get("d")
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise DocumentError(f"field 'd': expected an integer >= 1, got {_shown(d)}")
    bits = _max_int_bits()  # sizes by bit_length(), after the range checks
    if d.bit_length() > bits:
        raise DocumentError(f"field 'd': {d.bit_length()}-bit integer, at most {bits} bits")

    orbits = []
    raw_orbits = data.get("orbits", [])
    if not isinstance(raw_orbits, list):
        raise DocumentError(f"field 'orbits': expected a list, got {_shown(raw_orbits)}")
    for i, rec in enumerate(raw_orbits):
        if not isinstance(rec, dict) or set(rec) != {"degree", "mult"}:
            raise DocumentError(
                f"field 'orbits[{i}]': expected an object with 'degree' and 'mult'"
            )
        degree, mult = rec["degree"], rec["mult"]
        if not isinstance(degree, int) or isinstance(degree, bool) or degree < 3 or degree % 3:
            raise DocumentError(
                f"field 'orbits[{i}].degree': expected a positive multiple of 3, "
                f"got {_shown(degree)}"
            )
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise DocumentError(
                f"field 'orbits[{i}].mult': expected a non-negative integer, got {_shown(mult)}"
            )
        if degree.bit_length() > bits or mult.bit_length() > bits:
            key, value = ("degree", degree) if degree.bit_length() > bits else ("mult", mult)
            raise DocumentError(
                f"field 'orbits[{i}].{key}': {value.bit_length()}-bit integer, at most {bits} bits"
            )
        orbits.append(Orbit(f"x{i + 1}", degree, mult))

    declared = None
    if "declared_target" in data:
        declared = _label("declared_target", data["declared_target"])
    return CycleClass(label, d, tuple(orbits)), declared


def render_cycle_document(
    cycle: CycleClass, declared_target: Optional[BrauerLabel] = None
) -> dict:
    """Canonical document form: orbits sorted by descending multiplicity,
    then ascending degree; multiplicity-0 orbits dropped."""
    orbits = sorted(
        cycle.normalized().orbits,
        key=lambda o: (-o.multiplicity, o.degree),
    )
    doc = {
        "label": cycle.label.value,
        "d": cycle.d,
        "orbits": [{"degree": o.degree, "mult": o.multiplicity} for o in orbits],
    }
    if declared_target is not None:
        doc["declared_target"] = declared_target.value
    return doc


def _load(path: str) -> tuple[CycleClass, Optional[BrauerLabel]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad bytes, bad JSON or an int over the int-string limit;
        # RecursionError: the decoder recurses once per level of nesting
        raise DocumentError(f"invalid JSON in {path!r}: {exc}") from exc
    return parse_cycle_document(data)


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_check(args: argparse.Namespace) -> int:
    cycle, _ = _load(args.file)
    report = noether_check(cycle)
    genus = arithmetic_genus(cycle)
    if args.format == "machine":
        _emit(
            {
                **render_cycle_document(cycle),
                "e2": report.e2,
                "e3": report.e3,
                "e4": report.e4,
                "e5": report.e5,
                "self_intersection": report.self_intersection,
                "anticanonical_degree": report.anticanonical_degree,
                "genus": genus,
                "consistent": report.consistent,
            }
        )
    else:
        verdict = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
        print(f"label: {cycle.label.value}   d: {cycle.d}")
        shown = [f"{o.id} (degree {o.degree}, mult {o.multiplicity})" for o in cycle.orbits]
        print(f"orbits: {'; '.join(shown) if shown else '(none)'}")
        print(f"E2 self-intersection equals 9:          {verdict(report.e2)} "
              f"({report.self_intersection})")
        print(f"E3 anticanonical degree equals 9:       {verdict(report.e3)} "
              f"({report.anticanonical_degree})")
        print(f"E4 maximal multiplicity reaches d+1:    {verdict(report.e4)}")
        print(f"E5 maximal orbit degree in {{3, 6}}:      {verdict(report.e5)}")
        print(f"arithmetic genus: {genus}")
    return 0 if report.consistent else 1


def _cmd_push(args: argparse.Namespace) -> int:
    cycle, declared = _load(args.file)
    if args.center is not None and cycle.find(args.center) is None:
        return _usage_error(
            f"no orbit with id {args.center!r} in the input cycle "
            f"(ids: {[o.id for o in cycle.orbits] or 'none'})"
        )
    try:
        out, link = push(cycle, args.center, LinkKind(args.kind))
    except (WrongDegree, DegenerateImage) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1
    doc = render_cycle_document(out, declared)
    if args.format == "machine":
        _emit({"cycle": doc, "link": _link_doc(link)})
    else:
        _emit(doc)
    return 0


_UNTWIST_ERRORS = {
    InconsistentCycle: "inconsistent_cycle",
    ParityContradiction: "parity_contradiction",
    UnsupportedDegree: "unsupported_degree",
    NonTermination: "non_termination",
}


def _cmd_untwist(args: argparse.Namespace) -> int:
    cycle, declared = _load(args.file)
    if args.target is not None:
        declared = LABELS[args.target]
    try:
        fact = untwist(cycle, declared)
    except tuple(_UNTWIST_ERRORS) as exc:
        kind = _UNTWIST_ERRORS[type(exc)]
        if args.format == "machine":
            _emit({"error": kind, "message": str(exc)})
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return 1
    if args.format == "machine":
        _emit(_factorization_doc(fact))
    else:
        print(f"initial: {fact.initial.label.value}, d = {fact.initial.d}")
        if fact.steps:
            for i, (link, d) in enumerate(zip(fact.steps, fact.d_trace[1:]), 1):
                print(
                    f"  step {i}: {link.kind.value} at {link.center_id}"
                    f"  ->  d = {d}, label {link.target_label.value}"
                )
        else:
            print("  (empty word)")
        print(f"d-trace: {' -> '.join(str(d) for d in fact.d_trace)}")
        print(f"parity: {fact.parity.value}")
        print(
            f"terminal: -omega on {fact.terminal.label.value} "
            f"(biregular automorphism)"
        )
    return 0


def _link_doc(link: Link) -> dict:
    return {
        "kind": link.kind.value,
        "center_id": link.center_id,
        "image_orbit_id": link.image_orbit_id,
        "source_label": link.source_label.value,
        "target_label": link.target_label.value,
    }


def _factorization_doc(fact: Factorization) -> dict:
    return {
        "initial": render_cycle_document(fact.initial),
        "steps": [_link_doc(link) for link in fact.steps],
        "d_trace": list(fact.d_trace),
        "parity": fact.parity.value,
        "terminal_label": fact.terminal.label.value,
    }


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = args.mode
    sampling = mode in ("lemma3", "table")
    # a flag the mode does not read is refused rather than silently ignored
    for flag in ("dmax",) if sampling else ("prime", "seed", "samples"):
        if getattr(args, flag) is not None:
            return _usage_error(f"--{flag} does not apply to --mode {mode}")
    if sampling:
        if args.prime is None:
            return _usage_error("--prime is required for this mode")
        if args.seed is None:
            return _usage_error("--seed is required for randomized modes")
        # bounded before the O(sqrt(p)) primality test, which would spin
        # for minutes on a prime near 2**61
        if args.prime >= 2**31:
            return _usage_error(f"--prime must be below 2**31, got {args.prime}")
        try:
            field(args.prime, 1)
        except ValueError as exc:
            return _usage_error(f"--prime: {exc}")
        if args.samples is None:
            args.samples = 100
        if args.samples < 1:
            return _usage_error(f"--samples must be >= 1, got {args.samples}")
    else:
        if args.dmax is None:
            args.dmax = DEFAULT_DMAX
        if args.dmax < 1:
            return _usage_error(f"--dmax must be >= 1, got {args.dmax}")

    if mode in ("oracle-phi3", "oracle-phi6"):
        report = (scan_phi3 if mode == "oracle-phi3" else scan_phi6)(args.dmax)
        detail = {"mode": mode, "checked": report.checked, "violations": report.violations,
                  "first_mismatch": report.first_mismatch}
    elif mode == "lemma3":
        report = scan_closed_points(args.prime, args.samples, args.seed)
        detail = {
            "mode": mode,
            "prime": report.prime,
            "checked": report.checked,
            "violations": report.violations,
            "collinear_hits": report.collinear_hits,
            "conic_hits": report.conic_hits,
            "collinear_case_breakdown": dict(report.case_breakdown),
            "failures": census_failures(report),
        }
    else:  # table
        report = scan_table(args.prime, args.samples, args.seed)
        detail = {
            "mode": mode,
            "q": report.q,
            "checked": report.checked,
            "violations": report.violations,
            "unclassifiable": report.unclassifiable,
            "first_failure": report.first_failure,
            "witnesses": [
                {
                    "case": w.case_id,
                    "realized": w.realized,
                    "lines": w.line_count,
                    "expected": w.expected_count,
                }
                for w in report.witnesses
            ],
        }

    if args.format == "machine":
        _emit(detail)
    else:
        print(f"mode: {mode}")
        for key, value in detail.items():
            if key == "failures":
                for failure in value:
                    print(f"  failure: {failure}")
            elif key != "mode":
                print(f"  {key}: {value}")
        print("result: " + ("ok" if report.ok else "VIOLATIONS FOUND"))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbuntwist",
        description=(
            "Exact cycle calculus for birational maps between Severi-Brauer "
            "surfaces: invariant checks, elementary links, untwisting, and "
            "finite-field oracle scans."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("text", "machine"),
            default="text",
            help="human-readable table or one-line machine JSON",
        )

    p_check = sub.add_parser("check", help="evaluate the Noether relations")
    p_check.add_argument("file", help="cycle document (JSON)")
    add_format(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_push = sub.add_parser("push", help="apply one elementary link")
    p_push.add_argument("file", help="cycle document (JSON)")
    p_push.add_argument("--kind", choices=[kind.value for kind in LinkKind], required=True)
    p_push.add_argument(
        "--center",
        help="orbit id to push at (assigned x1, x2, ... in document order); "
        "omit for a fresh multiplicity-0 center",
    )
    add_format(p_push)
    p_push.set_defaults(func=_cmd_push)

    p_untwist = sub.add_parser("untwist", help="factor into elementary links")
    p_untwist.add_argument("file", help="cycle document (JSON)")
    p_untwist.add_argument(
        "--target",
        choices=sorted(LABELS),
        help="declared landing family (defaults to the document's "
        "declared_target, then to the source label)",
    )
    add_format(p_untwist)
    p_untwist.set_defaults(func=_cmd_untwist)

    p_verify = sub.add_parser("verify", help="run a plane-oracle scan")
    p_verify.add_argument(
        "--mode",
        choices=("oracle-phi3", "oracle-phi6", "lemma3", "table"),
        required=True,
    )
    p_verify.add_argument("--prime", type=int, help="field characteristic")
    p_verify.add_argument(
        "--samples", type=int, help="sample count for randomized modes (default 100)"
    )
    p_verify.add_argument("--seed", type=int, help="RNG seed (required when sampling)")
    p_verify.add_argument(
        "--dmax", type=int, help=f"grid bound for the oracle-phi* modes (default {DEFAULT_DMAX})"
    )
    add_format(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        return _usage_error(str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
