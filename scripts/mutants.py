#!/usr/bin/env python3
"""Mutation checks: every mutant in ``MUTANTS`` must fail its tests.

A mutant names a file, an exact old text, the text that replaces it and a
pytest selection.  The run first requires every old text to occur exactly
once in its file of this tree, so a mutant that a later edit made stale
fails the run before any test starts.  It then copies ``src/``, ``tests/``,
``scripts/``, ``perfbench/`` and ``pyproject.toml`` to a temporary
directory and runs every selection on the clean copy, which must pass
them all.  Then, for each mutant, it applies the mutant to a fresh copy
and runs ``python -m pytest -q -x <selection>`` there under a timeout of
``TIMEOUT_S`` seconds.  The mutant is killed when pytest exits 1 (a test
failed); it survives when pytest passes; a run that reaches the timeout is
reported as a hang (a test that spins on a broken routine instead of
failing); any other exit is a crash: a signal (an out-of-memory kill reads
-9) or pytest's own errors, 2 to 5 (interrupted, internal error, usage
error, no tests collected), none of which shows a test catching the mutant.

Exit status: 0 when every mutant is killed; 1 on a stale mutant, a clean
copy that fails a selection, a surviving mutant, a hang or a crash.  A
new mutation check goes into ``MUTANTS``, with the narrowest selection
that kills it.

Usage: python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TREE = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    selection: tuple[str, ...]


LINKS, CYCLES, CLI = "src/sbuntwist/links.py", "src/sbuntwist/cycles.py", "src/sbuntwist/cli.py"
UNTWIST = "src/sbuntwist/untwist.py"
GF, PLANE = "src/sbuntwist/gf.py", "src/sbuntwist/plane.py"

MUTANTS = (
    Mutant("image multiplicity d' - t", LINKS,
           "m2 = d2 + t\n", "m2 = d2 - t\n", ("tests/test_links.py",)),
    Mutant("image degree on (n-1) t", LINKS,
           "d2 = d + (n - 2) * t\n", "d2 = d + (n - 1) * t\n", ("tests/test_links.py",)),
    Mutant("fresh image multiplicity d'", LINKS,
           "m2 = d2 + d\n", "m2 = d2\n", ("tests/test_links.py",)),
    Mutant("trusted image of degree 3", LINKS,
           "tuple.__new__(Orbit, (image_id, n, m2))", "tuple.__new__(Orbit, (image_id, 3, m2))",
           ("tests/test_links.py",)),
    # a negative image multiplicity passes, so d can grow; untwist's check
    # that d falls must end the run instead of a hang
    Mutant("negative image multiplicity accepted", LINKS,
           "if d2 < 1 or m2 < 0:", "if d2 < 1:",
           ("tests/test_untwist.py", "-k", "termination_lemma")),
    Mutant("fresh-id counter recomputed from the current orbits", LINKS,
           "    def _fresh(self) -> str:\n        while True:\n",
           "    def _fresh(self) -> str:\n"
           "        digits = [m[1] for m in map(_ID_PATTERN.match, self.orbits) if m]\n"
           "        self._counter = max(map(int, digits), default=0) + 1\n"
           "        while True:\n",
           ("tests/test_untwist.py", "-k", "engine_matches_reference_on_chains")),
    Mutant("fresh-id counter from the last x<k> id", LINKS,
           "max(map(int, digits), default=0) + 1", "int(digits[-1]) + 1 if digits else 1",
           ("tests/test_links.py", "-k", "fresh_ids_start_past")),
    Mutant("no degree check at an existing center", LINKS,
           "if center.degree != n:", "if False:",
           ("tests/test_links.py", "-k", "dispatch_and_guards")),
    Mutant("untwist pushes every center as phi3", UNTWIST,
           "step(KIND_BY_DEGREE[n], center_id)", "step(LinkKind.PHI3, center_id)",
           ("tests/test_untwist.py", "-k", "engine_matches_reference_on_chains")),
    Mutant("random_chain draw masked to one bit", UNTWIST,
           "        while r >= 2:\n            r = draw(2)\n", "        r &= 1\n",
           ("tests/test_untwist.py", "-k", "draws_kinds_as_choice_does")),
    Mutant("parsed degree and mult swapped", CLI,
           '(f"x{i + 1}", degree, mult)', '(f"x{i + 1}", mult, degree)',
           ("tests/test_untwist.py", "-k", "orbit_checks")),
    Mutant("greedy key on +b", CYCLES,
           "return (-orbit.multiplicity, orbit.degree,", "return (orbit.multiplicity, orbit.degree,",
           ("tests/test_cycles.py",)),
    Mutant("greedy key without its degree term", CYCLES,
           "return (-orbit.multiplicity, orbit.degree, len(orbit.id), orbit.id)",
           "return (-orbit.multiplicity, 0, len(orbit.id), orbit.id)",
           ("tests/test_cycles.py",)),
    Mutant("theta = 1", PLANE,
           "F.multiplier(_quadratic_element(F))", "F.multiplier(F.element(1))",
           ("tests/test_plane.py",)),
    Mutant("unreduced scalar product in mul", GF,
           "return tuple([c * y % p for y in b])", "return tuple([c * y for y in b])",
           ("tests/test_gf.py", "-k", "mul or inverse")),
    Mutant("unreduced sum in add", GF,
           "return tuple([(x + y) % p for x, y in zip(a, b)])",
           "return tuple([x + y for x, y in zip(a, b)])",
           ("tests/test_gf.py", "-k", "coordinatewise")),
    Mutant("unreduced difference in sub", GF,
           "return tuple([(x - y) % p for x, y in zip(a, b)])",
           "return tuple([x - y for x, y in zip(a, b)])",
           ("tests/test_gf.py", "-k", "coordinatewise")),
    Mutant("unscaled Euclid result", GF,
           "return tuple([x * scale % p for x in s1])", "return tuple(s1)",
           ("tests/test_gf.py", "-k", "inverse")),
    Mutant("Rabin's test without its coprimality condition", GF,
           "        if _pinv(h, f, p) is None:\n            return False\n", "",
           ("tests/test_gf.py", "-k", "rabin")),
    Mutant("1 counted as prime", GF,
           "return _prime_factors(n) == [n]", "return _prime_factors(n) in ([n], [])",
           ("tests/test_gf.py", "-k", "is_prime")),
    Mutant("Frobenius step to the (p+1)-th power", GF,
           "x, power = _ppowmod(x, p, f, p)", "x, power = _ppowmod(x, p + 1, f, p)",
           ("tests/test_gf.py", "-k", "conjugate or frobenius")),
    Mutant("every conjugate power squared", GF,
           "power = _mulmod(power, x, f, p)", "power = _mulmod(x, x, f, p)",
           ("tests/test_gf.py", "-k", "conjugate or frobenius")),
    Mutant("every regular row c x", GF,
           "rows.append(_mulmod(x, rows[-1], f, p))", "rows.append(_mulmod(x, c, f, p))",
           ("tests/test_gf.py", "-k", "regular or times")),
    # negating one coordinate of every line keeps the pair grouping, so
    # only the incidence tests, not the classifier, can see this one
    Mutant("one cross-product minor negated", PLANE,
           "sub(mul(u1, v2), mul(u2, v1)),", "sub(mul(u2, v1), mul(u1, v2)),",
           ("tests/test_plane.py", "-k", "collinear")),
    Mutant("products swapped between two minors", PLANE,
           "sub(mul(u1, v2), mul(u2, v1)),\n        sub(mul(u2, v0), mul(u0, v2)),",
           "sub(mul(u1, v2), mul(u2, v0)),\n        sub(mul(u2, v1), mul(u0, v2)),",
           ("tests/test_plane.py", "-k", "collinear")),
    # the two above act on the F_{p^m} minors (m >= 2); their twins below
    # act on the int minors of ``_line_key``, connecting_lines' F_p route,
    # checked directly against the ``FiniteField`` minors
    Mutant("one F_p cross-product minor negated", PLANE,
           "(u1 * v2 - u2 * v1) % p,", "(u2 * v1 - u1 * v2) % p,",
           ("tests/test_plane.py", "-k", "cross_equals_the_reference_minors")),
    Mutant("products swapped between two F_p minors", PLANE,
           "(u1 * v2 - u2 * v1) % p, (u2 * v0 - u0 * v2) % p,",
           "(u1 * v2 - u2 * v0) % p, (u2 * v1 - u0 * v2) % p,",
           ("tests/test_plane.py", "-k", "cross_equals_the_reference_minors")),
    # the pair loop keys pair (i, j) on the line through points j - 1 and j
    Mutant("F_p pair keyed on the wrong indices", PLANE,
           "_line_key(p, ints[i], ints[j])", "_line_key(p, ints[j - 1], ints[j])",
           ("tests/test_plane.py", "-k", "connecting_lines_equal_the_reference")),
    # ``_unit``, the one F_p normalization, on ints
    Mutant("F_p normalization scaled by c^(p-3)", PLANE,
           "s = pow(x0, p - 2, p)", "s = pow(x0, p - 3, p)",
           ("tests/test_plane.py", "-k", "prime_field_normalized")),
    Mutant("F_p normalization with x1 leading scaled by x1^(p-3)", PLANE,
           "pow(x1, p - 2, p)", "pow(x1, p - 3, p)",
           ("tests/test_plane.py", "-k", "prime_field_normalized")),
    Mutant("unreduced F_p normalization products", PLANE,
           "return 1, x1 * s % p, x2 * s % p", "return 1, x1 * s, x2 * s",
           ("tests/test_plane.py", "-k", "prime_field_normalized")),
    Mutant("collinear on a x a", PLANE,
           "incident(_cross(F, a.coords, b.coords), c)", "incident(_cross(F, a.coords, a.coords), c)",
           ("tests/test_plane.py", "-k", "collinear")),
    Mutant("case 5 with case 7's profile", PLANE,
           "TWO_TRIPLES_SHARING_A_POINT = 5, ((3, 3), 5), 11",
           "TWO_TRIPLES_SHARING_A_POINT = 5, ((3, 3), 6), 11",
           ("tests/test_verify.py", "-k", "witness")),
    Mutant("eliminator update on +lead", PLANE,
           "rest.append(row * t + (p - lead) * top)", "rest.append(row * t + lead * top)",
           ("tests/test_plane.py", "-k", "singular")),
    Mutant("eliminator lead test negated", PLANE,
           "if not lead:", "if lead:",
           ("tests/test_plane.py", "-k", "singular")),
    Mutant("theta from the trace to F_{p^3}", PLANE,
           "F.conjugates(b)[::2]", "F.conjugates(b)[::3]",
           ("tests/test_plane.py", "-k", "theta")),
)


def stale(mutants, root=ROOT):
    """One line per mutant whose old text does not occur exactly once."""
    out = []
    for m in mutants:
        count = (root / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return out


def copy_tree(root, dest):
    for name in TREE:
        if (root / name).is_dir():
            shutil.copytree(root / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(root / name, dest / name)


def run_pytest(tree, selection, timeout):
    """("pass" | "fail" | "hang" | "crash", seconds) for one selection run in
    ``tree``: pytest's exit 0 passes, its exit 1 (a test failed) fails, and
    any other exit is a crash."""
    # the copy's own src/ must be the package under test
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "hang", timeout
    verdict = {0: "pass", 1: "fail"}.get(proc.returncode, "crash")
    return verdict, time.perf_counter() - start


def run(mutants=MUTANTS, root=ROOT, timeout=TIMEOUT_S):
    problems = stale(mutants, root)
    if problems:
        print("STALE MUTANTS:", *problems, sep="\n  ")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(root, clean)
        for selection in dict.fromkeys(m.selection for m in mutants):
            verdict, seconds = run_pytest(clean, selection, timeout)
            if verdict != "pass":
                print(f"clean tree: {' '.join(selection)} gave {verdict} in {seconds:.1f} s")
                return 1
        outcomes = {"fail": 0, "pass": 0, "hang": 0, "crash": 0}
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(root, tree)
            target = tree / m.path
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new),
                              encoding="utf-8")
            verdict, seconds = run_pytest(tree, m.selection, timeout)
            outcomes[verdict] += 1
            shown = {"fail": "killed", "pass": "SURVIVED", "hang": "HANG", "crash": "CRASH"}[verdict]
            print(f"{shown:9} {seconds:5.1f} s  {m.name}  [{' '.join(m.selection)}]")
            shutil.rmtree(tree)
    print(f"{len(mutants)} mutants: {outcomes['fail']} killed, {outcomes['pass']} survived, "
          f"{outcomes['hang']} hung, {outcomes['crash']} crash")
    return 0 if outcomes["fail"] == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(run())
