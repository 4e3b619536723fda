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
    # the report's x = 0 branch, which the x = 0 line family at q = 5
    # crosses orbit by orbit, and its two 5x5 minors along the unit row
    # x = 1; every family there lies on a conic, so only the sampled orbits
    # off every conic see the conic minor read on the wrong columns
    Mutant("x = 0 orbit read as general position", PLANE,
           "return PositionReport(no_three_collinear=False, off_conic=False)",
           "return PositionReport(no_three_collinear=True, off_conic=True)",
           ("tests/test_plane.py", "-k", "families_at_q5")),
    Mutant("conic minor keeping the unit column", PLANE,
           "[v[1:] for v in veronese]", "[v[:-1] for v in veronese]",
           ("tests/test_plane.py", "-k", "one_triple_report")),
    Mutant("theta row read as the unit row", PLANE,
           "rows = (y, z, _theta_row(F),", "rows = (y, z, F.element(1),",
           ("tests/test_plane.py", "-k", "families_at_q5")),
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
           "_ppowmod(x, p, fold, p)", "_ppowmod(x, p + 1, fold, p)",
           ("tests/test_gf.py", "-k", "conjugate or frobenius")),
    Mutant("every conjugate power squared", GF,
           "power = _mulmod(power, x, fold, p)", "power = _mulmod(x, x, fold, p)",
           ("tests/test_gf.py", "-k", "conjugate or frobenius")),
    Mutant("every regular row c x", GF,
           "rows.append(_times_x(rows[-1], f, p))", "rows.append(_times_x(c, f, p))",
           ("tests/test_gf.py", "-k", "regular or times")),
    # the packed kernel's fold: slots too narrow for the folded sums, and
    # x^(2m-2) mod f left out of the rows
    Mutant("slot width sized for the product alone", GF,
           "w = (m * (p - 1) ** 2 * (1 + (m - 1) * (p - 1))).bit_length()",
           "w = (m * (p - 1) ** 2).bit_length()",
           ("tests/test_gf.py", "-k", "long_division")),
    Mutant("slot width one bit short of the fold's bound", GF,
           "(1 + (m - 1) * (p - 1))).bit_length()", "(1 + (m - 1) * (p - 1))).bit_length() - 1",
           ("tests/test_gf.py", "-k", "long_division")),
    Mutant("last fold row dropped", GF,
           "    for _ in range(m - 1):\n        r = _times_x(r, f, p)\n",
           "    for _ in range(m - 2):\n        r = _times_x(r, f, p)\n",
           ("tests/test_gf.py", "-k", "long_division")),
    # a point's degree: the lcm of its coordinates' degrees, each read off
    # the conjugate table's block k - 1 for sigma^k
    Mutant("closed-point degree as the max of the coordinates' degrees", PLANE,
           "degree = math.lcm(degree, F.degree(c))", "degree = max(degree, F.degree(c))",
           ("tests/test_plane.py", "-k", "degree")),
    Mutant("sigma^k's slots read one block late", GF,
           "block = packed >> (k - 1) * m * w", "block = packed >> k * m * w",
           ("tests/test_gf.py", "-k", "degree")),
    Mutant("degree m for every element outside F_p", GF,
           "            else:\n                return k\n", "",
           ("tests/test_gf.py", "-k", "degree")),
    # negating one coordinate of every line keeps the pair grouping, so
    # only the incidence tests, not the classifier, can see this one
    Mutant("one cross-product minor negated", PLANE,
           "sub(mul(u1, v2), mul(u2, v1)),", "sub(mul(u2, v1), mul(u1, v2)),",
           ("tests/test_plane.py", "-k", "collinear")),
    Mutant("products swapped between two minors", PLANE,
           "sub(mul(u1, v2), mul(u2, v1)),\n        sub(mul(u2, v0), mul(u0, v2)),",
           "sub(mul(u1, v2), mul(u2, v0)),\n        sub(mul(u2, v1), mul(u0, v2)),",
           ("tests/test_plane.py", "-k", "collinear")),
    # the two above are seen by the collinear tests over F_{p^m}; their
    # twins below, on the other minors, by the F_p minors of
    # ``line_through`` checked directly against the ``FiniteField`` ones
    Mutant("last cross-product minor negated", PLANE,
           "sub(mul(u0, v1), mul(u1, v0)),", "sub(mul(u1, v0), mul(u0, v1)),",
           ("tests/test_plane.py", "-k", "cross_equals_the_reference_minors")),
    Mutant("products swapped between the last two minors", PLANE,
           "sub(mul(u2, v0), mul(u0, v2)),\n        sub(mul(u0, v1), mul(u1, v0)),",
           "sub(mul(u2, v0), mul(u0, v1)),\n        sub(mul(u0, v2), mul(u1, v0)),",
           ("tests/test_plane.py", "-k", "cross_equals_the_reference_minors")),
    # the pair loop keys pair (i, j) on the line through points j - 1 and j,
    # on the ``line_through`` route (p > 13, F_{p^m}) and on the line
    # table's (p <= 13)
    Mutant("pair keyed on the wrong indices", PLANE,
           "line_through(points[i], points[j])", "line_through(points[j - 1], points[j])",
           ("tests/test_plane.py", "-k", "connecting_lines_equal_the_reference")),
    Mutant("table pair read on the wrong indices", PLANE,
           "line_of[at[i] * n + at[j]]", "line_of[at[j - 1] * n + at[j]]",
           ("tests/test_plane.py", "-k", "connecting_lines_equal_the_reference")),
    # the grouping after the keys, on every route: a line is the union of
    # its pairs' shared frozensets, listed at its first pair
    Mutant("repeat pair replaces its line", PLANE,
           "lines[key] = pair if (line := lines.get(key)) is None else line | pair",
           "lines[key] = pair",
           ("tests/test_plane.py", "-k", "first_pair_order")),
    Mutant("line kept as its first pair", PLANE,
           "lines[key] = pair if (line := lines.get(key)) is None else line | pair",
           "lines[key] = lines.get(key) or pair",
           ("tests/test_plane.py", "-k", "first_pair_order")),
    Mutant("lines returned reversed", PLANE,
           "return list(lines.values())", "return list(lines.values())[::-1]",
           ("tests/test_plane.py", "-k", "first_pair_order")),
    # the line table of P^2(F_p): the point index and its normalization
    # check, the fill, the diagonal
    Mutant("(1, a, b) chart indexed as b p + a", PLANE,
           "return x1 * p + x2", "return x2 * p + x1",
           ("tests/test_plane.py", "-k", "line_table_groups")),
    Mutant("one point of each line left out of the fill", PLANE,
           "        for i in on:\n", "        for i in on[1:]:\n",
           ("tests/test_plane.py", "-k", "line_table_groups")),
    Mutant("unnormalized (1, a, b) chart entry indexed", PLANE,
           "        if x0 == 1:\n", "        if True:\n",
           ("tests/test_plane.py", "-k", "unnormalized")),
    Mutant("diagonal sentinel not checked", PLANE,
           "        if _NO_LINE in keys:\n"
           "            raise ValueError(\"two coincident points do not span a line\")\n", "",
           ("tests/test_plane.py", "-k", "coincident_points_raise")),
    # ``_normalized``'s one loop, the normalization of every field off
    # the plane tables, checked over F_p against ``FiniteField`` ops
    Mutant("normalization scaled by c^-2", PLANE,
           "scale, mul = F.inv(c), F.mul", "scale, mul = F.inv(F.mul(c, c)), F.mul",
           ("tests/test_plane.py", "-k", "prime_field_normalized")),
    Mutant("normalization leaving the leading coordinate as it is", PLANE,
           "(*coords[:i], F.element(1), *", "(*coords[:i], c, *",
           ("tests/test_plane.py", "-k", "prime_field_normalized")),
    Mutant("normalization leaving the later coordinates unscaled", PLANE,
           "*[mul(scale, x) for x in coords[i + 1:]]", "*coords[i + 1:]",
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
    # the samplers: one draw of 3m residues per point, sliced m to a
    # coordinate, and per round of the configuration loop one draw for
    # every missing point, its triples read from the point table (p <= 13)
    # and deduplicated on coordinate tuples; then the field check's
    # identity shortcut
    Mutant("two coordinates of the one draw swapped", PLANE,
           "(tuple(r[:m]), tuple(r[m:2 * m]), tuple(r[2 * m:]))",
           "(tuple(r[m:2 * m]), tuple(r[:m]), tuple(r[2 * m:]))",
           ("tests/test_plane.py", "-k", "random_point_draws_as_randrange_does")),
    Mutant("configuration sampled without deduplication", PLANE,
           "kept.setdefault(pt.coords, pt)", "kept[len(kept)] = pt",
           ("tests/test_plane.py", "-k", "reference_dedup")),
    Mutant("point table code built with r1 and r2 swapped", PLANE,
           "point_of[(s * x0 % p * p + s * x1 % p) * p + s * x2 % p] = pt",
           "point_of[(s * x0 % p * p + s * x2 % p) * p + s * x1 % p] = pt",
           ("tests/test_plane.py", "-k", "point_table_gives")),
    Mutant("zero triple not skipped", PLANE,
           "                if pt is None:\n                    continue\n", "",
           ("tests/test_plane.py", "-k", "reference_dedup")),
    Mutant("round draws 3m 6 residues however many points are missing", PLANE,
           "_residues(rng, p, w * (6 - len(kept)))", "_residues(rng, p, w * 6)",
           ("tests/test_plane.py", "-k", "reference_dedup")),
    Mutant("equal fields in distinct objects refused", PLANE,
           "pt.field is not F and pt.field != F", "pt.field is not F",
           ("tests/test_plane.py", "-k", "distinct_objects")),
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
