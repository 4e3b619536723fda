import json
import os
import subprocess
import sys

import pytest

from sbuntwist import cli
from sbuntwist.cli import main, parse_cycle_document, render_cycle_document
from sbuntwist.cycles import BrauerLabel, CycleClass
from sbuntwist.links import LinkKind, _Walk
from sbuntwist.verify import EquivalenceReport, PositionScanReport, census_failures


def write_doc(tmp_path, doc, name="cycle.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


MAX_BITS = cli._max_int_bits()


def nested_list(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


CHAIN_DOC = {
    "label": "gamma",
    "d": 10,
    "orbits": [{"degree": 6, "mult": 12}, {"degree": 3, "mult": 3}],
}


# --- document handling ---

def test_parse_assigns_positional_ids():
    cycle, declared = parse_cycle_document(CHAIN_DOC)
    assert [o.id for o in cycle.orbits] == ["x1", "x2"]
    assert declared is None


def test_parse_reads_declared_target():
    doc = dict(CHAIN_DOC, declared_target="gamma_inv")
    _, declared = parse_cycle_document(doc)
    assert declared is BrauerLabel.GAMMA_INVERSE


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"label": "nope", "d": 1}, "label"),
        ({"label": "gamma"}, "'d'"),
        ({"label": "gamma", "d": 0}, "'d'"),
        ({"label": "gamma", "d": True}, "'d'"),
        ({"label": "gamma", "d": 1, "orbits": [{"degree": 4, "mult": 1}]}, "orbits[0].degree"),
        ({"label": "gamma", "d": 1, "orbits": [{"degree": 3, "mult": -1}]}, "orbits[0].mult"),
        ({"label": "gamma", "d": 1, "orbits": [{"degree": 3}]}, "orbits[0]"),
        ({"label": "gamma", "d": 1, "bogus": 2}, "bogus"),
        ({"label": "gamma", "d": 1, "declared_target": "x"}, "declared_target"),
        ({"label": ["gamma"], "d": 1}, "label"),
        ({"label": "gamma", "d": 1, "declared_target": {}}, "declared_target"),
        # 4,300 digits: within the int-string limit, but check would print 9d^2
        ({"label": "gamma", "d": 10**4299}, "'d'"),
        # one bit over the size bound
        ({"label": "gamma", "d": 2**MAX_BITS}, "'d'"),
        (
            {"label": "gamma", "d": 1, "orbits": [{"degree": 3 * 2 ** (MAX_BITS - 1), "mult": 1}]},
            "orbits[0].degree",
        ),
        (
            {"label": "gamma", "d": 1, "orbits": [{"degree": 3, "mult": 2**MAX_BITS}]},
            "orbits[0].mult",
        ),
        # past the int-string limit, so the message must not format it
        ({"label": "gamma", "d": -(2 ** (4 * MAX_BITS))}, "'d'"),
        (
            {"label": "gamma", "d": 1, "orbits": [{"degree": 3, "mult": -(2**20000)}]},
            "orbits[0].mult",
        ),
        (
            {"label": "gamma", "d": 1, "orbits": [{"degree": 2**20000 + 1, "mult": 1}]},
            "orbits[0].degree",
        ),
        (
            {"label": "gamma", "d": 1, "orbits": [{"degree": -(2**20000), "mult": 1}]},
            "orbits[0].degree",
        ),
        ([], "document"),
        ({"label": "gamma", "d": 1, "orbits": {"degree": 3, "mult": 1}}, "'orbits'"),
        # a container whose repr passes the int-string limit, and keys that
        # JSON cannot give: none may escape as ValueError or TypeError
        ({"label": [2**20000], "d": 1}, "'label'"),
        ({"label": "gamma", "d": 1, "orbits": {"a": 2**20000}}, "'orbits'"),
        ({"label": "gamma", "d": 1, "declared_target": [2**20000]}, "'declared_target'"),
        ({"label": "gamma", "d": 1, 1: 0, "x": 0}, "field 'x'"),
        ({"label": "gamma", "d": 1, 2**20000: 0}, "20001-bit integer"),
        # repr raises RecursionError past the recursion limit
        ({"label": nested_list(10**4), "d": 1}, "'label'"),
    ],
)
def test_parse_errors_name_the_offending_field(doc, needle):
    from sbuntwist.cli import DocumentError

    with pytest.raises(DocumentError, match=None) as err:
        parse_cycle_document(doc)
    assert needle in str(err.value)


def test_document_round_trip_is_canonical_and_idempotent():
    messy = {
        "label": "gamma",
        "d": 10,
        "orbits": [{"degree": 3, "mult": 3}, {"degree": 6, "mult": 12}],
    }
    cycle, declared = parse_cycle_document(messy)
    once = render_cycle_document(cycle, declared)
    cycle2, declared2 = parse_cycle_document(once)
    twice = render_cycle_document(cycle2, declared2)
    assert once == twice
    assert once["orbits"][0] == {"degree": 6, "mult": 12}  # sorted by -mult


# --- exit codes and outputs ---

def test_check_consistent_cycle(tmp_path, capsys):
    rc = main(["check", write_doc(tmp_path, CHAIN_DOC)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass" in out and "FAIL" not in out


def test_check_machine_format(tmp_path, capsys):
    rc = main(["check", write_doc(tmp_path, CHAIN_DOC), "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["consistent"] is True
    assert data["self_intersection"] == 9
    assert data["anticanonical_degree"] == 9
    assert data["genus"] == 1


def test_check_inconsistent_cycle_exits_1(tmp_path, capsys):
    doc = {"label": "gamma", "d": 2, "orbits": [{"degree": 3, "mult": 2}]}
    rc = main(["check", write_doc(tmp_path, doc), "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["e3"] is False
    assert data["anticanonical_degree"] == 12


def test_check_parse_error_exits_2(tmp_path, capsys):
    rc = main(["check", write_doc(tmp_path, {"label": "gamma", "d": -3})])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'d'" in err


@pytest.mark.parametrize(
    "content",
    [
        b'\xff\xfe{"label": "gamma", "d": 1}',
        b"[" * 200000 + b"]" * 200000,
        # past the int-string limit, so json.load itself refuses it
        b'{"label": "gamma", "d": 1' + b"0" * 5000 + b"}",
        None,
    ],
    ids=["not-utf-8", "deeply-nested", "5000-digit-d", "missing"],
)
def test_unreadable_document_exits_2_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "cycle.json"
    if content is not None:
        path.write_bytes(content)
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert repr(str(path)) in err
    assert ("cannot read" in err) is (content is None)


def test_integers_at_the_size_bound_are_printed(tmp_path, capsys):
    # the largest d, degree and mult the parser takes: check and untwist
    # print sums of degree * mult^2, and push writes 5d and 6d
    top = 2**MAX_BITS - 1
    orbit = {"degree": top - top % 3, "mult": top}
    path = write_doc(tmp_path, {"label": "gamma", "d": top, "orbits": [orbit] * 3})
    for fmt in ("text", "machine"):
        assert main(["check", path, "--format", fmt]) == 1
        assert main(["untwist", path, "--format", fmt]) == 1
    capsys.readouterr()
    fresh = write_doc(tmp_path, {"label": "gamma", "d": top}, "fresh.json")
    assert main(["push", fresh, "--kind", "phi6"]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == 5 * top


def test_a_2000_link_chain_passes_check_and_untwist(tmp_path, capsys):
    # all phi6, the largest d a random_chain(2000) can reach: 5^2000 has
    # 1,398 digits
    walk = _Walk(CycleClass(BrauerLabel.GAMMA, 1))
    for _ in range(2000):
        walk.step(LinkKind.PHI6)
    path = write_doc(tmp_path, render_cycle_document(walk.freeze()))
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["untwist", path, "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(str(data["d_trace"][0])) == 1398
    assert len(data["steps"]) == 2000 and data["d_trace"][-1] == 1


def test_push_fresh_phi6_reproduces_anticanonical_image(tmp_path, capsys):
    doc = {"label": "gamma", "d": 1, "orbits": []}
    rc = main(["push", write_doc(tmp_path, doc), "--kind", "phi6"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data == {"label": "gamma_inv", "d": 5, "orbits": [{"degree": 6, "mult": 6}]}


def test_push_output_round_trips_through_check(tmp_path, capsys):
    rc = main(["push", write_doc(tmp_path, CHAIN_DOC), "--kind", "phi6", "--center", "x1"])
    pushed = capsys.readouterr().out
    assert rc == 0
    path = tmp_path / "pushed.json"
    path.write_text(pushed)
    assert main(["check", str(path)]) == 0


def test_push_machine_format_carries_the_declared_target(tmp_path, capsys):
    doc = dict(CHAIN_DOC, declared_target="gamma_inv")
    argv = ["push", write_doc(tmp_path, doc), "--kind", "phi6", "--center", "x1"]
    assert main([*argv, "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "cycle": {
            "label": "gamma_inv",
            "d": 2,
            "orbits": [{"degree": 3, "mult": 3}],
            "declared_target": "gamma_inv",
        },
        "link": {
            "kind": "phi6",
            "center_id": "x1",
            "image_orbit_id": "x3",
            "source_label": "gamma",
            "target_label": "gamma_inv",
        },
    }
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == data["cycle"]


def test_push_missing_center_exits_2_and_names_it(tmp_path, capsys):
    rc = main(["push", write_doc(tmp_path, CHAIN_DOC), "--kind", "phi3", "--center", "x9"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "x9" in err


def test_push_wrong_degree_exits_1(tmp_path, capsys):
    rc = main(["push", write_doc(tmp_path, CHAIN_DOC), "--kind", "phi3", "--center", "x1"])
    assert rc == 1
    assert "WrongDegree" in capsys.readouterr().err


def test_untwist_machine_reproduces_factorization(tmp_path, capsys):
    rc = main(["untwist", write_doc(tmp_path, CHAIN_DOC), "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["d_trace"] == [10, 2, 1]
    assert data["parity"] == "even"
    assert [s["kind"] for s in data["steps"]] == ["phi6", "phi3"]
    assert data["terminal_label"] == "gamma"


# random_chain(4, seed=4): phi3, phi6, phi3, phi6 from -omega on gamma
WORD_DOC = {
    "label": "gamma",
    "d": 100,
    "orbits": [
        {"degree": 6, "mult": 120},
        {"degree": 3, "mult": 30},
        {"degree": 6, "mult": 12},
        {"degree": 3, "mult": 3},
    ],
}

WORD_TEXT = """\
initial: gamma, d = 100
  step 1: phi6 at x1  ->  d = 20, label gamma_inv
  step 2: phi3 at x2  ->  d = 10, label gamma
  step 3: phi6 at x3  ->  d = 2, label gamma_inv
  step 4: phi3 at x4  ->  d = 1, label gamma
d-trace: 100 -> 20 -> 10 -> 2 -> 1
parity: even
terminal: -omega on gamma (biregular automorphism)
"""


def test_untwist_output_needs_no_trajectory(tmp_path, capsys, monkeypatch):
    # both formats read the word, d_trace and the endpoints only; the
    # O(L^2) trajectory is never rebuilt
    from sbuntwist.untwist import Factorization

    def no_trace(self):
        raise AssertionError("Factorization.trace was rebuilt")

    monkeypatch.setattr(Factorization, "trace", property(no_trace))
    path = write_doc(tmp_path, WORD_DOC)
    assert main(["untwist", path]) == 0
    assert capsys.readouterr().out == WORD_TEXT
    assert main(["untwist", path, "--format", "machine"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["d_trace"] == [100, 20, 10, 2, 1]
    assert [s["target_label"] for s in data["steps"]] == ["gamma_inv", "gamma"] * 2


def test_untwist_empty_word(tmp_path, capsys):
    doc = {"label": "gamma_inv", "d": 1, "orbits": []}
    rc = main(["untwist", write_doc(tmp_path, doc), "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["steps"] == [] and data["parity"] == "even"


def test_untwist_text_mode_prints_the_empty_word_and_errors(tmp_path, capsys):
    empty = write_doc(tmp_path, {"label": "gamma_inv", "d": 1, "orbits": []}, "empty.json")
    assert main(["untwist", empty]) == 0
    assert "\n  (empty word)\n" in capsys.readouterr().out
    assert main(["untwist", write_doc(tmp_path, CHAIN_DOC), "--target", "gamma_inv"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error (parity_contradiction): ")


def test_untwist_parity_contradiction(tmp_path, capsys):
    rc = main(
        ["untwist", write_doc(tmp_path, CHAIN_DOC), "--target", "gamma_inv", "--format", "machine"]
    )
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["error"] == "parity_contradiction"


def test_untwist_inconsistent_input(tmp_path, capsys):
    doc = {"label": "gamma", "d": 2, "orbits": [{"degree": 3, "mult": 2}]}
    rc = main(["untwist", write_doc(tmp_path, doc), "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["error"] == "inconsistent_cycle"


def test_verify_oracle_modes(capsys):
    rc = main(["verify", "--mode", "oracle-phi3", "--dmax", "8", "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["violations"] == 0
    rc = main(["verify", "--mode", "oracle-phi6", "--dmax", "8", "--format", "machine"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["violations"] == 0


def test_verify_table_mode(capsys):
    rc = main(
        [
            "verify", "--mode", "table", "--prime", "7",
            "--samples", "50", "--seed", "1", "--format", "machine",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["unclassifiable"] == 0 and data["first_failure"] == ""
    assert [w["lines"] for w in data["witnesses"]] == [1, 6, 10, 8, 11, 13, 11, 9, 7]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv, timeout=30):
    """The CLI in a child process, killed (and the test failed) on timeout."""
    return subprocess.run(
        [sys.executable, "-m", "sbuntwist.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_verify_table_mode_at_a_large_prime():
    # the witnesses are a fixed table; a per-field search grew as q^3
    proc = run_cli("verify", "--mode", "table", "--prime", "101", "--samples", "1", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_verify_lemma3_at_a_large_prime_and_the_prime_bound():
    # p = 1000037 is 2 mod 3, where no x^6 + c is irreducible
    proc = run_cli("verify", "--mode", "lemma3", "--prime", "1000037", "--samples", "1", "--seed", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = run_cli(
        "verify", "--mode", "lemma3", "--prime", str(2**61 - 1), "--samples", "1", "--seed", "1"
    )
    assert proc.returncode == 2
    assert "--prime" in proc.stderr


def test_verify_requires_seed_for_sampling(capsys):
    rc = main(["verify", "--mode", "lemma3", "--prime", "7"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_defaults_when_flags_are_absent(capsys, monkeypatch):
    seen = {}

    def scan_phi3(dmax):
        seen["dmax"] = dmax
        return EquivalenceReport("oracle-phi3", 0, 0)

    def scan_closed_points(p, samples, seed):
        seen["samples"] = samples
        return PositionScanReport(p, samples, 0, 0, 0, ())

    monkeypatch.setattr(cli, "scan_phi3", scan_phi3)
    monkeypatch.setattr(cli, "scan_closed_points", scan_closed_points)
    main(["verify", "--mode", "oracle-phi3"])
    main(["verify", "--mode", "lemma3", "--prime", "7", "--seed", "1"])
    assert seen == {"dmax": 50, "samples": 100}


def test_verify_rejects_bad_prime(capsys):
    rc = main(["verify", "--mode", "lemma3", "--prime", "9", "--seed", "1"])
    assert rc == 2
    rc = main(["verify", "--mode", "lemma3", "--prime", "3", "--seed", "1"])
    assert rc == 2


def test_verify_lemma3_reports_finite_field_violations(capsys):
    # over F_5 the scan is expected to find rational-conic orbits; they are
    # itemized, and the exit code is 1 only if the census rejects them
    rc = main(
        [
            "verify", "--mode", "lemma3", "--prime", "5",
            "--samples", "40", "--seed", "1", "--format", "machine",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert data["checked"] == 40
    report = PositionScanReport(
        prime=5,
        samples=data["checked"],
        collinear_hits=data["collinear_hits"],
        conic_hits=data["conic_hits"],
        violating_samples=data["violations"],
        case_breakdown=tuple(
            sorted((int(k), v) for k, v in data["collinear_case_breakdown"].items())
        ),
    )
    assert data["failures"] == census_failures(report)
    assert rc == (1 if census_failures(report) else 0)


def test_verify_lemma3_passes_at_the_family_rates(capsys):
    # 3 conic hits in 30 samples over F_7, where 4.9 are expected
    rc = main(["verify", "--mode", "lemma3", "--prime", "7", "--samples", "30", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "conic_hits: 3" in out and "failure" not in out and "result: ok" in out


def test_verify_lemma3_lists_census_failures(capsys, monkeypatch):
    # a collinear hit in case 2 cannot come from a transitive orbit
    fake = PositionScanReport(
        prime=7, samples=30, collinear_hits=1, conic_hits=1,
        violating_samples=1, case_breakdown=((2, 1),),
    )
    monkeypatch.setattr(cli, "scan_closed_points", lambda p, samples, seed: fake)
    rc = main(["verify", "--mode", "lemma3", "--prime", "7", "--samples", "30", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "failure: p=7: 1 collinear hits in case 2" in out
    assert "VIOLATIONS FOUND" in out


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--mode", "lemma3", "--prime", "7", "--seed", "1", "--samples", "0"], "--samples"),
        (["--mode", "table", "--prime", "7", "--seed", "1", "--samples", "-5"], "--samples"),
        (["--mode", "oracle-phi3", "--dmax", "-3"], "--dmax"),
        (["--mode", "oracle-phi6", "--dmax", "0"], "--dmax"),
        (["--mode", "table", "--prime", "91", "--seed", "1"], "--prime"),
        # a flag the mode does not read is refused, never ignored
        (["--mode", "oracle-phi3", "--dmax", "3", "--prime", "4"], "--prime"),
        (["--mode", "oracle-phi6", "--dmax", "3", "--seed", "1"], "--seed"),
        (["--mode", "oracle-phi3", "--samples", "10"], "--samples"),
        (["--mode", "lemma3", "--prime", "7", "--seed", "1", "--dmax", "-3"], "--dmax"),
        (["--mode", "table", "--prime", "7", "--seed", "1", "--dmax", "5"], "--dmax"),
        (["--mode", "lemma3", "--seed", "1"], "--prime"),
    ],
)
def test_verify_rejects_vacuous_or_bad_input(capsys, argv, flag):
    assert main(["verify", *argv]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "push", "untwist"])
def test_trivial_label_is_a_parse_error(tmp_path, capsys, command):
    doc = {"label": "trivial", "d": 1, "orbits": []}
    extra = ["--kind", "phi3"] if command == "push" else []
    assert main([command, write_doc(tmp_path, doc), *extra]) == 2
    assert "'label'" in capsys.readouterr().err


def test_untwist_rejects_trivial_target(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["untwist", write_doc(tmp_path, CHAIN_DOC), "--target", "trivial"])
    assert exc.value.code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["push", "nofile.json"])  # --kind is required
    assert exc.value.code == 2
