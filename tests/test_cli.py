"""Command-line interface: golden outputs, exit codes, JSON round-trips."""

import json
from fractions import Fraction

import pytest

from nakamura.cli import document_from_spec, main, spec_from_document
from nakamura.cohomology import betti_numbers, hodge_table

GENERIC_DOC = {
    "n": 2,
    "basis_dim": 1,
    "lambdas": [["1"], ["-1"]],
    "tau": {"type": "generic"},
    "lattice": {"M": [[2, 1], [1, 1]]},
}

SPECIAL_DOC = {
    "n": 2,
    "basis_dim": 1,
    "lambdas": [["1"], ["-1"]],
    "tau": {"type": "special", "c": ["1"], "h": 0, "k": 1},
    "lattice": {"M": [[2, 1], [1, 1]]},
}

COSET_DOC = {
    "n": 2,
    "basis_dim": 1,
    "lambdas": [["1"], ["-1"]],
    "tau": {"type": "generic"},
    "lattice": {"M": [[3, 1], [2, 1]]},
}

IDENTITY_CANDIDATE = {
    "t": 1,
    "A_prime": [[1, 0], [0, 1]],
    "x1": ["0", "0"],
    "x2": ["0", "0"],
    "e_modes": [],
}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


# ---------------------------------------------------------------------------
# golden human-readable outputs
# ---------------------------------------------------------------------------


def test_tau_canonical_golden(capsys):
    code, out, _ = run(capsys, "tau", "canonical", "1", "2", "4")
    assert code == 0
    assert out == "1/2 1 2"


def test_frolicher_special_witness_golden(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "frolicher", spec)
    assert code == 0
    assert out == "NO, witness I={1} J={}"


def test_frolicher_generic_holds(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "frolicher", spec)
    assert code == 0
    assert out == "YES"


def test_ddbar_matches_frolicher(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "ddbar", spec)
    assert code == 0
    assert out.startswith("NO, witness")


def test_aut_cosets_golden(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", COSET_DOC)
    code, out, _ = run(capsys, "aut", "cosets", spec)
    assert code == 0
    assert out == "order 4, factors (1,2)x(1,2)"


def test_kodaira_golden(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "kodaira", spec)
    assert code == 0
    assert out == "0"


def test_betti_golden(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "betti", spec)
    assert code == 0
    assert out == "b = 1 2 5 8 5 2 1"


def test_hodge_renders_grid_and_sums(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "hodge", "--check-serre", spec)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p\\q")
    assert lines[-1] == "degree sums: 1 2 5 8 5 2 1"


def test_tau_from_triple_golden(capsys):
    code, out, _ = run(capsys, "tau", "from-triple", "1", "2", "4")
    assert code == 0
    assert out == "c = (1); h = 2; k = 4; Re(tau)/|tau|^2 = 1/2"


def test_tau_same_golden(capsys):
    code, out, _ = run(capsys, "tau", "same", "1,0,1", "2,0,2")
    assert (code, out) == (0, "yes")
    code, out, _ = run(capsys, "tau", "same", "1,0,1", "1,1,1")
    assert (code, out) == (0, "no")


def test_pkahler_verdicts(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "pkahler", "--p", "1", spec)
    assert code == 0
    assert out.startswith("NO, witness")
    code, out, _ = run(capsys, "pkahler", "--p", "2", spec)
    assert (code, out) == (0, "YES")


def test_deformations_golden(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "deformations", spec)
    assert code == 0
    assert out == "h^(1,n) = 3, unobstructed"


def test_albanese_verdicts(tmp_path, capsys):
    generic = write_json(tmp_path, "g.json", GENERIC_DOC)
    code, out, _ = run(capsys, "albanese", generic)
    assert (code, out) == (0, "h^(1,0) = 1, Albanese isomorphism: yes")
    special = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "albanese", special)
    assert (code, out) == (0, "h^(1,0) = 3, Albanese isomorphism: unknown")


def test_characters_lists_family(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "characters", spec)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "base c = (1)"
    assert "c=(1) (m=1) from I={1} J={}" in lines
    assert "c=(0) (m=0) from I={} J={}" in lines


def test_aut_emodes_listing(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "aut", "emodes", "--t", "1", spec)
    assert code == 0
    assert out.splitlines() == ["i=1: m=0 k=1", "i=2: m=0 k=-1"]
    generic = write_json(tmp_path, "g.json", GENERIC_DOC)
    code, out, _ = run(capsys, "aut", "emodes", "--t", "1", generic)
    assert code == 0
    assert out.splitlines() == ["i=1: none", "i=2: none"]


# ---------------------------------------------------------------------------
# exit codes: 0 success, 1 domain violation, 2 I/O or parse error
# ---------------------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "validate", spec)
    assert (code, out) == (0, "valid")


def test_validate_unimodularity_violation(tmp_path, capsys):
    doc = dict(GENERIC_DOC, lambdas=[["1"], ["1"]])
    doc.pop("lattice")
    spec = write_json(tmp_path, "s.json", doc)
    code, out, _ = run(capsys, "validate", spec)
    assert code == 1
    assert "unimodularity" in out


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    doc = dict(GENERIC_DOC, extra_field=1)
    spec = write_json(tmp_path, "s.json", doc)
    code, out, _ = run(capsys, "validate", spec)
    assert code == 1
    assert "extra_field" in out


@pytest.mark.parametrize("relations", [5, None])
def test_relations_not_a_list_is_a_spec_error(tmp_path, capsys, relations):
    lattice = dict(GENERIC_DOC["lattice"], certified_relations=relations)
    spec = write_json(tmp_path, "s.json", dict(GENERIC_DOC, lattice=lattice))
    code, out, _ = run(capsys, "validate", spec)
    assert code == 1
    assert out.startswith("invalid: certified_relations")
    code, _, err = run(capsys, "betti", spec)
    assert code == 1
    assert err.startswith("error: certified_relations")


def test_validate_rejects_lattice_of_wrong_size(tmp_path, capsys):
    lattice = {"M": [[2, 1, 0], [1, 1, 0], [0, 0, 1]]}
    spec = write_json(tmp_path, "s.json", dict(GENERIC_DOC, lattice=lattice))
    code, out, _ = run(capsys, "validate", spec)
    assert (code, out) == (1, "invalid: lattice matrix is 3x3, expected 2x2")
    for argv in (("aut", "search", "--t", "1", "--bound", "1"), ("aut", "cosets")):
        code, out, err = run(capsys, *argv, spec)
        assert (code, out) == (1, "")
        assert err == "error: lattice matrix is 3x3, expected 2x2"


def test_float_weights_rejected(tmp_path, capsys):
    doc = dict(GENERIC_DOC, lambdas=[[0.5], ["-1/2"]])
    spec = write_json(tmp_path, "s.json", doc)
    code, _, err = run(capsys, "betti", spec)
    assert code == 1
    assert "'p/q'" in err


def test_truncated_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "basis_dim"')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1 column 21" in err


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "betti", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def test_domain_violation_from_computation(tmp_path, capsys):
    doc = dict(GENERIC_DOC, lambdas=[["1"], ["1"]])
    spec = write_json(tmp_path, "s.json", doc)
    code, _, err = run(capsys, "betti", spec)
    assert code == 1
    assert "unimodularity" in err


def test_pkahler_degree_out_of_range(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, _, err = run(capsys, "pkahler", "--p", "0", spec)
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_enumeration_cap_env_override(tmp_path, capsys, monkeypatch):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    monkeypatch.setenv("NAKAMURA_MAX_N", "1")
    code, _, err = run(capsys, "betti", spec)
    assert code == 1
    assert "NAKAMURA_MAX_N" in err


# ---------------------------------------------------------------------------
# candidate verification through the CLI
# ---------------------------------------------------------------------------


def test_aut_verify_identity_ok(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    cand = write_json(tmp_path, "c.json", IDENTITY_CANDIDATE)
    code, out, _ = run(capsys, "aut", "verify", spec, cand)
    assert (code, out) == (0, "Ok")


def test_aut_verify_reports_violations(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    bad = dict(IDENTITY_CANDIDATE, A_prime=[[1, 1], [0, 1]])
    cand = write_json(tmp_path, "c.json", bad)
    code, out, _ = run(capsys, "aut", "verify", spec, cand)
    assert code == 1
    assert "intertwine" in out


def test_aut_verify_bad_t(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    bad = dict(IDENTITY_CANDIDATE, t=2)
    cand = write_json(tmp_path, "c.json", bad)
    code, out, _ = run(capsys, "aut", "verify", spec, cand)
    assert code == 1
    assert "t must be 1 or -1" in out


@pytest.mark.parametrize("modes", [5, None, {"i": 1, "m": 0, "k": 1}])
def test_aut_verify_e_modes_not_a_list(tmp_path, capsys, modes):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    bad = dict(IDENTITY_CANDIDATE, e_modes=modes)
    cand = write_json(tmp_path, "c.json", bad)
    code, out, err = run(capsys, "aut", "verify", spec, cand)
    assert (code, out) == (1, "")
    assert err.startswith("error: e_modes")


def test_aut_search_contains_identity_and_intertwiners(tmp_path, capsys):
    spec = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "aut", "search", "--t", "1", "--bound", "1", spec)
    assert code == 0
    rows = out.splitlines()
    assert "[[1, 0], [0, 1]]" in rows
    assert "[[1, 1], [1, 0]]" in rows
    assert len(rows) == 6


# ---------------------------------------------------------------------------
# JSON mode round-trips exactly
# ---------------------------------------------------------------------------


def test_json_tau_canonical_roundtrip(capsys):
    code, out, _ = run(capsys, "tau", "canonical", "--json", "1", "2", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"c": ["1/2"], "h": 1, "k": 2}
    assert Fraction(payload["c"][0]) == Fraction(1, 2)


def test_json_hodge_matches_library(tmp_path, capsys):
    spec_path = write_json(tmp_path, "s.json", GENERIC_DOC)
    code, out, _ = run(capsys, "hodge", "--json", spec_path)
    assert code == 0
    payload = json.loads(out)
    table = hodge_table(spec_from_document(GENERIC_DOC))
    assert payload["entries"] == [list(row) for row in table.entries]
    assert payload["degree_sums"] == list(table.degree_sums())


def test_json_betti_matches_library(tmp_path, capsys):
    spec_path = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "betti", "--json", spec_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == list(betti_numbers(spec_from_document(SPECIAL_DOC)))


def test_json_frolicher_witness(tmp_path, capsys):
    spec_path = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "frolicher", "--json", spec_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerates"] is False
    assert payload["witness"] == {"I": [1], "J": []}
    assert payload["witness_character"] == ["1"]


def test_json_characters_multiples(tmp_path, capsys):
    spec_path = write_json(tmp_path, "s.json", SPECIAL_DOC)
    code, out, _ = run(capsys, "characters", "--json", spec_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == ["1"]
    assert [c["multiple"] for c in payload["classes"]] == [-2, -1, 0, 1, 2]


def test_json_validate_reports_violations(tmp_path, capsys):
    doc = dict(GENERIC_DOC, lambdas=[["1"], ["1"]])
    spec_path = write_json(tmp_path, "s.json", doc)
    code, out, _ = run(capsys, "validate", "--json", spec_path)
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("unimodularity" in v for v in payload["violations"])


def test_json_aut_cosets(tmp_path, capsys):
    spec_path = write_json(tmp_path, "s.json", COSET_DOC)
    code, out, _ = run(capsys, "aut", "cosets", "--json", spec_path)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"order": 4, "factors": [[1, 2], [1, 2]]}


def test_document_round_trip_is_identity():
    doc = {
        "n": 2,
        "basis_dim": 2,
        "lambdas": [["1/3", "-2"], ["-1/3", "2"]],
        "tau": {"type": "special", "c": ["1", "0"], "h": 2, "k": 4},
        "lattice": {
            "M": [[2, 1], [1, 1]],
            "certified_relations": [[1, 1]],
        },
    }
    spec = spec_from_document(doc)
    assert document_from_spec(spec) == doc


def test_document_round_trip_without_lattice():
    doc = {
        "n": 2,
        "basis_dim": 1,
        "lambdas": [["1"], ["-1"]],
        "tau": {"type": "generic"},
    }
    spec = spec_from_document(doc)
    assert spec.lattice is None
    assert document_from_spec(spec) == doc
