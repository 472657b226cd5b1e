"""Command-line front end: spec ingestion, invariant reports, exact output.

Specs are JSON documents::

    {
      "n": 2,
      "basis_dim": 1,
      "lambdas": [["1"], ["-1"]],
      "tau": {"type": "generic"},
      "lattice": {"M": [[2, 1], [1, 1]]}
    }

``tau`` may instead be ``{"type": "special", "c": ["1"], "h": 0, "k": 1}``.
The ``lattice`` block is optional and may carry ``certified_relations`` as a
list of integer vectors.  All rationals travel as ``"p/q"`` strings so no
value ever passes through floating point.

Exit codes: 0 on success, 1 on a domain violation, 2 on an I/O or parse
error.  Every subcommand accepts ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from .automorphisms import (
    AutCandidate,
    EMode,
    commutant_search,
    e_mode_space,
    h_coset_group,
    verify_candidate,
)
from .cohomology import (
    PKahlerStatus,
    admissible_character_set,
    albanese_verdict,
    betti_numbers,
    ddbar_lemma,
    deformation_dimension,
    frolicher_degenerates,
    hodge_table,
    pkahler_status,
)
from .model import (
    LatticeSpec,
    ManifoldSpec,
    SpecError,
    TauSpec,
    kodaira_dimension,
    validate_spec,
)
from .scalars import IntMatrix, RationalVector
from .tau import canonical_triple, same_fiber, tau_from_triple, tau_ratio_invariants

__all__ = [
    "main",
    "spec_from_document",
    "document_from_spec",
    "candidate_from_document",
]


class ParseFailure(Exception):
    """A file could not be read or decoded; maps to exit code 2."""


# ---------------------------------------------------------------------------
# JSON ingestion with exact rationals.
# ---------------------------------------------------------------------------


def _parse_rational(value, label: str) -> Fraction:
    if isinstance(value, bool):
        raise SpecError(f"{label} must be an integer or a 'p/q' string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{label}: cannot parse rational {value!r}") from exc
    raise SpecError(
        f"{label} must be an integer or a 'p/q' string, got {value!r}"
    )


def _parse_int(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{label} must be an integer, got {value!r}")
    return value


def _parse_int_token(token: str, label: str) -> int:
    try:
        return int(token, 10)
    except ValueError as exc:
        raise SpecError(f"{label}: cannot parse integer {token!r}") from exc


def _rational_list(v: RationalVector) -> List[str]:
    return [str(c) for c in v]


def spec_from_document(doc) -> ManifoldSpec:
    """Build a manifold spec from a decoded SpecDocument JSON object."""
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    allowed = {"n", "basis_dim", "lambdas", "tau", "lattice"}
    unknown = set(doc) - allowed
    if unknown:
        raise SpecError(f"unknown spec document keys: {sorted(unknown)}")
    for key in ("n", "basis_dim", "lambdas", "tau"):
        if key not in doc:
            raise SpecError(f"spec document is missing required key {key!r}")

    n = _parse_int(doc["n"], "n")
    basis_dim = _parse_int(doc["basis_dim"], "basis_dim")

    raw_lambdas = doc["lambdas"]
    if not isinstance(raw_lambdas, list):
        raise SpecError("lambdas must be a list of coordinate lists")
    if len(raw_lambdas) != n:
        raise SpecError(
            f"lambdas lists {len(raw_lambdas)} weights, but n = {n}"
        )
    lambdas = []
    for i, raw in enumerate(raw_lambdas, start=1):
        if not isinstance(raw, list):
            raise SpecError(f"lambda {i} must be a list of rationals")
        if len(raw) != basis_dim:
            raise SpecError(
                f"lambda {i} has {len(raw)} coordinates, but basis_dim = "
                f"{basis_dim}"
            )
        lambdas.append(
            RationalVector(
                [_parse_rational(x, f"lambda {i}") for x in raw]
            )
        )

    tau = _tau_from_document(doc["tau"])

    lattice = None
    if "lattice" in doc and doc["lattice"] is not None:
        lattice = _lattice_from_document(doc["lattice"])

    return ManifoldSpec(
        lambdas=tuple(lambdas),
        basis_dim=basis_dim,
        tau=tau,
        lattice=lattice,
    )


def _tau_from_document(raw) -> TauSpec:
    if not isinstance(raw, dict) or "type" not in raw:
        raise SpecError('tau must be an object with a "type" field')
    kind = raw["type"]
    if kind == "generic":
        extra = set(raw) - {"type"}
        if extra:
            raise SpecError(f"generic tau takes no extra fields: {sorted(extra)}")
        return TauSpec.generic()
    if kind == "special":
        extra = set(raw) - {"type", "c", "h", "k"}
        if extra:
            raise SpecError(f"unknown special tau fields: {sorted(extra)}")
        for key in ("c", "h", "k"):
            if key not in raw:
                raise SpecError(f"special tau is missing field {key!r}")
        if not isinstance(raw["c"], list):
            raise SpecError("special tau field c must be a list of rationals")
        c = RationalVector(
            [_parse_rational(x, "tau.c") for x in raw["c"]]
        )
        return TauSpec.special(
            c, _parse_int(raw["h"], "tau.h"), _parse_int(raw["k"], "tau.k")
        )
    raise SpecError(f'tau type must be "generic" or "special", got {kind!r}')


def _lattice_from_document(raw) -> LatticeSpec:
    if not isinstance(raw, dict) or "M" not in raw:
        raise SpecError('lattice must be an object with an "M" matrix')
    extra = set(raw) - {"M", "certified_relations"}
    if extra:
        raise SpecError(f"unknown lattice fields: {sorted(extra)}")
    matrix = _matrix_from_document(raw["M"], "lattice.M")
    relations = []
    for rel in raw.get("certified_relations", []):
        if not isinstance(rel, list):
            raise SpecError("certified_relations must be lists of integers")
        relations.append(
            tuple(_parse_int(v, "certified relation entry") for v in rel)
        )
    return LatticeSpec(matrix=matrix, certified_relations=tuple(relations))


def _matrix_from_document(raw, label: str) -> IntMatrix:
    if not isinstance(raw, list) or not all(
        isinstance(row, list) for row in raw
    ):
        raise SpecError(f"{label} must be a list of integer rows")
    rows = [[_parse_int(x, label) for x in row] for row in raw]
    try:
        return IntMatrix(rows)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{label}: {exc}") from exc


def document_from_spec(s: ManifoldSpec) -> dict:
    """Serialize a spec back to the SpecDocument JSON shape."""
    doc = {
        "n": s.n,
        "basis_dim": s.basis_dim,
        "lambdas": [_rational_list(lam) for lam in s.lambdas],
    }
    if s.tau.is_generic():
        doc["tau"] = {"type": "generic"}
    else:
        doc["tau"] = {
            "type": "special",
            "c": _rational_list(s.tau.c_ref),
            "h": s.tau.h,
            "k": s.tau.k,
        }
    if s.lattice is not None:
        lattice = {"M": [list(row) for row in s.lattice.matrix.entries]}
        if s.lattice.certified_relations:
            lattice["certified_relations"] = [
                list(rel) for rel in s.lattice.certified_relations
            ]
        doc["lattice"] = lattice
    return doc


def candidate_from_document(doc) -> AutCandidate:
    """Build an automorphism candidate from decoded candidate JSON."""
    if not isinstance(doc, dict):
        raise SpecError("candidate document must be a JSON object")
    allowed = {"t", "A_prime", "x1", "x2", "e_modes", "sigma"}
    unknown = set(doc) - allowed
    if unknown:
        raise SpecError(f"unknown candidate keys: {sorted(unknown)}")
    for key in ("t", "A_prime", "x1", "x2"):
        if key not in doc:
            raise SpecError(f"candidate is missing field {key!r}")
    matrix = _matrix_from_document(doc["A_prime"], "A_prime")
    vectors = []
    for key in ("x1", "x2"):
        raw = doc[key]
        if not isinstance(raw, list):
            raise SpecError(f"{key} must be a list of rationals")
        vectors.append(
            RationalVector([_parse_rational(x, key) for x in raw])
        )
    modes = []
    for raw in doc.get("e_modes", []):
        if not isinstance(raw, dict):
            raise SpecError("each e_mode must be an object with i, m, k")
        modes.append(
            EMode(
                i=_parse_int(raw.get("i"), "e_mode.i"),
                m=_parse_int(raw.get("m"), "e_mode.m"),
                k=_parse_int(raw.get("k"), "e_mode.k"),
            )
        )
    return AutCandidate(
        t=_parse_int(doc["t"], "t"),
        a_prime=matrix,
        x1=vectors[0],
        x2=vectors[1],
        sigma=doc.get("sigma"),
        e_modes=tuple(modes),
    )


def _load_json(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseFailure(
            f"{path}: parse error at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc


def load_spec(path: str) -> ManifoldSpec:
    return spec_from_document(_load_json(path))


# ---------------------------------------------------------------------------
# Output helpers.
# ---------------------------------------------------------------------------


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def _index_set(values: Sequence[int]) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _witness_payload(
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
) -> Optional[dict]:
    if witness is None:
        return None
    return {"I": list(witness[0]), "J": list(witness[1])}


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _load_json(args.spec)
    try:
        spec = spec_from_document(doc)
    except SpecError as exc:
        _emit(
            args,
            {"ok": False, "violations": [str(exc)], "warnings": []},
            f"invalid: {exc}",
        )
        return 1
    report = validate_spec(spec)
    payload = {
        "ok": report.ok,
        "violations": list(report.violations),
        "warnings": list(report.warnings),
    }
    if report.ok:
        lines = ["valid"]
        lines += [f"warning: {w}" for w in report.warnings]
        _emit(args, payload, "\n".join(lines))
        return 0
    lines = [f"invalid: {v}" for v in report.violations]
    lines += [f"warning: {w}" for w in report.warnings]
    _emit(args, payload, "\n".join(lines))
    return 1


def cmd_hodge(args) -> int:
    spec = load_spec(args.spec)
    table = hodge_table(spec)
    if args.check_serre:
        try:
            table.check_symmetries()
        except AssertionError as exc:
            print(f"symmetry violation: {exc}", file=sys.stderr)
            return 1
    sums = table.degree_sums()
    payload = {
        "entries": [list(row) for row in table.entries],
        "degree_sums": list(sums),
    }
    human = table.render() + "\ndegree sums: " + " ".join(str(x) for x in sums)
    _emit(args, payload, human)
    return 0


def cmd_betti(args) -> int:
    spec = load_spec(args.spec)
    betti = betti_numbers(spec)
    _emit(
        args,
        {"betti": list(betti)},
        "b = " + " ".join(str(b) for b in betti),
    )
    return 0


def _degeneration_command(args, compute, verb_key: str) -> int:
    spec = load_spec(args.spec)
    rep = compute(spec)
    payload = {
        verb_key: rep.holds,
        "witness": _witness_payload(rep.witness),
        "witness_character": (
            None
            if rep.witness_character is None
            else _rational_list(rep.witness_character)
        ),
    }
    if rep.holds:
        human = "YES"
    else:
        I, J = rep.witness
        human = f"NO, witness I={_index_set(I)} J={_index_set(J)}"
    _emit(args, payload, human)
    return 0


def cmd_frolicher(args) -> int:
    return _degeneration_command(args, frolicher_degenerates, "degenerates")


def cmd_ddbar(args) -> int:
    return _degeneration_command(args, ddbar_lemma, "holds")


def cmd_deformations(args) -> int:
    spec = load_spec(args.spec)
    rep = deformation_dimension(spec)
    payload = {
        "h1n": rep.h1n,
        "unobstructed": rep.unobstructed,
        "closed_form_value": rep.closed_form_value,
    }
    _emit(args, payload, str(rep))
    return 0


def cmd_albanese(args) -> int:
    spec = load_spec(args.spec)
    rep = albanese_verdict(spec)
    _emit(
        args,
        {"h10": rep.h10, "verdict": rep.verdict.value},
        str(rep),
    )
    return 0


def cmd_pkahler(args) -> int:
    spec = load_spec(args.spec)
    rep = pkahler_status(spec, args.p)
    payload = {
        "p": rep.p,
        "status": rep.status.value,
        "witness": None if rep.witness is None else str(rep.witness),
        "scalar": None if rep.scalar is None else str(rep.scalar),
    }
    if rep.status is PKahlerStatus.NOT_P_KAHLER:
        human = f"NO, witness {rep.witness}"
    elif rep.status is PKahlerStatus.TORUS_ALL_P:
        human = "YES (torus, every p)"
    else:
        human = "YES"
    _emit(args, payload, human)
    return 0


def cmd_kodaira(args) -> int:
    spec = load_spec(args.spec)
    value = kodaira_dimension(spec)
    _emit(args, {"kodaira_dimension": value}, str(value))
    return 0


def cmd_characters(args) -> int:
    spec = load_spec(args.spec)
    rep = admissible_character_set(spec)
    payload = {
        "base": None if rep.base is None else _rational_list(rep.base),
        "classes": [
            {
                "multiple": cls.multiple,
                "character": _rational_list(cls.character),
                "witness": _witness_payload(cls.witness),
            }
            for cls in rep.classes
        ],
    }
    lines = []
    if rep.base is not None:
        lines.append(f"base c = {rep.base}")
    lines += [str(cls) for cls in rep.classes]
    _emit(args, payload, "\n".join(lines))
    return 0


# -- tau subcommands --------------------------------------------------------


def _parse_triple_tokens(tokens: Sequence[str]):
    if len(tokens) < 3:
        raise SpecError(
            "a tau triple needs at least three values: c coordinates, h, k"
        )
    c = RationalVector(
        [_parse_rational(t, "c coordinate") for t in tokens[:-2]]
    )
    h = _parse_int_token(tokens[-2], "h")
    k = _parse_int_token(tokens[-1], "k")
    return c, h, k


def cmd_tau_canonical(args) -> int:
    c, h, k = _parse_triple_tokens(args.triple)
    tau_from_triple(c, h, k)
    c2, h2, k2 = canonical_triple(c, h, k)
    parts = [str(x) for x in c2] + [str(h2), str(k2)]
    _emit(
        args,
        {"c": _rational_list(c2), "h": h2, "k": k2},
        " ".join(parts),
    )
    return 0


def cmd_tau_same(args) -> int:
    t1 = tau_from_triple(*_parse_triple_tokens(args.triple1.split(",")))
    t2 = tau_from_triple(*_parse_triple_tokens(args.triple2.split(",")))
    same = same_fiber(t1, t2)
    _emit(args, {"same_fiber": same}, "yes" if same else "no")
    return 0


def cmd_tau_from_triple(args) -> int:
    c, h, k = _parse_triple_tokens(args.triple)
    tau = tau_from_triple(c, h, k)
    ratio = tau_ratio_invariants(tau).rational_value
    payload = {
        "c": _rational_list(tau.c_ref),
        "h": tau.h,
        "k": tau.k,
        "ratio": str(ratio),
    }
    human = f"c = {tau.c_ref}; h = {tau.h}; k = {tau.k}; Re(tau)/|tau|^2 = {ratio}"
    _emit(args, payload, human)
    return 0


# -- aut subcommands --------------------------------------------------------


def cmd_aut_verify(args) -> int:
    spec = load_spec(args.spec)
    candidate = candidate_from_document(_load_json(args.candidate))
    check = verify_candidate(spec, candidate)
    payload = {"ok": check.ok, "violations": list(check.violations)}
    if check.ok:
        _emit(args, payload, "Ok")
        return 0
    _emit(
        args,
        payload,
        "\n".join(f"violation: {v}" for v in check.violations),
    )
    return 1


def _matrix_text(m: IntMatrix) -> str:
    return str([list(row) for row in m.entries])


def cmd_aut_search(args) -> int:
    spec = load_spec(args.spec)
    found = commutant_search(spec, args.t, args.bound)
    payload = {
        "t": args.t,
        "bound": args.bound,
        "matrices": [[list(row) for row in m.entries] for m in found],
    }
    human = "\n".join(_matrix_text(m) for m in found) or "(none)"
    _emit(args, payload, human)
    return 0


def cmd_aut_cosets(args) -> int:
    spec = load_spec(args.spec)
    group = h_coset_group(spec)
    payload = {
        "order": group.order,
        "factors": [
            list(group.invariant_factors_x1),
            list(group.invariant_factors_x2),
        ],
    }
    _emit(args, payload, str(group))
    return 0


def cmd_aut_emodes(args) -> int:
    spec = load_spec(args.spec)
    modes = []
    lines = []
    for i in range(1, spec.n + 1):
        mode = e_mode_space(spec, args.t, i)
        if mode is None:
            modes.append({"i": i, "m": None, "k": None})
            lines.append(f"i={i}: none")
        else:
            modes.append({"i": i, "m": mode[0], "k": mode[1]})
            lines.append(f"i={i}: m={mode[0]} k={mode[1]}")
    _emit(args, {"t": args.t, "modes": modes}, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


def _add_spec_command(sub, name: str, func, help_text: str):
    parser = sub.add_parser(name, help=help_text)
    parser.add_argument("spec", help="path to a spec JSON document")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    parser.set_defaults(func=func)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakamura",
        description=(
            "Exact invariants of split solvmanifolds: Hodge tables, Betti "
            "numbers, degeneration verdicts, deformations, p-Kahler status, "
            "lattice construction and automorphism lifts"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_spec_command(sub, "validate", cmd_validate, "check a spec document")
    hodge = _add_spec_command(sub, "hodge", cmd_hodge, "Hodge number table")
    hodge.add_argument(
        "--check-serre",
        action="store_true",
        help="also assert the conjugation and duality symmetries",
    )
    _add_spec_command(sub, "betti", cmd_betti, "Betti numbers")
    _add_spec_command(
        sub, "frolicher", cmd_frolicher, "does the spectral sequence degenerate"
    )
    _add_spec_command(sub, "ddbar", cmd_ddbar, "does the del-delbar lemma hold")
    _add_spec_command(
        sub, "deformations", cmd_deformations, "deformation dimension"
    )
    _add_spec_command(sub, "albanese", cmd_albanese, "Albanese map verdict")
    pk = _add_spec_command(sub, "pkahler", cmd_pkahler, "p-Kahler verdict")
    pk.add_argument("--p", type=int, required=True, help="degree p, 1..n+1")
    _add_spec_command(sub, "kodaira", cmd_kodaira, "Kodaira dimension")
    _add_spec_command(
        sub, "characters", cmd_characters, "admissible character classes"
    )

    tau_parser = sub.add_parser("tau", help="tau triple arithmetic")
    tau_sub = tau_parser.add_subparsers(dest="tau_command", required=True)

    canonical = tau_sub.add_parser(
        "canonical", help="reduce a triple by gcd(h, k)"
    )
    canonical.add_argument(
        "triple", nargs="+", help="c coordinates then h then k"
    )
    canonical.add_argument("--json", action="store_true")
    canonical.set_defaults(func=cmd_tau_canonical)

    same = tau_sub.add_parser(
        "same", help="do two triples give the same tau"
    )
    same.add_argument("triple1", help="comma-separated: c coordinates, h, k")
    same.add_argument("triple2", help="comma-separated: c coordinates, h, k")
    same.add_argument("--json", action="store_true")
    same.set_defaults(func=cmd_tau_same)

    from_triple = tau_sub.add_parser(
        "from-triple", help="validate a triple and report its invariants"
    )
    from_triple.add_argument(
        "triple", nargs="+", help="c coordinates then h then k"
    )
    from_triple.add_argument("--json", action="store_true")
    from_triple.set_defaults(func=cmd_tau_from_triple)
    # argparse passes only integers and decimals such as -2 or -0.5 as
    # values; a fraction such as -3/2, alone or leading a comma list, would
    # read as an unknown option, and these parsers have no numeric options
    for triple_parser in (canonical, same, from_triple):
        triple_parser._negative_number_matcher = re.compile(r"^-\d")

    aut_parser = sub.add_parser("aut", help="automorphism lift tools")
    aut_sub = aut_parser.add_subparsers(dest="aut_command", required=True)

    verify = aut_sub.add_parser("verify", help="verify a candidate lift")
    verify.add_argument("spec", help="path to a spec JSON document")
    verify.add_argument("candidate", help="path to a candidate JSON document")
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_aut_verify)

    search = aut_sub.add_parser(
        "search", help="enumerate bounded intertwiners"
    )
    search.add_argument("spec", help="path to a spec JSON document")
    search.add_argument("--t", type=int, required=True, choices=(1, -1))
    search.add_argument("--bound", type=int, default=3)
    search.add_argument("--json", action="store_true")
    search.set_defaults(func=cmd_aut_search)

    cosets = aut_sub.add_parser(
        "cosets", help="translation classes modulo the lattice"
    )
    cosets.add_argument("spec", help="path to a spec JSON document")
    cosets.add_argument("--json", action="store_true")
    cosets.set_defaults(func=cmd_aut_cosets)

    emodes = aut_sub.add_parser(
        "emodes", help="exponential mode per weight index"
    )
    emodes.add_argument("spec", help="path to a spec JSON document")
    emodes.add_argument("--t", type=int, required=True, choices=(1, -1))
    emodes.add_argument("--json", action="store_true")
    emodes.set_defaults(func=cmd_aut_emodes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
