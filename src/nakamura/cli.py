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
Each command is one row of ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import partial
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
    ValidationReport,
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
    raw_relations = raw.get("certified_relations", [])
    if not isinstance(raw_relations, list):
        raise SpecError("certified_relations must be a list of integer vectors")
    relations = []
    for rel in raw_relations:
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
    raw_modes = doc.get("e_modes", [])
    if not isinstance(raw_modes, list):
        raise SpecError("e_modes must be a list of objects with i, m, k")
    modes = []
    for raw in raw_modes:
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
# Commands.  Each row of COMMANDS is (command words, help, arguments, run);
# a row whose run is None is a command group.  ``run(args)`` returns (exit
# code, JSON payload, human text); a None payload sends the text to stderr.
# ---------------------------------------------------------------------------


def _words(values) -> str:
    return " ".join(str(v) for v in values)


def _index_set(values: Sequence[int]) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def _witness_payload(
    witness: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]
) -> Optional[dict]:
    if witness is None:
        return None
    return {"I": list(witness[0]), "J": list(witness[1])}


def _validate(args):
    try:
        report = validate_spec(spec_from_document(_load_json(args.spec)))
    except SpecError as exc:
        report = ValidationReport(violations=[str(exc)])
    payload = {
        "ok": report.ok,
        "violations": list(report.violations),
        "warnings": list(report.warnings),
    }
    lines = ["valid"] if report.ok else [f"invalid: {v}" for v in report.violations]
    lines += [f"warning: {w}" for w in report.warnings]
    return (0 if report.ok else 1), payload, "\n".join(lines)


def _hodge(args):
    table = hodge_table(load_spec(args.spec))
    if args.check_serre:
        try:
            table.check_symmetries()
        except AssertionError as exc:
            return 1, None, f"symmetry violation: {exc}"
    sums = table.degree_sums()
    payload = {
        "entries": [list(row) for row in table.entries],
        "degree_sums": list(sums),
    }
    return 0, payload, table.render() + "\ndegree sums: " + _words(sums)


def _betti(args):
    betti = betti_numbers(load_spec(args.spec))
    return 0, {"betti": list(betti)}, "b = " + _words(betti)


def _verdict(compute, verb_key: str, args):
    rep = compute(load_spec(args.spec))
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
        return 0, payload, "YES"
    I, J = rep.witness
    return 0, payload, f"NO, witness I={_index_set(I)} J={_index_set(J)}"


_frolicher = partial(_verdict, frolicher_degenerates, "degenerates")
_ddbar = partial(_verdict, ddbar_lemma, "holds")


def _deformations(args):
    rep = deformation_dimension(load_spec(args.spec))
    payload = {
        "h1n": rep.h1n,
        "unobstructed": rep.unobstructed,
        "closed_form_value": rep.closed_form_value,
    }
    return 0, payload, str(rep)


def _albanese(args):
    rep = albanese_verdict(load_spec(args.spec))
    return 0, {"h10": rep.h10, "verdict": rep.verdict.value}, str(rep)


def _pkahler(args):
    rep = pkahler_status(load_spec(args.spec), args.p)
    payload = {
        "p": rep.p,
        "status": rep.status.value,
        "witness": None if rep.witness is None else str(rep.witness),
        "scalar": None if rep.scalar is None else str(rep.scalar),
    }
    if rep.status is PKahlerStatus.NOT_P_KAHLER:
        return 0, payload, f"NO, witness {rep.witness}"
    if rep.status is PKahlerStatus.TORUS_ALL_P:
        return 0, payload, "YES (torus, every p)"
    return 0, payload, "YES"


def _kodaira(args):
    value = kodaira_dimension(load_spec(args.spec))
    return 0, {"kodaira_dimension": value}, str(value)


def _characters(args):
    rep = admissible_character_set(load_spec(args.spec))
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
    lines = [] if rep.base is None else [f"base c = {rep.base}"]
    lines += [str(cls) for cls in rep.classes]
    return 0, payload, "\n".join(lines)


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


def _canonical(args):
    c, h, k = _parse_triple_tokens(args.triple)
    tau_from_triple(c, h, k)
    c2, h2, k2 = canonical_triple(c, h, k)
    payload = {"c": _rational_list(c2), "h": h2, "k": k2}
    return 0, payload, _words([*payload["c"], h2, k2])


def _same(args):
    t1 = tau_from_triple(*_parse_triple_tokens(args.triple1.split(",")))
    t2 = tau_from_triple(*_parse_triple_tokens(args.triple2.split(",")))
    same = same_fiber(t1, t2)
    return 0, {"same_fiber": same}, "yes" if same else "no"


def _from_triple(args):
    tau = tau_from_triple(*_parse_triple_tokens(args.triple))
    ratio = tau_ratio_invariants(tau).rational_value
    payload = {
        "c": _rational_list(tau.c_ref),
        "h": tau.h,
        "k": tau.k,
        "ratio": str(ratio),
    }
    human = f"c = {tau.c_ref}; h = {tau.h}; k = {tau.k}; Re(tau)/|tau|^2 = {ratio}"
    return 0, payload, human


def _verify(args):
    spec = load_spec(args.spec)
    check = verify_candidate(
        spec, candidate_from_document(_load_json(args.candidate))
    )
    payload = {"ok": check.ok, "violations": list(check.violations)}
    if check.ok:
        return 0, payload, "Ok"
    return 1, payload, "\n".join(f"violation: {v}" for v in check.violations)


def _search(args):
    found = commutant_search(load_spec(args.spec), args.t, args.bound)
    matrices = [[list(row) for row in m.entries] for m in found]
    payload = {"t": args.t, "bound": args.bound, "matrices": matrices}
    return 0, payload, "\n".join(str(m) for m in matrices) or "(none)"


def _cosets(args):
    group = h_coset_group(load_spec(args.spec))
    payload = {
        "order": group.order,
        "factors": [
            list(group.invariant_factors_x1),
            list(group.invariant_factors_x2),
        ],
    }
    return 0, payload, str(group)


def _emodes(args):
    spec = load_spec(args.spec)
    modes, lines = [], []
    for i in range(1, spec.n + 1):
        m, k = e_mode_space(spec, args.t, i) or (None, None)
        modes.append({"i": i, "m": m, "k": k})
        lines.append(f"i={i}: none" if m is None else f"i={i}: m={m} k={k}")
    return 0, {"t": args.t, "modes": modes}, "\n".join(lines)


_SPEC = ("spec", {"help": "path to a spec JSON document"})
_CANDIDATE = ("candidate", {"help": "path to a candidate JSON document"})
_SERRE = (
    "--check-serre",
    {
        "action": "store_true",
        "help": "also assert the conjugation and duality symmetries",
    },
)
_DEGREE = ("--p", {"type": int, "required": True, "help": "degree p, 1..n+1"})
_SIGN = ("--t", {"type": int, "required": True, "choices": (1, -1)})
_BOUND = ("--bound", {"type": int, "default": 3})
_TRIPLE = ("triple", {"nargs": "+", "help": "c coordinates then h then k"})
_COMMA_TRIPLE = {"help": "comma-separated: c coordinates, h, k"}
_TRIPLES = (("triple1", _COMMA_TRIPLE), ("triple2", _COMMA_TRIPLE))

COMMANDS = (
    (("validate",), "check a spec document", (_SPEC,), _validate),
    (("hodge",), "Hodge number table", (_SPEC, _SERRE), _hodge),
    (("betti",), "Betti numbers", (_SPEC,), _betti),
    (("frolicher",), "does the spectral sequence degenerate", (_SPEC,), _frolicher),
    (("ddbar",), "does the del-delbar lemma hold", (_SPEC,), _ddbar),
    (("deformations",), "deformation dimension", (_SPEC,), _deformations),
    (("albanese",), "Albanese map verdict", (_SPEC,), _albanese),
    (("pkahler",), "p-Kahler verdict", (_SPEC, _DEGREE), _pkahler),
    (("kodaira",), "Kodaira dimension", (_SPEC,), _kodaira),
    (("characters",), "admissible character classes", (_SPEC,), _characters),
    (("tau",), "tau triple arithmetic", (), None),
    (("tau", "canonical"), "reduce a triple by gcd(h, k)", (_TRIPLE,), _canonical),
    (("tau", "same"), "do two triples give the same tau", _TRIPLES, _same),
    (
        ("tau", "from-triple"),
        "validate a triple and report its invariants",
        (_TRIPLE,),
        _from_triple,
    ),
    (("aut",), "automorphism lift tools", (), None),
    (("aut", "verify"), "verify a candidate lift", (_SPEC, _CANDIDATE), _verify),
    (
        ("aut", "search"),
        "enumerate bounded intertwiners",
        (_SPEC, _SIGN, _BOUND),
        _search,
    ),
    (("aut", "cosets"), "translation classes modulo the lattice", (_SPEC,), _cosets),
    (("aut", "emodes"), "exponential mode per weight index", (_SPEC, _SIGN), _emodes),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakamura",
        description=(
            "Exact invariants of split solvmanifolds: Hodge tables, Betti "
            "numbers, degeneration verdicts, deformations, p-Kahler status, "
            "lattice construction and automorphism lifts"
        ),
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, help_text, arguments, run in COMMANDS:
        command = groups[words[:-1]].add_parser(words[-1], help=help_text)
        if run is None:
            groups[words] = command.add_subparsers(
                dest=f"{words[-1]}_command", required=True
            )
            continue
        for name, options in arguments:
            command.add_argument(name, **options)
        command.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )
        command.set_defaults(run=run)
        if words[0] == "tau":
            # argparse passes only integers and decimals such as -2 or -0.5
            # as values; a fraction such as -3/2, alone or leading a comma
            # list, would read as an unknown option, and the tau commands
            # have no numeric options
            command._negative_number_matcher = re.compile(r"^-\d")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, human = args.run(args)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is None:
        print(human, file=sys.stderr)
    elif args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)
    return code


if __name__ == "__main__":
    sys.exit(main())
