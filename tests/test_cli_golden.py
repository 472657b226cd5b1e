"""Golden command-line output on the demo specs.

Every spec command runs on every ``demos/specs/*.json`` document, human and
``--json``; ``pkahler`` runs for every p in 1..n+1 and for the out-of-range
0 and n+2, ``aut search`` for both signs t and every bound 0..2, and
``aut verify`` with each candidate in ``tests/candidates/``.  The
``tau`` commands run on a fixed set of triples, valid and invalid, some
led by a negative fraction.  The exit
code, stdout and stderr must match ``golden_cli.json`` byte for byte.
Rewrite that file only when an output change is intended::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from nakamura.cli import main

ROOT = Path(__file__).resolve().parent.parent
SPECS = sorted((ROOT / "demos" / "specs").glob("*.json"))
CANDIDATES = sorted((ROOT / "tests" / "candidates").glob("*.json"))
GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = (
    ("validate",),
    ("hodge",),
    ("hodge", "--check-serre"),
    ("betti",),
    ("frolicher",),
    ("ddbar",),
    ("deformations",),
    ("albanese",),
    ("kodaira",),
    ("characters",),
    ("aut", "cosets"),
) + tuple(("aut", "emodes", "--t", t) for t in ("1", "-1")) + tuple(
    ("aut", "search", "--t", t, "--bound", b)
    for t in ("1", "-1")
    for b in ("0", "1", "2")
)
TAU_COMMANDS = (
    ("tau", "canonical", "1", "2", "4"),
    ("tau", "canonical", "3/2", "1/2", "6", "9"),
    ("tau", "canonical", "1", "2", "0"),
    ("tau", "canonical", "1", "x", "1"),
    ("tau", "canonical", "1", "2"),
    ("tau", "canonical", "-3/2", "1", "-2"),
    ("tau", "from-triple", "1", "2", "4"),
    ("tau", "from-triple", "2", "-1", "3", "5"),
    ("tau", "from-triple", "1", "1", "-1"),
    ("tau", "from-triple", "0", "1", "1"),
    ("tau", "from-triple", "-1/2", "1", "-1"),
    ("tau", "same", "1,0,1", "2,0,2"),
    ("tau", "same", "1,0,1", "1,1,1"),
    ("tau", "same", "1,1,2,4", "1/2,1/2,1,2"),
    ("tau", "same", "1,0,1", "1,2"),
    ("tau", "same", "-3/2,1,-2", "3,1,2"),
)


def _invocations():
    """``(key, argv)`` for every command, both output modes, every spec,
    then the ``tau`` commands in both output modes."""
    for path in SPECS:
        n = json.loads(path.read_text())["n"]
        commands = COMMANDS + tuple(
            ("pkahler", "--p", str(p)) for p in range(0, n + 3)
        )
        for command in commands:
            for mode in ((), ("--json",)):
                args = list(command + mode)
                key = " ".join(args + [f"demos/specs/{path.name}"])
                yield key, args + [str(path)]
        for candidate in CANDIDATES:
            for mode in ((), ("--json",)):
                args = ["aut", "verify", *mode]
                files = (path, candidate)
                key = " ".join(args + [str(f.relative_to(ROOT)) for f in files])
                yield key, args + [str(f) for f in files]
    for command in TAU_COMMANDS:
        for mode in ((), ("--json",)):
            args = list(command[:2] + mode + command[2:])
            yield " ".join(args), args


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _record():
    return {key: _run(argv) for key, argv in _invocations()}


def _golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_invocation():
    assert sorted(key for key, _ in _invocations()) == sorted(_golden())


@pytest.mark.parametrize(
    "key,argv", [pytest.param(k, a, id=k) for k, a in _invocations()]
)
def test_cli_output_matches_golden(key, argv):
    assert _run(argv) == _golden()[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
