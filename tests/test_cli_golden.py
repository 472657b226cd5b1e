"""Golden command-line output on the demo specs.

Every spec command runs on every ``demos/specs/*.json`` document, human and
``--json``; ``pkahler`` runs for every p in 1..n+1 and for the out-of-range
0 and n+2.  The exit code, stdout and stderr must match
``golden_cli.json`` byte for byte.  Rewrite that file only when an output
change is intended::

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
GOLDEN = Path(__file__).with_name("golden_cli.json")
COMMANDS = (
    ("hodge",),
    ("hodge", "--check-serre"),
    ("betti",),
    ("frolicher",),
    ("ddbar",),
    ("deformations",),
    ("albanese",),
    ("kodaira",),
    ("characters",),
)


def _invocations():
    """``(key, argv)`` for every command, both output modes, every spec."""
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
