"""Report bytes of a fixed matrix of CLI commands, against a recorded fixture.

Every subcommand runs in-process on ex5.1, ex5.2 and a dyadic θ = 1 JSON
setup at --grid-log2 14, in both output formats.  At the default grid of
2^20 cells, which streams in many blocks, run the indicator-only commands:
the ex5.2 indicator level profile and parseval report, and validate and oep
on ex5.2 and the dyadic setup.  Exit status, stdout and stderr must be
the bytes recorded in data/cli_bytes.json.  To record them again (only when
a report is meant to change):

    PYTHONPATH=src python tests/test_cli_bytes.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from nuframes.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_bytes.json")

# N = 4, r = 3: ψ̂₀ = χ[0, 1/(4N)], H₀ = χ[0, 1/(8N²)] and its complement.
_DYADIC_SETUP = {
    "N": 4, "r": 3,
    "psi0_hat": "chi[0,1/16]",
    "filters": ["chi[0,1/128]", "1 - chi[0,1/128]"],
    "theta": "1",
}
_SETUP_PATH = "<setup>"  # stands for the setup file's path in argv and output

_GRID = ["--grid-log2", "14"]
_IND, _BUMP = "ind(1/8,1/2)", "bump(9/64,31/64)"
_COMMANDS = {
    "validate": ["validate", *_GRID],
    "oep": ["oep", *_GRID],
    "parseval-ind": ["parseval", "--signal", _IND, "--j=-4..4", *_GRID],
    "parseval-bump": ["parseval", "--signal", _BUMP, "--j=-4..4", *_GRID],
    "parseval-direct": ["parseval", "--signal", _IND, "--j=-2..2", "--route", "direct",
                        "--M", "64", *_GRID],
    "telescope-ind": ["telescope", "--signal", _IND, "--j", "0..1", *_GRID],
    "telescope-bump": ["telescope", "--signal", _BUMP, "--j", "0..1", *_GRID],
    "levels": ["levels", "--signal", _IND, "--j=-4..4", *_GRID],
    "generators": ["generators", "--sample-log2", "3"],
}
_SETUPS = {
    "ex5.1": ["--preset", "ex5.1"],
    "ex5.2": ["--preset", "ex5.2"],
    "dyadic": ["--setup", _SETUP_PATH],
}

CASES = {
    f"{command}-{setup}-{fmt}": [argv[0], *setup_args, *argv[1:], "--format", fmt]
    for command, argv in _COMMANDS.items()
    for setup, setup_args in _SETUPS.items()
    for fmt in ("report", "table")
}
CASES.update({
    f"{command}-ex5.2-ind-default-grid": [command, *_SETUPS["ex5.2"], "--signal", _IND, "--j=-4..4"]
    for command in ("levels", "parseval")
})
CASES.update({
    f"{command}-{setup}-default-grid": [command, *_SETUPS[setup]]
    for command in ("validate", "oep")
    for setup in ("ex5.2", "dyadic")
})


def run_case(argv, setup_path, read) -> dict:
    """Exit status, stdout and stderr (as read() returns them) of one
    command, with the setup file's path written back as the placeholder."""
    code = main([setup_path if a == _SETUP_PATH else a for a in argv])
    out, err = read()
    return {
        "exit": code,
        "stdout": out.replace(setup_path, _SETUP_PATH),
        "stderr": err.replace(setup_path, _SETUP_PATH),
    }


@pytest.fixture(scope="module")
def recorded():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def setup_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-bytes") / "dyadic.json"
    path.write_text(json.dumps(_DYADIC_SETUP))
    return str(path)


def test_fixture_covers_the_matrix(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_bytes(name, recorded, capsys, setup_path):
    assert run_case(CASES[name], setup_path, capsys.readouterr) == recorded[name]


def _record():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dyadic.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_DYADIC_SETUP, fh)
        results = {}
        for name, argv in CASES.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                results[name] = run_case(argv, path, lambda: (out.getvalue(), err.getvalue()))
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(results)} commands in {FIXTURE}")


if __name__ == "__main__":
    sys.exit(_record())
