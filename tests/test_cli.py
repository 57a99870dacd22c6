import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from nuframes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# validate


def test_validate_passes(capsys):
    code, d, _ = run_json(capsys, "validate", "--preset", "ex5.1", "--grid-log2", "14")
    assert code == 0
    assert d["passed"] is True
    assert d["setup"] == "ex5.1"
    assert d["checks"]["filter_condition"] is True


def test_validate_setup_file(capsys, tmp_path):
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "1",
    }))
    code, d, _ = run_json(capsys, "validate", "--setup", str(p), "--grid-log2", "14")
    assert code == 0
    assert d["setup"] == str(p)
    assert d["oep_residual"] == 0.0


def test_validate_failing_setup_exits_one(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "chi[0,1/32]"],
    }))
    code, d, _ = run_json(capsys, "validate", "--setup", str(p), "--grid-log2", "14")
    assert code == 1
    assert d["passed"] is False
    assert d["checks"]["uep"] is False


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all {",
        json.dumps({"N": 2, "r": 3, "psi0_hat": "chi[0,1/8]"}),
        json.dumps({"N": 2, "r": 3, "psi0_hat": "sin(", "filters": ["g", "g"]}),
        json.dumps({"N": 2, "r": 4, "psi0_hat": "chi[0,1/8]",
                    "filters": ["g", "g"]}),
        json.dumps({"N": 2, "r": 3, "psi0_hat": "chi[0,1/8]",
                    "filters": ["g", "g"], "extra": 1}),
        json.dumps({"N": 2, "r": 3, "psi0_hat": "chi[0,1/8]", "filters": ["g"]}),
    ],
)
def test_malformed_setup_files_exit_two(capsys, tmp_path, payload):
    p = tmp_path / "bad.json"
    p.write_text(payload)
    code, out, err = run(capsys, "validate", "--setup", str(p), "--grid-log2", "14")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_missing_setup_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--setup", str(tmp_path / "nope.json"))
    assert code == 2
    assert err == f"error: {tmp_path / 'nope.json'}: No such file or directory\n"


def test_unknown_preset_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--preset", "nope"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# parseval


def test_parseval_identity_route(capsys):
    code, d, _ = run_json(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j=-4..4", "--grid-log2", "14",
    )
    assert code == 0
    assert d["passed"] is True
    assert d["ratio"] == 1.0
    assert d["route"] == "parseval-identity"
    assert d["tol"] == 1e-6
    assert d["M"] is None
    assert len(d["levels"]) == 9


def test_parseval_direct_route(capsys):
    code, d, _ = run_json(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j", "0..1", "--route", "direct", "--M", "64", "--grid-log2", "14",
    )
    assert code == 0
    assert d["route"] == "direct-oracle"
    assert d["tol"] == 1e-2
    assert d["M"] == 64
    assert d["coset_tail_estimate"] > 0.0


def test_parseval_negative_support_fails(capsys):
    code, d, _ = run_json(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "bump(-1/2,-1/4)",
        "--grid-log2", "14",
    )
    assert code == 1
    assert d["passed"] is False
    assert d["neg_frequency_mass"] > 0.0


def test_parseval_raw_expression_signal(capsys):
    code, d, _ = run_json(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "chi(1/8,1/2]",
        "--j=-4..4", "--grid-log2", "14",
    )
    assert code == 0
    assert d["signal"] == "chi(1/8,1/2]"
    assert d["ratio"] == 1.0


def test_parseval_single_level(capsys):
    # level 0 analyzes the band (1/8, 1/2]; a signal below it is invisible
    code, d, _ = run_json(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "bump(1/64,1/16)",
        "--j", "0", "--grid-log2", "14",
    )
    assert code == 1
    assert d["j_min"] == d["j_max"] == 0
    assert d["total"] == 0.0


def test_parseval_j_flag_conflict(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j", "0..1", "--jmin", "0",
    )
    assert code == 2
    assert "not both" in err


def test_malformed_level_window_names_the_option(capsys):
    code, _, err = run(
        capsys, "levels", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j", "0..x",
    )
    assert code == 2
    assert "--j expects A..B or one integer, got '0..x'" in err
    assert "invalid literal" not in err


def test_parseval_bad_signal_expression(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "sin(",
        "--grid-log2", "14",
    )
    assert code == 2
    assert "offset" in err


def test_parseval_truncation_guard(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--route", "direct", "--M", "2048", "--grid-log2", "10",
    )
    assert code == 2
    assert "under-resolved" in err


def test_direct_route_grid_cap(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--route", "direct", "--M", "4", "--j", "0", "--grid-log2", "23",
    )
    assert code == 2
    assert "direct route supports --grid-log2 up to 22" in err
    assert "chunks()" not in err


@pytest.mark.parametrize("argv", [
    ("parseval",),
    ("parseval", "--route", "direct", "--M", "4", "--grid-log2", "12"),
    ("levels",),
])
def test_overflowing_level_is_named(capsys, argv):
    code, _, err = run(
        capsys, *argv, "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j=600..600",
    )
    assert code == 2
    assert "level 600" in err and "dilation 4" in err
    assert "(34," not in err


@pytest.mark.parametrize("argv", [
    ("levels", "--j=3"),
    ("parseval", "--j=0"),
    ("parseval", "--j=0", "--route", "direct", "--M", "16", "--grid-log2", "14"),
    ("telescope", "--j=1", "--grid-log2", "14"),
])
def test_non_finite_sum_is_named(capsys, argv):
    code, out, err = run(
        capsys, argv[0], "--preset", "ex5.2",
        "--signal", "1e200*1e200*chi(0,1/4]", *argv[1:],
    )
    assert code == 2
    assert out == ""
    assert "is nan" in err and "overflows a float" in err
    assert re.search(r"the level \d+ (direct )?sum against", err) or "squared norm" in err


@pytest.mark.parametrize("route, what", [("parseval", "sum"), ("direct", "direct sum")])
def test_non_finite_sum_at_a_negative_level_is_named(capsys, route, what):
    code, out, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "1e200*chi(0,1/8]",
        "--route", route, "--M", "40", "--grid-log2", "14", "--j=-1",
    )
    assert (code, out) == (2, "")
    assert f"the level -1 {what} against (1 - chi[0,1/8])*chi[0,1/2] is inf" in err


_INF_H0 = ["1e200*1e200*chi[0,1/32]", "1 - chi[0,1/32]"]


@pytest.mark.parametrize("filters,check,value", [
    # H0ψ̂₀ is inf up to 1/32 (1 − inf = −inf) and 0·inf = nan beyond
    pytest.param(_INF_H0, "refinement residual", "inf",
                 id="filters0-refinement residual"),
    pytest.param(["chi[0,1/32]", "1e200*1e200*(1 - chi[0,1/32])"],
                 "filter condition residual", "nan",
                 id="filters1-filter condition residual"),
])
def test_non_finite_residual_is_named(capsys, tmp_path, filters, check, value):
    """The message names |residual| at the first non-finite cell."""
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3, "psi0_hat": "chi[0,1/8]", "filters": filters,
    }))
    code, out, err = run(capsys, "validate", "--setup", str(p), "--grid-log2", "12")
    assert code == 2
    assert out == ""
    assert f"the {check} is {value}: a value overflows a float" in err


def test_non_finite_residual_message_does_not_depend_on_the_grid(capsys, tmp_path):
    """A one-array scan, a scan cut into blocks or one cut into pieces all
    name the first non-finite cell, whichever faulty values follow it."""
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({"N": 2, "r": 3, "psi0_hat": "chi[0,1/8]", "filters": _INF_H0}))
    errs = {run(capsys, "validate", "--setup", str(p), "--grid-log2", k)[2]
            for k in ("12", "14", "16", "20")}
    assert errs == {"error: the refinement residual is inf: a value overflows a float\n"}


_SPIKE = "chi[1/1073741824,1/536870912]*1e200*1e200"


@pytest.mark.parametrize("command, name", [("validate", "psi0_hat"), ("oep", "theta")])
def test_non_finite_limit_deviation_is_named(capsys, tmp_path, command, name):
    """A spike inside the 0+ probe but inside one grid cell overflows only
    the limit deviation; it is named, not written as Infinity."""
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3, "psi0_hat": f"chi[0,1/8] + {_SPIKE}",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"], "theta": f"1 + {_SPIKE}",
    }))
    code, out, err = run(capsys, command, "--setup", str(p))
    assert code == 2
    assert out == ""
    assert f"the 0+ limit deviation of {name} is inf: a value overflows a float" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--tol"], ["validate", "--limit-tol"], ["oep", "--tol"],
    ["oep", "--limit-tol"], ["parseval", "--signal", "ind(1/8,1/2)", "--tol"],
    ["telescope", "--signal", "ind(1/8,1/2)", "--tol"],
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9", "x"])
def test_tolerance_must_be_finite_and_nonnegative(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--preset", "ex5.2", *argv[1:-1], f"{argv[-1]}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-1]}: expects a finite number >= 0, got '{value}'" in err


def test_constant_out_of_float_range_is_rejected(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "1e400*chi(0,1/4]",
        "--j=0",
    )
    assert code == 2
    assert "constant 1e400 is outside the float range (at offset 0)" in err


@pytest.mark.parametrize("signal, message", [
    ("recip(g)", "reciprocal of non-positive value -3.9990234375 at gamma=-3.9990234375"),
    ("sqrt(g - 1)",
     "sqrt of non-nonnegative value -0.9999997615814209 at gamma=2.384185791015625e-07"),
    ("sqrt(i*g - 1)",
     "sqrt of non-nonnegative value (-1+2.384185791015625e-07j) at gamma=2.384185791015625e-07"),
], ids=["recip", "sqrt", "sqrt-complex"])
def test_guard_errors_print_real_values_as_floats(capsys, signal, message):
    """A real value out of a guard's range prints as a float; only a value
    off the real axis prints as a complex number."""
    code, _, err = run(capsys, "parseval", "--preset", "ex5.2", "--signal", signal,
                       "--grid-log2", "12")
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("signal, endpoint", [
    ("bump(1,1e400)", "1e400"),
    ("ind(-1e400,0)", "-1e400"),
])
def test_signal_endpoint_out_of_float_range_is_rejected(capsys, signal, endpoint):
    code, _, err = run(capsys, "levels", "--preset", "ex5.2", "--signal", signal, "--j=0")
    assert code == 2
    assert f"signal endpoint {endpoint} is outside the float range" in err
    assert "integer division" not in err


def test_parseval_table_format(capsys):
    code, out, _ = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j", "0..2", "--grid-log2", "14", "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generator,level,value"
    assert len(lines) == 4


# ---------------------------------------------------------------------------
# oep


def test_oep_passes(capsys):
    code, d, _ = run_json(capsys, "oep", "--preset", "ex5.2", "--grid-log2", "14")
    assert code == 0
    assert d["residual"] == 0.0
    assert d["theta_min"] == 1.0
    assert d["passed"] is True


def test_oep_without_weight_exits_two(capsys):
    code, _, err = run(capsys, "oep", "--preset", "ex5.1", "--grid-log2", "14")
    assert code == 2
    assert "scaling symbol" in err


def test_oep_nonpositive_weight_exits_two(capsys, tmp_path):
    p = tmp_path / "neg.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "0 - 1",
    }))
    code, _, err = run(capsys, "oep", "--setup", str(p), "--grid-log2", "14")
    assert code == 2
    assert "strictly positive" in err


def test_oep_failing_residual_exits_one(capsys, tmp_path):
    p = tmp_path / "off.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "2",
    }))
    code, d, _ = run_json(capsys, "oep", "--setup", str(p), "--grid-log2", "14")
    assert code == 1
    assert d["residual"] == 1.0


# ---------------------------------------------------------------------------
# telescope and levels


def test_telescope_passes(capsys):
    code, d, _ = run_json(
        capsys, "telescope", "--preset", "ex5.1", "--signal", "bump(9/64,31/64)",
        "--j", "0..1", "--grid-log2", "14",
    )
    assert code == 0
    assert d["passed"] is True
    assert len(d["levels"]) == 2


def test_telescope_without_filter_condition_exits_one(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "chi[0,1/32]"],
    }))
    code, _, err = run(
        capsys, "telescope", "--setup", str(p), "--signal", "ind(1/8,1/2)",
        "--grid-log2", "14",
    )
    assert code == 1
    assert "filter condition" in err


def test_levels_profile(capsys):
    code, d, _ = run_json(
        capsys, "levels", "--preset", "ex5.2", "--signal", "bump(1/64,1/16)",
        "--j=-6..-3", "--grid-log2", "14",
    )
    assert code == 0
    assert d["levels"] == [[-6, 0.0], [-5, 0.0], [-4, 0.0], [-3, 0.0]]
    assert d["signal_norm_sq"] > 0.0


def test_levels_table(capsys):
    code, out, _ = run(
        capsys, "levels", "--preset", "ex5.2", "--signal", "ind(1/8,1/2)",
        "--j", "0..1", "--grid-log2", "14", "--format", "table",
    )
    assert code == 0
    assert out.splitlines()[0] == "level,value"


# ---------------------------------------------------------------------------
# generators


def test_generators_report(capsys):
    code, d, _ = run_json(capsys, "generators", "--preset", "ex5.2",
                          "--sample-log2", "2")
    assert code == 0
    assert d["psi0_hat"] == "chi[0,1/8]"
    (gen,) = d["generators"]
    assert gen["index"] == 1
    assert gen["expression"] == "(1 - chi[0,1/8])*chi[0,1/2]"
    assert gen["samples"] == [
        [0.0625, 0.0, 0.0],
        [0.1875, 1.0, 0.0],
        [0.3125, 1.0, 0.0],
        [0.4375, 1.0, 0.0],
    ]


def test_generators_table(capsys):
    code, out, _ = run(capsys, "generators", "--preset", "ex5.1",
                       "--sample-log2", "3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "generator,gamma,re,im"
    assert len(lines) == 1 + 3 * 8


def test_generators_sample_bounds(capsys):
    code, _, err = run(capsys, "generators", "--preset", "ex5.1",
                       "--sample-log2", "13")
    assert code == 2
    assert "sample-log2" in err


@pytest.mark.parametrize("fmt", ["report", "table"])
def test_generators_non_finite_sample_is_named(capsys, tmp_path, fmt):
    """An overflowing sample stops the command instead of writing the
    non-JSON tokens Infinity or NaN."""
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3, "psi0_hat": "1e200*1e200*chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
    }))
    code, out, err = run(capsys, "generators", "--setup", str(p),
                         "--sample-log2", "3", "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == ("error: generator 1 is inf at gamma=0.15625: "
                   "a value overflows a float\n")


# ---------------------------------------------------------------------------
# output files and determinism


def test_out_files_byte_identical(capsys, tmp_path):
    argv = [
        "parseval", "--preset", "ex5.1", "--signal", "bump(9/64,31/64)",
        "--j=-4..4", "--grid-log2", "14",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


_OUTPUT_CASES = {
    "validate": (["--grid-log2", "14"], "field,value"),
    "parseval": (["--signal", "bump(9/64,31/64)", "--j=-2..2", "--grid-log2", "14"],
                 "generator,level,value"),
    "oep": (["--grid-log2", "14"], "field,value"),
    "telescope": (["--signal", "bump(9/64,31/64)", "--j", "0..1", "--grid-log2", "14"],
                  "level,residual"),
    "levels": (["--signal", "bump(1/4,2)", "--j=-2..1", "--grid-log2", "14"],
               "level,value"),
    "generators": (["--sample-log2", "3"], "generator,gamma,re,im"),
}


@pytest.mark.parametrize("fmt", ["report", "table"])
@pytest.mark.parametrize("command", sorted(_OUTPUT_CASES))
def test_every_subcommand_writes_one_output(capsys, tmp_path, command, fmt):
    """stdout and --out carry the same bytes; a report starts with "setup",
    a table with the subcommand's header."""
    options, header = _OUTPUT_CASES[command]
    argv = [command, "--preset", "ex5.2", *options, "--format", fmt]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    out_file = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == out.encode()
    if fmt == "report":
        assert next(iter(json.loads(out))) == "setup"
    else:
        assert out.split("\n", 1)[0] == header


_SETUP_USAGE = "(--preset {ex5.1,ex5.2} | --setup PATH)"
_OUTPUT_USAGE = "[--out PATH] [--format {report,table}]"
_SIGNAL_USAGE = "--signal SPEC [--j A..B] [--jmin A] [--jmax B]"


@pytest.mark.parametrize("command, options", [
    ("validate", "[--grid-log2 K] [--tol TOL] [--limit-tol LIMIT_TOL]"),
    ("parseval", f"{_SIGNAL_USAGE} [--route {{parseval,direct}}] [--M M] "
                 "[--grid-log2 K] [--tol TOL]"),
    ("oep", "[--grid-log2 K] [--tol TOL] [--limit-tol LIMIT_TOL]"),
    ("telescope", f"{_SIGNAL_USAGE} [--grid-log2 K] [--tol TOL]"),
    ("levels", f"{_SIGNAL_USAGE} [--grid-log2 K]"),
    ("generators", "[--sample-log2 K]"),
])
def test_help_usage_keeps_option_order(capsys, command, options):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n", 1)[0].split())
    assert usage == (f"usage: nuframes {command} [-h] {_SETUP_USAGE} {options} "
                     f"{_OUTPUT_USAGE}")


def test_out_file_write_error_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--preset", "ex5.2", "--grid-log2", "14",
        "--out", str(tmp_path / "missing-dir" / "x.json"),
    )
    assert code == 2
    assert err == f"error: {tmp_path / 'missing-dir' / 'x.json'}: No such file or directory\n"


def test_module_entry_point():
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "nuframes", "validate", "--preset", "ex5.2",
         "--grid-log2", "14"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
