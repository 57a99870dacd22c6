import json
import subprocess
import sys

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
    assert "error:" in err


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
    assert "level-" in err or "squared norm" in err


@pytest.mark.parametrize("filters,check", [
    (["1e200*1e200*chi[0,1/32]", "1 - chi[0,1/32]"], "refinement residual"),
    (["chi[0,1/32]", "1e200*1e200*(1 - chi[0,1/32])"], "filter condition residual"),
])
def test_non_finite_residual_is_named(capsys, tmp_path, filters, check):
    p = tmp_path / "setup.json"
    p.write_text(json.dumps({
        "N": 2, "r": 3, "psi0_hat": "chi[0,1/8]", "filters": filters,
    }))
    code, out, err = run(capsys, "validate", "--setup", str(p), "--grid-log2", "12")
    assert code == 2
    assert out == ""
    assert f"the {check} is nan: a value overflows a float" in err


def test_constant_out_of_float_range_is_rejected(capsys):
    code, _, err = run(
        capsys, "parseval", "--preset", "ex5.2", "--signal", "1e400*chi(0,1/4]",
        "--j=0",
    )
    assert code == 2
    assert "constant 1e400 is outside the float range (at offset 0)" in err


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


def test_out_file_write_error_exits_two(capsys, tmp_path):
    code, _, err = run(
        capsys, "validate", "--preset", "ex5.2", "--grid-log2", "14",
        "--out", str(tmp_path / "missing-dir" / "x.json"),
    )
    assert code == 2
    assert "error:" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "nuframes", "validate", "--preset", "ex5.2",
         "--grid-log2", "14"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
