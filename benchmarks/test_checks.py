"""The benchmark's checks accept correct outputs and report faulty ones.

    python3 benchmarks/test_checks.py      (or: python3 -m pytest benchmarks/test_checks.py)

Each fault is injected into an output of the program that passes the same
check unmodified, so the failure is the fault's doing.
"""

import dataclasses
import os
import sys
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import nuframes  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import Signal  # noqa: E402

BUMP = Signal("bump", F(9, 64), F(31, 64))
IND = Signal("ind", F(1, 8), F(1, 2))


def _report(sig, preset, j_min, j_max):
    spec = workloads._program_signal(sig)
    return nuframes.parseval_report(spec, nuframes.preset(preset), j_min, j_max).to_dict()


def _perturb_first_nonzero_level(d, factor):
    d = dict(d, levels=[list(x) for x in d["levels"]])
    next(x for x in d["levels"] if x[2] != 0.0)[2] *= factor
    return d


def test_level_sum_perturbed_by_one_part_in_1e9():
    for sig, preset, window, full in ((BUMP, "ex5.1", (0, 0), False),
                                      (IND, "ex5.2", (-4, 4), True)):
        d = _report(sig, preset, *window)
        assert oracles.check_frame_report(d, sig, preset, *window, full) == []
        bad = _perturb_first_nonzero_level(d, 1.0 + 1e-9)
        problems = oracles.check_frame_report(bad, sig, preset, *window, full)
        assert any("oracle" in p for p in problems), problems


def test_direct_sum_above_identity_value():
    log2_n, ell, j = 14, 3, 0
    grid = nuframes.FrequencyGrid(F(0), F(1, 2), log2_n)
    setup = nuframes.preset("ex5.1")
    det = nuframes.lattice_sum_direct_detail(
        workloads._program_signal(BUMP).fhat, nuframes.derive_generator(setup, ell),
        setup.ts, j, M=64, grid=grid)
    d = dataclasses.asdict(det)
    assert oracles.check_direct(d, BUMP, "ex5.1", ell, j, log2_n) == []
    ident, _ = oracles.reference_level_sum(BUMP, "ex5.1", ell, j)
    d["value"] = d["even_part"] = ident * (1.0 + 1e-6)
    d["offset_part"] = 0.0
    problems = oracles.check_direct(d, BUMP, "ex5.1", ell, j, log2_n)
    assert any("same-grid identity value" in p for p in problems), problems


def test_non_monotone_level_profile():
    sig = Signal("ind", F(3, 64), F(9, 64))
    prof = nuframes.level_profile(workloads._program_signal(sig).fhat,
                                  nuframes.preset("ex5.2"), range(-4, 5))
    nrm = float(sig.norm_sq)
    levels = [list(x) for x in prof]
    assert oracles.check_profile(levels, sig, "ex5.2", nrm) == []
    # Swap two unequal neighbours: each value still matches some level, but
    # the profile now falls.
    k = next(i for i in range(len(levels) - 1) if levels[i][1] < levels[i + 1][1])
    levels[k][1], levels[k + 1][1] = levels[k + 1][1], levels[k][1]
    problems = oracles.check_profile(levels, sig, "ex5.2", nrm)
    assert any("decreases" in p for p in problems), problems


def test_changed_cli_report_bytes():
    job = workloads._cli_job("oep", [], "unused", oracles.check_oep_report)
    good = (b'{"setup": "ex5.2", "residual": 0.0, "theta_min": 1.0, '
            b'"theta_limit_deviation": 0.0, "passed": true}')
    assert job.check((0, good)) == []
    assert job.check((0, good)) == []
    problems = job.check((0, good.replace(b"0.0,", b"0.00,", 1)))
    assert any("differs" in p for p in problems), problems


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for t in tests:
        t()
        print(f"ok {t.__name__}")
