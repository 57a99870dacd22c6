import math
from fractions import Fraction as F

import numpy as np
import pytest

from nuframes import (
    FrequencyGrid,
    GeneralSetup,
    SignalSpec,
    TranslationSet,
    bessel_check,
    default_grid,
    derive_generator,
    evaluate,
    hann_bump,
    indicator_signal,
    lattice_sum_direct_detail,
    lattice_sum_parseval,
    level_profile,
    norm_sq,
    parse,
    parseval_report,
    telescoping_residual,
)
from nuframes.analysis import _coset_sq
from nuframes.errors import SupportViolation, TruncationGuard, UepPreconditionFailed
from nuframes.symfunc import ImaginaryUnit, RealConst, Scale, dilate_arg, product_of

TS = TranslationSet(2, 3)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError, match=r"\[10, 26\]"):
        FrequencyGrid(F(0), F(1, 2), 9)
    with pytest.raises(ValueError, match=r"\[10, 26\]"):
        FrequencyGrid(F(0), F(1, 2), 27)
    with pytest.raises(ValueError, match="a < b"):
        FrequencyGrid(F(1, 2), F(1, 2), 12)


def test_grid_geometry():
    g = FrequencyGrid(F(0), F(1, 2), 10)
    assert g.n == 1024
    assert g.h == 0.5 / 1024
    pts = g.points()
    assert len(pts) == 1024
    assert pts[0] == 0.5 * g.h
    assert pts[-1] == 0.5 - 0.5 * g.h


def test_grid_points_cap():
    big = FrequencyGrid(F(0), F(1, 2), 23)
    with pytest.raises(ValueError, match="chunks"):
        big.points()
    total = sum(len(c) for c in big.chunks())
    assert total == 1 << 23


def test_default_grid():
    g = default_grid()
    assert (g.a, g.b, g.log2_n) == (F(0), F(1, 2), 20)


# ---------------------------------------------------------------------------
# the direct-route coefficient kernel


def _quadrature_sq(values, g, lam, h):
    """|c_λ|² by one midpoint quadrature at λ: an np.exp phase, then fsum
    over the real and imaginary parts separately."""
    v = values * np.exp((2j * np.pi * float(lam)) * g)
    c = complex(math.fsum(v.real) * h, math.fsum(v.imag) * h)
    return c.real * c.real + c.imag * c.imag


@pytest.mark.parametrize(
    "ts", [TS, TranslationSet(3, 1)], ids=lambda ts: f"N{ts.N}r{ts.r}"
)
def test_coset_kernel_matches_per_coefficient_quadrature(ex51, ts):
    """Every |c_λ|² of both cosets, λ ∈ {2m, r/N + 2m : |m| ≤ M}, agrees
    with its own quadrature; M = 81 is the largest the guard allows at 2^12."""
    grid = FrequencyGrid(F(0), F(1, 2), 12)
    M = 81
    assert M * grid.h <= 0.01 < (M + 1) * grid.h
    g, h = grid.points(), grid.h
    j = 1
    f = hann_bump(F(9, 64), F(31, 64)).fhat
    gen = derive_generator(ex51, 1)
    integrand = (
        float(ts.dilation) ** (0.5 * j)
        * evaluate(f, float(ts.dilation) ** j * g)
        * np.conj(evaluate(gen, g))
    )
    ms = range(-M, M + 1)
    cosets = [
        (_coset_sq(integrand, M, h), [2 * m for m in ms]),
        (
            _coset_sq(integrand * np.exp((2j * np.pi * float(ts.offset)) * g), M, h),
            [ts.offset + 2 * m for m in ms],
        ),
    ]
    for got, lams in cosets:
        want = np.array([_quadrature_sq(integrand, g, lam, h) for lam in lams])
        assert got.shape == want.shape == (2 * M + 1,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_coefficient_against_antiderivative():
    """Closed forms for the indicator χ(1/8, 1/2] on the even coset:
    c₀ = 3/8 and c₂ = −(1 + i)/(4π)."""
    grid = default_grid()
    g, h = grid.points(), grid.h
    even = _coset_sq(np.conj(evaluate(parse("chi(1/8,1/2]"), g)), 1, h)
    assert even[1] == 0.140625
    assert abs(even[2] - 1 / (8 * math.pi**2)) < 1e-11


def test_coefficient_offset_element():
    """A fractional translation is the same transform of the phase-shifted
    integrand; its m = 0 entry is c at λ = r/N = 3/2."""
    grid = default_grid()
    g, h = grid.points(), grid.h
    integrand = np.conj(evaluate(parse("chi(1/8,1/2]"), g))
    lam = float(TS.offset)
    off = _coset_sq(integrand * np.exp((2j * np.pi * lam) * g), 1, h)
    k = 2j * math.pi * lam
    want = (math.e ** (k * 0.5) - math.e ** (k * 0.125)) / k
    assert abs(off[1] - abs(want) ** 2) < 1e-11


def test_coefficient_requires_working_window():
    wide = FrequencyGrid(F(0), F(1), 14)
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1/2\]"):
        lattice_sum_direct_detail(sig.fhat, parse("chi(1/8,1/2]"), TS, 0, M=16, grid=wide)


# ---------------------------------------------------------------------------
# the two lattice-sum routes


@pytest.fixture(scope="module")
def sharp():
    from nuframes import preset

    s = preset("ex5.2")
    return s, derive_generator(s, 1)


def test_identity_route_exact_on_dyadic_data(sharp, grid14):
    s, gen = sharp
    sig = indicator_signal(F(1, 8), F(1, 2))
    assert lattice_sum_parseval(sig.fhat, gen, s.ts, 0, grid14) == 0.375


def test_direct_route_converges_from_below(sharp, grid14):
    s, gen = sharp
    sig = indicator_signal(F(1, 8), F(1, 2))
    values = [
        lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=M, grid=grid14).value
        for M in (16, 64, 256)
    ]
    for M, v in zip((16, 64, 256), values):
        assert abs(v - 0.375) <= 5.0 / M
    assert values[0] <= values[1] <= values[2] <= 0.375 + 1e-12


def test_direct_route_coset_split(sharp, grid14):
    s, gen = sharp
    sig = indicator_signal(F(1, 8), F(1, 2))
    d = lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=64, grid=grid14)
    assert d.value == d.even_part + d.offset_part
    assert d.even_part > 0 and d.offset_part > 0
    assert d.value_at_half_m <= d.value
    assert d.M == 64
    again = lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=64, grid=grid14)
    assert again.value == d.value


def test_truncation_guard(sharp):
    s, gen = sharp
    sig = indicator_signal(F(1, 8), F(1, 2))
    coarse = FrequencyGrid(F(0), F(1, 2), 10)
    with pytest.raises(TruncationGuard, match="under-resolved"):
        lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=2048, grid=coarse)
    with pytest.raises(ValueError, match="at least 1"):
        lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=0, grid=coarse)


def test_support_probe_rejects_wide_analyzers(grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(SupportViolation, match="outside"):
        lattice_sum_parseval(sig.fhat, parse("chi(0,1]"), TS, 0, grid14)
    with pytest.raises(SupportViolation):
        lattice_sum_parseval(sig.fhat, parse("chi(-1/4,1/4]"), TS, 0, grid14)
    with pytest.raises(SupportViolation):
        lattice_sum_direct_detail(sig.fhat, parse("chi(0,1]"), TS, 0, M=16, grid=grid14)


def test_working_window_enforced(grid14):
    wide = FrequencyGrid(F(0), F(1), 14)
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1/2\]"):
        lattice_sum_parseval(sig.fhat, parse("chi(1/8,1/2]"), TS, 0, wide)


# ---------------------------------------------------------------------------
# structural invariants tying the routes to the frame geometry


def test_dilation_unitarity(sharp, grid14):
    """Pushing the signal down one level while raising j leaves the level
    sum unchanged, bit for bit, because every rescaling is a power of two."""
    s, gen = sharp
    f = hann_bump(F(9, 64), F(31, 64)).fhat
    f_down = product_of(RealConst(4.0**-0.5), dilate_arg(f, F(1, 4)))
    for j in (-1, 0, 1):
        a = lattice_sum_parseval(f, gen, s.ts, j, grid14)
        b = lattice_sum_parseval(f_down, gen, s.ts, j + 1, grid14)
        assert a == b


def test_amplitude_scaling(sharp, grid14):
    s, gen = sharp
    f = hann_bump(F(9, 64), F(31, 64)).fhat
    base = lattice_sum_parseval(f, gen, s.ts, 0, grid14)
    halved = lattice_sum_parseval(Scale(F(1, 2), f), gen, s.ts, 0, grid14)
    assert halved == 0.25 * base
    tripled = lattice_sum_parseval(Scale(F(3), f), gen, s.ts, 0, grid14)
    assert abs(tripled - 9.0 * base) <= 1e-12 * max(1.0, 9.0 * base)


def test_unimodular_analyzer_invariance(sharp, grid14):
    """Multiplying the analyzing function by i changes no modulus, so both
    routes must return identical values."""
    s, gen = sharp
    rotated = product_of(ImaginaryUnit(), gen)
    sig = indicator_signal(F(1, 8), F(1, 2))
    a = lattice_sum_parseval(sig.fhat, gen, s.ts, 0, grid14)
    b = lattice_sum_parseval(sig.fhat, rotated, s.ts, 0, grid14)
    assert a == b
    da = lattice_sum_direct_detail(sig.fhat, gen, s.ts, 0, M=32, grid=grid14).value
    db = lattice_sum_direct_detail(sig.fhat, rotated, s.ts, 0, M=32, grid=grid14).value
    assert da == db


# ---------------------------------------------------------------------------
# level sums against setups


def test_telescoping(ex51, grid14):
    sig = hann_bump(F(9, 64), F(31, 64))
    nrm = norm_sq(sig.fhat, sig.support, grid14)
    rows = telescoping_residual(sig.fhat, ex51, (0, 1), grid14)
    for _, resid in rows:
        assert resid <= 1e-10 * nrm


def test_telescoping_requires_filter_condition(grid14):
    bad = GeneralSetup(
        TS, parse("chi[0,1/8]"), (parse("chi[0,1/32]"), parse("chi[0,1/32]"))
    )
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(UepPreconditionFailed, match="filter condition"):
        telescoping_residual(sig.fhat, bad, [0], grid14)


def test_norm_sq(grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    assert norm_sq(sig.fhat, sig.support, grid14) == 0.375
    bump = hann_bump(F(1, 64), F(1, 16))
    got = norm_sq(bump.fhat, bump.support, grid14)
    want = float(bump.norm_sq_closed)
    assert abs(got - want) <= 1e-12 * want


def test_bessel_bound(ex51, ex52, grid14):
    sig = hann_bump(F(9, 64), F(31, 64))
    for setup in (ex51, ex52):
        value, ok = bessel_check(sig, setup, grid14)
        assert ok
        assert 0.0 <= value


def test_level_profile_vanishes_below_band(ex52, grid14):
    sig = hann_bump(F(1, 64), F(1, 16))
    prof = level_profile(sig.fhat, ex52, range(-8, -1), grid14)
    assert [j for j, _ in prof] == list(range(-8, -1))
    assert all(v == 0.0 for _, v in prof)


def test_level_profile_saturates_at_signal_energy(ex52):
    sig = hann_bump(F(1, 64), F(1, 16))
    (pair,) = level_profile(sig.fhat, ex52, [6])
    nrm = norm_sq(sig.fhat, sig.support)
    assert abs(pair[1] - nrm) <= 1e-12 * nrm


def test_level_profile_monotone(ex52, grid14):
    sig = hann_bump(F(9, 64), F(31, 64))
    prof = level_profile(sig.fhat, ex52, range(-2, 4), grid14)
    vals = [v for _, v in prof]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# reports


def test_report_exact_ratio(ex52, grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    rep = parseval_report(sig, ex52, -4, 4, grid=grid14)
    assert rep.route == "parseval-identity"
    assert rep.ratio == 1.0
    assert rep.total == rep.signal_norm_sq == 0.375
    assert rep.M is None
    assert rep.coset_tail_estimate is None
    assert rep.warnings == ()
    assert len(rep.levels) == 9
    assert [j for (_, j, _) in rep.levels] == list(range(-4, 5))


def test_report_direct_route(ex52, grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    rep = parseval_report(sig, ex52, 0, 1, route="direct", M=64, grid=grid14)
    assert rep.route == "direct-oracle"
    assert rep.M == 64
    assert rep.coset_tail_estimate is not None
    assert 0.0 <= rep.coset_tail_estimate < 0.1
    assert abs(rep.total - rep.signal_norm_sq) < 0.01


def test_report_flags_negative_frequency_mass(ex52, grid14):
    sig = hann_bump(F(-1, 2), F(-1, 4))
    rep = parseval_report(sig, ex52, -2, 2, grid=grid14)
    assert rep.neg_frequency_mass > 0.0
    assert rep.total == 0.0
    assert any("negative" in w for w in rep.warnings)


def test_report_flags_coverage_tail(ex52, grid14):
    sig = hann_bump(F(1, 4), F(2))
    rep = parseval_report(sig, ex52, -2, 0, grid=grid14)
    assert rep.coverage_tail_mass > 0.0
    assert any("coverage" in w for w in rep.warnings)
    full = parseval_report(sig, ex52, -2, 2, grid=grid14)
    assert full.coverage_tail_mass == 0.0


def test_report_zero_norm(ex52, grid14):
    zero = SignalSpec(parse("0"), (F(0), F(1, 4)), "null")
    rep = parseval_report(zero, ex52, 0, 0, grid=grid14)
    assert rep.ratio == 0.0
    assert any("zero" in w for w in rep.warnings)


def test_report_validation(ex52, grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(ValueError, match="empty level window"):
        parseval_report(sig, ex52, 2, 1, grid=grid14)
    with pytest.raises(ValueError, match="route"):
        parseval_report(sig, ex52, 0, 1, route="sideways", grid=grid14)


def test_report_serialization_is_deterministic(ex52, grid14):
    sig = indicator_signal(F(1, 8), F(1, 2))
    r1 = parseval_report(sig, ex52, -1, 1, grid=grid14)
    r2 = parseval_report(sig, ex52, -1, 1, grid=grid14)
    assert r1.to_json_text() == r2.to_json_text()
    assert r1.to_json_text().endswith("\n")
    csv = r1.to_csv_text().splitlines()
    assert csv[0] == "generator,level,value"
    assert len(csv) == 1 + len(r1.levels)
