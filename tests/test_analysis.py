import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuframes import (
    FrequencyGrid,
    render,
    GeneralSetup,
    SignalSpec,
    TranslationSet,
    catalog,
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
    preset,
    telescoping_residual,
    validate_setup,
)
from nuframes import analysis, setups, symfunc
from nuframes.analysis import _coset_sq, _exact_sum, _half_line_support, _resolve_grid
from nuframes.errors import (
    NegativeSqrt,
    SupportViolation,
    ThetaNotPositive,
    TruncationGuard,
    UepPreconditionFailed,
)
from nuframes.symfunc import (
    ImaginaryUnit,
    Indicator,
    RealConst,
    Scale,
    dilate_arg,
    product_of,
    zero_outside,
)

TS = TranslationSet(2, 3)


# ---------------------------------------------------------------------------
# the exact sum kernel

_MAX = np.finfo(np.float64).max

_ORDINARY = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-(2**53), 2**53).map(float),
    st.sampled_from([0.0, -0.0, 1.0, 1e16, -1e16, 5e-324, -5e-324, 2.0**-1022]),
)
_EXTREME = st.one_of(
    _ORDINARY,
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, _MAX, -_MAX, 2.0**1000,
                     -(2.0**1000), math.nextafter(_MAX, 0.0), 2.0**997]),
)


@st.composite
def _split_summands(draw, elements):
    """Values with some of their negatives mixed in (cancellation), in
    random order, cut into up to four chunks, with up to three runs of one
    value put in among them as zero-stride np.broadcast_to views."""
    xs = draw(st.lists(elements, max_size=40))
    if xs:
        xs += [-x for x in draw(st.lists(st.sampled_from(xs), max_size=20))]
    xs = draw(st.permutations(xs))
    cuts = sorted(draw(st.lists(st.integers(0, len(xs)), max_size=3)))
    chunks = np.split(np.array(xs, dtype=np.float64), cuts)
    for v, k in draw(st.lists(st.tuples(elements, st.integers(1, 1 << 14)), max_size=3)):
        chunks.insert(draw(st.integers(0, len(chunks))), np.broadcast_to(np.float64(v), k))
    return np.concatenate(chunks).tolist(), chunks


def _outcome(fn):
    """A sum's result as its exact bits (any nan as 'nan'), or the type and
    message of what it raised."""
    try:
        v = fn()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(v) else v.hex()


@settings(deadline=None, max_examples=300)
@given(case=_split_summands(_ORDINARY))
def test_exact_sum_equals_fsum(case):
    xs, chunks = case
    assert _outcome(lambda: _exact_sum(lambda: chunks)) == _outcome(lambda: math.fsum(xs))


@settings(deadline=None, max_examples=300)
@given(case=_split_summands(_EXTREME))
def test_exact_sum_equals_fsum_at_the_float_edges(case):
    """inf, nan and values near the float maximum give fsum's result or
    exception, wherever the chunks are cut."""
    xs, chunks = case
    assert _outcome(lambda: _exact_sum(lambda: chunks)) == _outcome(lambda: math.fsum(xs))


def test_exact_sum_cases():
    # finite values whose running sum overflows: fsum's exception
    for chunks in ([np.array([1e308, 1e308, -1e308])],
                   [np.array([1e308]), np.array([1e308, -1e308])]):
        with pytest.raises(OverflowError):
            _exact_sum(lambda: chunks)
    assert _exact_sum(lambda: []) == 0.0
    assert _exact_sum(lambda: [np.array([1e16, 1.0, -1e16])]) == 1.0
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1 << 20) * 2.0 ** rng.integers(-60, 60, 1 << 20)
    halves = np.split(x, [1 << 19])
    assert _exact_sum(lambda: halves) == math.fsum(x)
    # a zero-stride run is its value K times, in the sum and in the bound
    # on Σ|x| past which fsum itself runs
    for v, k in ((0.1, 1 << 20), (0.75 * 2.0**1021, 16), (-(2.0**-1074), 3)):
        run = [np.broadcast_to(v, k)]
        assert _outcome(lambda: _exact_sum(lambda: run)) == _outcome(lambda: math.fsum([v] * k))


def _spread(rng, n, lo, hi):
    """n random signed 53-bit values with frexp exponents drawn from [lo, hi]."""
    mant = rng.integers(2**52, 2**53, n).astype(np.float64) * rng.choice([-1.0, 1.0], n)
    return np.ldexp(mant, rng.integers(lo, hi + 1, n) - 53)


def _count_calls(monkeypatch, *names):
    """Count the calls of the named analysis helpers from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, real=getattr(analysis, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(analysis, name, counted)
    return calls


@pytest.mark.parametrize("n", [4097, 1 << 14, 1 << 17])
def test_exact_sum_on_block_sizes(n, monkeypatch):
    """Blocks of the sizes the integrals stream, each summed as fsum sums
    it.  One extraction pass (one _units call) over n values peels
    53 − bit_length(n + 2) bits off the largest remaining value, so the
    exponent spans below take 1, 2 and 3 passes, or reach the bincount
    remainder (_binned).  Subnormal blocks, and blocks whose σ would pass
    2^1023, go to the remainder at once; a block past the bound on Σ|x|
    goes to fsum."""
    calls = _count_calls(monkeypatch, "_units", "_binned")
    rng = np.random.default_rng(n)
    peel = 53 - (n + 2).bit_length()
    pairs = _spread(rng, n, 0, 0)
    pairs[1::2] = -np.nextafter(pairs[0::2][: n // 2], 0.0)
    edge = (1 << (n.bit_length() - 1)) - 1  # edge + 2 has one bit more
    top = 1023 - edge.bit_length()  # the largest e with edge·2^e < 2^1023
    cases = [
        (rng.integers(-(1 << 20), 1 << 20, n).astype(np.float64), 1, 0),
        (_spread(rng, n, 0, 0), 2, 0),
        (pairs, 2, 0),
        (_spread(rng, n, -peel, 0), 3, 0),
        (_spread(rng, n, -2 * peel, 0), 3, 1),
        (_spread(rng, n, -1074, 1000), 3, 1),
        (rng.integers(-(2**52), 2**52, n) * 5e-324, 0, 1),
        (rng.uniform(-1.0, 1.0, edge) * 2.0**top, 0, 1),
        (np.full(n, np.nextafter(2.0**1023 / n, 0.0)), 0, 0),
    ]
    for values, passes, binned in cases:
        calls.update(_units=0, _binned=0)
        got = _outcome(lambda: _exact_sum(lambda: (values,)))
        assert (calls["_units"], calls["_binned"]) == (passes, binned)
        assert got == _outcome(lambda: math.fsum(values.tolist()))


def test_exact_sum_counts_a_long_run():
    """A zero-stride run of 2^26 cells is its one value 2^26 times."""
    for v in (0.1, -(2.0**-1074), 3.0 * 2.0**990):
        run = np.broadcast_to(v, 1 << 26)
        assert _exact_sum(lambda: (run,)) == float(F(v) * (1 << 26))


def test_exact_sum_takes_the_fast_path(monkeypatch):
    """Extraction alone sums a smooth integral's values; the bincount
    remainder is reached only by a block whose exponents span more bits
    than the passes peel."""
    calls = _count_calls(monkeypatch, "_binned")
    bump = hann_bump(F(3, 16), F(5, 16))
    assert norm_sq(bump.fhat, bump.support, FrequencyGrid(F(0), F(1, 2), 16)) > 0.0
    assert calls["_binned"] == 0
    wide = np.ldexp(1.0, np.arange(-1074, 1001))
    assert _exact_sum(lambda: (wide,)) == math.fsum(wide)
    assert calls["_binned"] >= 1


# ---------------------------------------------------------------------------
# grids


def test_grid_validation():
    with pytest.raises(ValueError, match="at least 10 and at most 26, got 9$"):
        FrequencyGrid(F(0), F(1, 2), 9)
    with pytest.raises(ValueError, match="at least 10 and at most 26, got 27$"):
        FrequencyGrid(F(0), F(1, 2), 27)
    with pytest.raises(ValueError, match="a < b"):
        FrequencyGrid(F(1, 2), F(1, 2), 12)


def _midpoints(grid):
    """Every midpoint of the grid as one array."""
    return np.concatenate([g for _, g in symfunc.grid_blocks(grid.a, grid.b, grid.log2_n)])


def test_grid_geometry():
    g = FrequencyGrid(F(0), F(1, 2), 10)
    assert g.n == 1024
    assert g.h == 0.5 / 1024
    pts = _midpoints(g)
    assert len(pts) == 1024
    assert pts[0] == 0.5 * g.h
    assert pts[-1] == 0.5 - 0.5 * g.h


def test_default_grid():
    """Without a grid, the integrals take the 2^20 midpoints of [0, 1/2]."""
    g = _resolve_grid(None)
    assert (g.a, g.b, g.log2_n) == (F(0), F(1, 2), 20)
    assert np.array_equal(_midpoints(g), (np.arange(1 << 20) + 0.5) / (1 << 21))


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
    g, h = _midpoints(grid), grid.h
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
    grid = FrequencyGrid(F(0), F(1, 2), 20)
    g, h = _midpoints(grid), grid.h
    even = _coset_sq(np.conj(evaluate(parse("chi(1/8,1/2]"), g)), 1, h)
    assert even[1] == 0.140625
    assert abs(even[2] - 1 / (8 * math.pi**2)) < 1e-11


def test_coefficient_offset_element():
    """A fractional translation is the same transform of the phase-shifted
    integrand; its m = 0 entry is c at λ = r/N = 3/2."""
    grid = FrequencyGrid(F(0), F(1, 2), 20)
    g, h = _midpoints(grid), grid.h
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
    # inf·0 is nan outside [0, 1/2]: a nan probe is a violation, not a pass
    with pytest.raises(SupportViolation, match="magnitude nan at gamma=0.52734375"):
        _half_line_support(parse("1e200*1e200*sqrt(chi[0,1/2])"))


def test_working_window_enforced(grid14):
    wide = FrequencyGrid(F(0), F(1), 14)
    sig = indicator_signal(F(1, 8), F(1, 2))
    with pytest.raises(ValueError, match=r"\[0, 1/2\]"):
        lattice_sum_parseval(sig.fhat, parse("chi(1/8,1/2]"), TS, 0, wide)


# ---------------------------------------------------------------------------
# support-restricted integrals against full-grid oracles


def _full_grid_level_sum(f_hat, g_hat, ts, j, grid):
    """The identity-route sum over every cell of the grid: one fsum."""
    scale = float(ts.dilation) ** j
    g = _midpoints(grid)
    u = evaluate(f_hat, scale * g) * evaluate(g_hat, g)
    return math.fsum(scale * (u.real * u.real + u.imag * u.imag)) * grid.h


def test_level_sums_equal_full_grid_oracle(ex51, ex52, grid14):
    """Bit for bit, over every preset generator, the catalog and indicators
    whose open or closed brackets land on cell edges, at levels -4..4; many
    of these pairs have disjoint supports."""
    signals = [s.fhat for s in catalog()] + [
        parse(t) for t in ("chi[1/8,1/4)", "chi(3/16,1/4]", "chi(1/64,3/64)")
    ]
    empty = 0
    for setup in (ex51, ex52):
        for ell in range(1, setup.n + 1):
            gen = derive_generator(setup, ell)
            for f in signals:
                for j in range(-4, 5):
                    got = lattice_sum_parseval(f, gen, setup.ts, j, grid14)
                    want = _full_grid_level_sum(f, gen, setup.ts, j, grid14)
                    assert got == want, (ell, render(f), j)
                    empty += want == 0.0
    assert empty > 0


def test_direct_sums_equal_full_grid_oracle(ex51, ex52, grid14):
    """F is evaluated on the support cells only and zero elsewhere; the
    coset sums are the same bits as from F sampled on every cell."""
    h = grid14.h
    g = _midpoints(grid14)
    for setup in (ex51, ex52):
        d = float(setup.ts.dilation)
        phase = np.exp((2j * np.pi * float(setup.ts.offset)) * g)
        for ell in range(1, setup.n + 1):
            gen = derive_generator(setup, ell)
            for sig in catalog():
                for j in range(-2, 5):
                    F_full = (d ** (0.5 * j) * evaluate(sig.fhat, d**j * g)
                              * np.conj(evaluate(gen, g)))
                    even = math.fsum(_coset_sq(F_full, 64, h))
                    off = math.fsum(_coset_sq(F_full * phase, 64, h))
                    got = lattice_sum_direct_detail(sig.fhat, gen, setup.ts, j, M=64,
                                                    grid=grid14)
                    assert (got.even_part, got.offset_part) == (even, off), (ell, j)


def test_direct_route_transforms_only_nonzero_levels(monkeypatch, grid14):
    """Over the 48 cases of acceptance criterion 3, a level whose integrand
    is ±0 on every cell (an empty proven range, or products that evaluate
    to zero) returns 0.0 without a coset FFT; every other level takes one
    per coset."""
    calls = _count_calls(monkeypatch, "_coset_sq")
    g = _midpoints(grid14)
    zero = 0
    for sig in (hann_bump(F(9, 64), F(31, 64)), indicator_signal(F(1, 8), F(1, 2))):
        for name in ("ex5.1", "ex5.2"):
            s = preset(name)
            d = float(s.ts.dilation)
            for ell in range(1, s.n + 1):
                gen = derive_generator(s, ell)
                for j in range(-1, 5):
                    nonzero = (evaluate(sig.fhat, d**j * g) * evaluate(gen, g)).any()
                    before = calls["_coset_sq"]
                    got = lattice_sum_direct_detail(sig.fhat, gen, s.ts, j, M=64, grid=grid14)
                    assert calls["_coset_sq"] - before == 2 * nonzero, (name, ell, j)
                    if not nonzero:
                        assert got == analysis.DirectLevelSum(0.0, 0.0, 0.0, 0.0, 64)
                    zero += not nonzero
    assert zero == 28


def test_direct_level_nonzero_on_one_cell(monkeypatch, ex52, grid14):
    """An integrand nonzero on one cell still takes both transforms and
    gives the full-grid sums.  One that is nan on every cell (inf times 0
    where ĝ vanishes, nan outside the indicator) is nonzero too: it still
    takes both and raises."""
    h = F(1, 2 * grid14.n)
    k = 6000
    f = Indicator(k * h, (k + 1) * h, True, True)
    gen = derive_generator(ex52, 1)
    g = _midpoints(grid14)
    F_full = evaluate(f, g) * np.conj(evaluate(gen, g))
    assert np.count_nonzero(F_full) == 1
    phase = np.exp((2j * np.pi * float(ex52.ts.offset)) * g)
    want = (math.fsum(_coset_sq(F_full, 64, grid14.h)),
            math.fsum(_coset_sq(F_full * phase, 64, grid14.h)))
    calls = _count_calls(monkeypatch, "_coset_sq")
    got = lattice_sum_direct_detail(f, gen, ex52.ts, 0, M=64, grid=grid14)
    assert calls["_coset_sq"] == 2
    assert (got.even_part, got.offset_part) == want
    assert got.value > 0.0
    nan = parse("1e200*1e200*chi(0,1/4]")
    with np.errstate(invalid="ignore"):
        assert np.isnan(evaluate(nan, 4.0 * g) * evaluate(gen, g)).all()
    with pytest.raises(ValueError, match="level 1 direct sum against .* is nan"):
        lattice_sum_direct_detail(nan, gen, ex52.ts, 1, M=64, grid=grid14)
    assert calls["_coset_sq"] == 4


def test_level_sum_keeps_cells_a_rounded_scale_moves():
    """With dilation 6 the scale 6^-1 is inexact and scale·γ rounds.  An
    indicator starting exactly at a product that rounded up takes in a
    cell whose exact product lies below it; support_cells decides each cell
    on the rounded float the scan evaluates, so it keeps that cell."""
    ts = TranslationSet(3, 1)
    grid = FrequencyGrid(F(0), F(1, 2), 10)
    g = _midpoints(grid)
    x = 6.0**-1 * g
    k = next(k for k in range(grid.n) if F(x[k]) > F(6.0**-1) * F(g[k]))
    f = Indicator(F(x[k]), F(1), True, True)
    gen = parse("chi(0,1/2]")
    got = lattice_sum_parseval(f, gen, ts, -1, grid)
    assert got == _full_grid_level_sum(f, gen, ts, -1, grid)


def test_level_sum_with_subnormal_scale_keeps_every_cell(ex52, grid14):
    """At 4^-535 the products scale·γ of the first thousand cells underflow
    to 0, inside chi[-1,0], though their exact values lie outside it; at
    4^-600 the scale itself is 0.  support_cells decides each cell on the
    evaluated product, so it keeps the 1024 cells that underflow at 4^-535
    and every cell at 4^-600, and both sums equal the full-grid sums."""
    f = parse(f"{2**40}*chi[-1,0]")
    sums = [lattice_sum_parseval(f, ex52.psi0_hat, ex52.ts, j, grid14) for j in (-535, -600)]
    assert sums[0] > 0.0
    for j, got in zip((-535, -600), sums):
        assert got == _full_grid_level_sum(f, ex52.psi0_hat, ex52.ts, j, grid14)


def test_integrals_on_two_chunks_take_one_fsum(ex52):
    """At 2^21 cells the grid streams in 128 blocks; the integral is the
    exactly rounded sum over all of them, whichever cells the support pass
    keeps."""
    grid = FrequencyGrid(F(0), F(1, 2), 21)
    sig = hann_bump(F(3, 16), F(5, 16))
    g = _midpoints(FrequencyGrid(F(3, 16), F(5, 16), 21))
    v = evaluate(sig.fhat, g)
    want = math.fsum(v.real * v.real + v.imag * v.imag) * float(F(1, 8) / (1 << 21))
    assert norm_sq(sig.fhat, sig.support, grid) == want
    gen = derive_generator(ex52, 1)
    got = lattice_sum_parseval(sig.fhat, gen, ex52.ts, 0, grid)
    assert got == _full_grid_level_sum(sig.fhat, gen, ex52.ts, 0, grid)


def test_unproved_integrands_are_evaluated_everywhere(ex52, grid14):
    """Sqrt, recip and overflowing products prove no support, so their
    errors surface even where the analyzing function's support would
    otherwise skip every cell."""
    gen = derive_generator(ex52, 1)
    sqrt_f = parse("sqrt(g-1)*chi(0,1/4]")
    recip_f = parse("recip(g - 1/8)*chi(1/8,1/4]")
    for j in (-4, 0, 4):
        with pytest.raises(NegativeSqrt):
            lattice_sum_parseval(sqrt_f, gen, ex52.ts, j, grid14)
        with pytest.raises(ThetaNotPositive):
            lattice_sum_parseval(recip_f, gen, ex52.ts, j, grid14)
    with pytest.raises(NegativeSqrt):
        norm_sq(sqrt_f, (F(1, 2), F(1)), grid14)
    big = parse("1e200*1e200*chi(0,1/4]")
    assert zero_outside(big, 0, F(1, 2)) is None
    for j in (-4, 3):
        with pytest.raises(ValueError, match=f"level {j} sum against .* nan"):
            lattice_sum_parseval(big, gen, ex52.ts, j, grid14)
    # finite values whose exact sum overflows: fsum's OverflowError becomes inf
    with pytest.raises(ValueError, match="level 0 sum against chi.* is inf"):
        lattice_sum_parseval(parse("1e154*chi(0,1/4]"), ex52.psi0_hat, ex52.ts, 0, grid14)
    with pytest.raises(ValueError, match="level 0 direct sum"):
        lattice_sum_direct_detail(big, gen, ex52.ts, 0, M=16, grid=grid14)
    with pytest.raises(ValueError, match="squared norm of .* over"):
        norm_sq(parse("1e200*chi(0,1/4]"), (F(0), F(1, 4)), grid14)


def test_norm_sq_far_from_zero_keeps_every_cell():
    """Where float midpoints stray by more than a cell, nothing is skipped:
    here every midpoint rounds to 1000, inside the indicator's float bounds,
    while the exact midpoints mostly lie below them."""
    a, b = F(1000), F(1000) + F(1, 1 << 45)
    f = parse(f"chi[{a + F(1, 1 << 47)},{b}]")
    g = _midpoints(FrequencyGrid(a, b, 10))
    v = evaluate(f, g)
    want = math.fsum(v.real * v.real) * float((b - a) / 1024)
    assert want > 0.0
    assert norm_sq(f, (a, b), FrequencyGrid(F(0), F(1, 2), 10)) == want


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
    nrm = norm_sq(sig.fhat, sig.support, grid14)
    for setup in (ex51, ex52):
        value = lattice_sum_parseval(sig.fhat, setup.psi0_hat, setup.ts, 0, grid14)
        assert 0.0 <= value <= (1.0 + 1e-9) * nrm


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

@pytest.mark.parametrize("block", [1 << 10, 1 << 20])
def test_block_size_changes_no_report(monkeypatch, ex51, ex52, block):
    """Grids stream in blocks of symfunc.BLOCK_CELLS; validate and parseval
    reports are equal whether a 2^16 grid is cut into 64 blocks, 4 or 1."""
    grid = FrequencyGrid(F(0), F(1, 2), 16)

    def reports():
        return [
            (validate_setup(s, 16).to_dict(),
             parseval_report(sig, s, -4, 4, grid=grid).to_dict())
            for s in (ex51, ex52)
            for sig in (hann_bump(F(9, 64), F(31, 64)), indicator_signal(F(1, 8), F(1, 2)))
        ]

    want = reports()
    monkeypatch.setattr(symfunc, "BLOCK_CELLS", block)
    assert reports() == want


def test_all_indicator_scans_cost_one_evaluation_per_piece(monkeypatch, ex52):
    """ex5.2 and an indicator signal are piecewise constant, so validate and
    identity parseval evaluate each expression once per piece, as often on
    2^26 cells as on 2^20 (where blocks took 250 and 202 evaluations)."""
    calls = []
    for mod in (setups, analysis):
        monkeypatch.setattr(mod, "evaluate_block",
                            lambda e, g, f=mod.evaluate_block: calls.append(g) or f(e, g))

    def count(run):
        calls.clear()
        run()
        return len(calls)

    sig = indicator_signal(F(1, 8), F(1, 2))
    for run in (
        lambda k: validate_setup(ex52, k),
        lambda k: parseval_report(sig, ex52, -4, 4, grid=FrequencyGrid(F(0), F(1, 2), k)),
    ):
        assert count(lambda: run(20)) == count(lambda: run(26)) < 40


def test_each_generator_is_proved_once(monkeypatch, ex51, grid14):
    """parseval_report (both routes), level_profile and telescoping_residual
    check each generator's support and find its cells once, however many
    levels they sum against it."""
    gens = [ex51.psi0_hat] + [derive_generator(ex51, ell) for ell in range(1, ex51.n + 1)]
    checked, cells = [], []
    monkeypatch.setattr(analysis, "_half_line_support",
                        lambda e, f=analysis._half_line_support: checked.append(e) or f(e))
    monkeypatch.setattr(analysis, "support_cells",
                        lambda e, *a, f=analysis.support_cells: (e in gens and cells.append(e))
                        or f(e, *a))
    sig = hann_bump(F(9, 64), F(31, 64))
    for run, want in (
        (lambda: parseval_report(sig, ex51, -2, 2, grid=grid14), gens[1:]),
        (lambda: parseval_report(sig, ex51, 0, 1, "direct", 64, grid14), gens[1:]),
        (lambda: level_profile(sig.fhat, ex51, range(-2, 3), grid14), gens[:1]),
        (lambda: telescoping_residual(sig.fhat, ex51, [0, 1, 2], grid14), gens),
    ):
        checked.clear()
        cells.clear()
        run()
        assert checked == cells == want


# ---------------------------------------------------------------------------
# golden bits

# (preset, signal, route, level sums in (ell, j) order for j = -4..4, total,
# signal_norm_sq), recorded from the complex128 evaluator and math.fsum.
# Identity route on a 2^16 grid, direct route on 2^14 with M = 64; the
# expression signals take the declared support [0, 1/4].
_GOLDEN = [
    ('ex5.1', 'bump(9/64,31/64)', 'parseval',
     [
      0.0, 0.0, 0.0,
      0.0, 0.0, 5.026398311260741e-05,
      3.1473760322855048e-06, 1.967339779287374e-07, 1.229596337472461e-08,
      0.0, 0.0, 0.0,
      0.0, 0.0, 0.00020131379716210323,
      1.2590512429849592e-05, 7.869398506379179e-07, 4.918386888537691e-08,
      0.0, 0.0, 0.0,
      0.0, 0.12863788507894594, 0.0,
      0.0, 0.0, 0.0,
     ], 0.1289062459013436, 0.12890625),
    ('ex5.2', 'bump(1/4,2)', 'parseval',
     [
      0.0, 0.0, 0.0,
      0.0, 0.0018428257658044099, 0.6544071742534204,
      0.0, 0.0, 0.0,
     ], 0.6562500000192248, 0.65625),
    ('ex5.1', 'sqrt(abs2(sin(3*g)))*chi(0,1/4]', 'parseval',
     [
      2.0397095769442725e-13, 1.3054041281933024e-11, 8.35356237091055e-10,
      5.335803164300033e-08, 3.30917811785118e-06, 5.993938194781958e-06,
      3.7490348039431684e-07, 2.343251143178908e-08, 1.4644766826901107e-09,
      8.175937119051713e-13, 5.232559660680188e-11, 3.348427628078587e-09,
      2.1387934160275854e-07, 1.3264369652961703e-05, 2.398814513904485e-05,
      1.4996623491694338e-06, 9.373023490125073e-08, 5.857907469656703e-09,
      2.1932665932227744e-08, 1.4035439807739758e-06, 8.967678176252039e-05,
      0.005587715812361236, 0.03614777270243822, 0.0,
      0.0, 0.0, 0.0,
     ], 0.041875416942831686, 0.041875417781181035),
    ('ex5.2', 'recip(1 + g*g)*chi(0,1/4]', 'parseval',
     [
      0.0014648388605735198, 0.005859062093059173, 0.023417490686673516,
      0.0924862859992006, 0.1164204315759837, 0.0,
      0.0, 0.0, 0.0,
     ], 0.2396481092154905, 0.24013639038746698),
    ('ex5.1', '(1+i)*sinc(9*g)*chi(0,1/4]', 'parseval',
     [
      3.170220449759151e-07, 1.2680147526165967e-06, 5.0673618668890605e-06,
      1.9971076059544624e-05, 6.293354520766308e-05, 1.4667758186113444e-05,
      9.171774030873524e-07, 5.732534746639581e-08, 3.5828718415545064e-09,
      1.2703197084945064e-06, 5.080984509293177e-06, 2.030511008863247e-05,
      8.00244552705026e-05, 0.00025215432763597617, 5.869045021152394e-05,
      3.6687854861828427e-06, 2.293016862538497e-07, 1.4331488523996067e-08,
      0.0029228886482455993, 0.011683662142951615, 0.046232748822202206,
      0.15589962724971637, 0.0895539374903493, 0.0,
      0.0, 0.0, 0.0,
     ], 0.30681950528329066, 0.3077943735971351),
    ('ex5.1', 'bump(9/64,31/64)', 'direct',
     [
      0.0, 0.0, 0.0,
      0.0, 0.0, 5.026397783225785e-05,
      3.147021488801275e-06, 1.4735623560875077e-07, 2.7386990806955436e-09,
      0.0, 0.0, 0.0,
      0.0, 0.0, 0.00020131377598699976,
      1.2589094025037645e-05, 5.894278877018596e-07, 1.0954799746323694e-08,
      0.0, 0.0, 0.0,
      0.0, 0.12863788506880208, 0.0,
      0.0, 0.0, 0.0,
     ], 0.1289059494157573, 0.12890625),
    ('ex5.1', '(1+i)*sinc(9*g)*chi(0,1/4]', 'direct',
     [
      3.140396339212694e-07, 1.2560862601549849e-06, 5.0197215611102356e-06,
      1.9785180076007113e-05, 6.24424144945455e-05, 1.4576064959353898e-05,
      8.93982350681865e-07, 4.1413647850610675e-08, 7.677208952813432e-10,
      1.2583550380358958e-06, 5.0331304480123375e-06, 2.0113989364857627e-05,
      7.927868812025875e-05, 0.00025018403666140165, 5.8323408478214785e-05,
      3.5760010229416193e-06, 1.6565478889994186e-07, 3.0708838092852513e-09,
      0.002916768180950603, 0.011659200311776793, 0.04613617127295361,
      0.15558272827205444, 0.08895282876502034, 0.0,
      0.0, 0.0, 0.0,
     ], 0.30576996280826674, 0.3077943736461479),
    ('ex5.2', 'ind(1/8,1/2)', 'parseval',
     [
      0.0, 0.0, 0.0,
      0.0, 0.375, 0.0,
      0.0, 0.0, 0.0,
     ], 0.375, 0.375),
]


def _golden_signal(label):
    for name, family in (("bump(", hann_bump), ("ind(", indicator_signal)):
        if label.startswith(name):
            a, b = label[len(name):-1].split(",")
            return family(F(a), F(b))
    return SignalSpec(parse(label), (F(0), F(1, 4)), label)


@pytest.mark.parametrize("name, label, route, levels, total, nrm", _GOLDEN)
def test_reports_keep_golden_bits(name, label, route, levels, total, nrm):
    """Float64 evaluation and the exact sum give the recorded bits: sin,
    cos and sinc generators, indicators, a bump, sqrt, abs2, recip, a
    complex signal and an all-indicator report, on both routes."""
    grid = FrequencyGrid(F(0), F(1, 2), 16 if route == "parseval" else 14)
    r = parseval_report(_golden_signal(label), preset(name), -4, 4,
                        route=route, M=64, grid=grid)
    assert [v for (_, _, v) in r.levels] == levels
    assert (r.total, r.signal_norm_sq) == (total, nrm)
