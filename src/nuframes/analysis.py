"""Frame analysis: lattice sums by two independent routes, reports.

Everything integrates by the midpoint rule on dyadic grids.  Midpoints of a
dyadic grid never coincide with dyadic indicator breakpoints (those land on
cell boundaries), so piecewise definitions cost no accuracy, and each
integral is one exact sum over all its cells, equal to math.fsum (correctly
rounded), so results are bit-reproducible and independent of chunking.
Integrands of expressions without ``i`` are evaluated in float64.

Integrals evaluate only the cells symfunc.support_cells keeps for their
integrand, those whose evaluated argument lies in the support zero_outside
proves, and walk them with symfunc.grid_pieces.  Every skipped cell holds an
exact zero, and an exactly rounded sum or a max does not change when zeros are
dropped or the cells are cut differently, so the results are the same bits
as one array over every cell.  Where nothing is proved, every cell is
evaluated.  The validate scans in setups skip proven zeros the same way.
An integrand of indicators and constants is cut where an indicator flips,
and each piece's one value enters the exact sum as a zero-stride view,
which converts it once and counts it once per cell, so it costs O(pieces);
any other integrand walks blocks of BLOCK_CELLS (2^14) cells, so the
temporaries of an evaluation stay in cache.  Evaluation and the integrands
overwrite those temporaries rather than allocate at every step: a value is
written over only when it is an array the evaluation itself allocated, has
the block's shape and more than one element, and can hold the result (see
symfunc.evaluate_block); the operand order, and so every bit, is kept.
The direct route, whose FFT needs every sample at once, evaluates the kept
cells [k0, k1) as one array into a zero grid; a level whose integrand is
±0 on all of them is 0.0 and takes no FFT.

The Parseval frame property is verified by two deliberately independent
routes:

  direct    : truncated lattice sum Σ_λ |c_λ|² of coefficient quadratures
              c_λ = ∫₀^{1/2} (2N)^{j/2} f̂((2N)^j γ) conj(ĝ(γ)) e^{2πiλγ} dγ
              over the window λ ∈ {2m, r/N + 2m : |m| ≤ M}, each coset's
              quadratures taken at once by one inverse FFT;
  identity  : the closed form Σ_λ |c_λ|² = ∫₀^{1/2} |(2N)^{j/2} f̂((2N)^j γ)
              ĝ(γ)|² dγ, valid whenever supp ĝ ⊆ [0, 1/2] (both cosets of Λ
              contribute half of ‖f̂(...)ĝ‖² by Fourier-series completeness
              on a length-1/2 window).

The two never share intermediate results, so their agreement is evidence the
frame identity actually holds for the setup at hand.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SupportViolation, TruncationGuard, UepPreconditionFailed
from .lattice import TranslationSet
from .setups import GeneralSetup, check_grid_log2, derive_generator, uep_residual
from .signals import SignalSpec, probe_support
from .symfunc import (
    FreqExpr,
    _abs2,
    _apply,
    _out,
    evaluate,
    evaluate_block,
    grid_blocks,
    grid_pieces,
    render,
    support_cells,
)

_POINTS_MAX_LOG2 = 22
_SUPPORT_REACH = Fraction(4)
# The filter-condition residual up to which telescoping_residual runs.
_UEP_TOL = 1e-8

ROUTE_PARSEVAL = "parseval"
ROUTE_DIRECT = "direct"
_ROUTE_NAMES = {ROUTE_PARSEVAL: "parseval-identity", ROUTE_DIRECT: "direct-oracle"}


@dataclass(frozen=True)
class FrequencyGrid:
    """Regular midpoint grid: 2^log2_n cells on [a, b], sample points at
    cell midpoints a + (k + 1/2)h, h = (b − a)/2^log2_n."""

    a: Fraction
    b: Fraction
    log2_n: int

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not self.a < self.b:
            raise ValueError(f"grid needs a < b, got [{self.a}, {self.b}]")
        check_grid_log2(self.log2_n)

    @property
    def n(self) -> int:
        return 1 << self.log2_n

    @property
    def h(self) -> float:
        return float((self.b - self.a) / self.n)

    def to_meta(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "log2_n": self.log2_n}


def _resolve_grid(grid: FrequencyGrid | None) -> FrequencyGrid:
    """grid, or the working grid every identity integrates over by default:
    [0, 1/2], 2^20 cells."""
    return FrequencyGrid(Fraction(0), Fraction(1, 2), 20) if grid is None else grid


def _require_working_window(grid: FrequencyGrid):
    if grid.a != 0 or grid.b != Fraction(1, 2):
        raise ValueError(
            f"lattice sums integrate over [0, 1/2]; got grid on "
            f"[{grid.a}, {grid.b}]"
        )


# frexp writes a finite nonzero x as u·2^e with 0.5 ≤ |u| < 1 and
# −1073 ≤ e ≤ 1024, so x = (u·2^53)·2^(e + 1073) is an integer in units of
# 2^−1126.
_EXP_OFFSET = 1073
_UNIT_LOG2 = 1126
# Values per chunk: an extraction pass peels at least 53 − 27 bits off a
# chunk's largest value, and the remainder's bin sums stay integers below
# 2^53 (2^26 · 2^27).
_BINCOUNT_MAX = 1 << 26
_EXTRACT_PASSES = 3  # per chunk, before what is left is binned


def _units(x: float) -> int:
    """A finite float as an exact integer in units of 2^−1126."""
    u, e = math.frexp(x)
    return int(u * 2.0**53) << (e + _EXP_OFFSET)


def _binned(c) -> int:
    """The exact sum of the finite array c in units of 2^−1126: with
    np.frexp's u split as u·2^27 = hi + frac (|hi| ≤ 2^27 an integer, frac in
    [0, 1) a multiple of 2^−26), x = (hi + frac)·2^(k−1100) for bin
    k = e + 1073, and a bincount per part sums each bin exactly."""
    u, e = np.frexp(c)
    u *= 2.0**27
    hi = np.floor(u)
    u -= hi
    e += _EXP_OFFSET
    hi_bins = np.bincount(e, weights=hi)
    frac_bins = np.bincount(e, weights=u)
    return (sum(int(hi_bins[k]) << (int(k) + 26) for k in np.flatnonzero(hi_bins))
            + sum(int(frac_bins[k] * 2.0**26) << int(k) for k in np.flatnonzero(frac_bins)))


@np.errstate(all="ignore")
def _exact_sum(arrays) -> float:
    """math.fsum of the concatenated float64 arrays that arrays() yields:
    the correctly rounded sum, bit for bit, or fsum's exception.

    Each chunk p of n values is reduced by error-free extraction (Rump,
    Ogita and Oishi, "Accurate floating-point summation part I: faithful
    rounding", SIAM J. Sci. Comput. 31(1), 2008): for a power of two
    σ ≥ (n + 2)·2^e, where max|p| < 2^e, q = (p + σ) − σ is exact and a
    multiple of σ·2^−53 with |q| ≤ 2^e, so Σq is exact in any order, and
    p − q is exact and at most σ·2^−53.  Each pass adds Σq to one Python
    int and carries p − q on.  What _EXTRACT_PASSES passes leave, or all of
    p when σ would leave [2^−968, 2^1023], is then bincounted per exponent
    (_binned).  The int is rounded once by int true division.  A
    zero-stride array (np.broadcast_to of one value) is one value K times:
    its value is converted once and counts K times.  fsum can overflow on
    the way, or meet inf or nan, only where the magnitudes may add up to
    2^1023; on the first such array math.fsum itself sums a fresh arrays()
    from the start.
    """
    total = 0  # the exact sum, in units of 2^−1126
    bound = 0  # Σ|x| so far is below bound, in the same units
    for x in arrays():
        for s in range(0, len(x), _BINCOUNT_MAX):
            p = x[s : s + _BINCOUNT_MAX]
            n = len(p)
            run = p.strides == (0,)
            hi, lo = (float(p[0]),) * 2 if run else (float(p.max()), float(p.min()))
            # inf or nan if a value is, or if max|x| ≥ 2^1023 (fsum's case)
            finite = math.isfinite(hi - lo)
            if finite:
                m = max(hi, -lo)
                bound += n << (max(math.frexp(m)[1], 0) + _UNIT_LOG2)
            if not finite or bound >= 1 << (1023 + _UNIT_LOG2):
                return math.fsum(itertools.chain.from_iterable(arrays()))
            if run:
                total += n * _units(hi)
                continue
            width = (n + 2).bit_length()
            for _ in range(_EXTRACT_PASSES):
                k = math.frexp(m)[1] + width
                # q's unit σ·2^−53 stays a normal float, and σ stays finite
                if m == 0 or not 53 - 1021 <= k <= 1023:
                    break
                sigma = math.ldexp(1.0, k)
                q = p + sigma
                q -= sigma
                p = p - q
                total += _units(float(q.sum()))
                m = max(float(p.max()), -float(p.min()))
            if m:
                total += _binned(p)
    return total / (1 << _UNIT_LOG2)


def _stream_real_integral(fn, grid: FrequencyGrid, cells, exprs) -> float:
    """h·Σ fn(γ) over the grid cells [k0, k1) (every cell when cells is
    None), fn real-valued and exactly zero elsewhere.  fn
    evaluates exprs, the (expression, scale) pairs of symfunc.grid_pieces,
    on the midpoints g of one piece and returns its values, or one value
    for the whole piece (see symfunc.evaluate_block); a two-point g that
    is not one value raises rather than stand for the cells between.

    One exact sum, equal to math.fsum, takes the values of every piece, so
    the result does not depend on how the grid is cut.  Overflow gives inf
    or nan, without a RuntimeWarning.
    """

    def values():
        for _, n, g in grid_pieces(grid.a, grid.b, grid.log2_n, cells, exprs):
            yield np.broadcast_to(fn(g), n)

    with np.errstate(all="ignore"):
        try:
            total = _exact_sum(values)
        except OverflowError:
            total = math.inf
    return total * grid.h


def _not_finite(what: str, value: float) -> ValueError:
    return ValueError(
        f"{what} is {value!r}: a value overflows a float; scale the signal down"
    )


def _half_line_support(g_hat: FreqExpr):
    """Check that ĝ vanishes on [−4, 4] outside [0, 1/2]: by zero_outside,
    or else by a probe that finds no detectable mass there
    (SupportViolation otherwise).
    """
    fault = probe_support(g_hat, (0, Fraction(1, 2)), (-_SUPPORT_REACH, _SUPPORT_REACH))
    if fault:
        raise SupportViolation(
            f"analyzing function has magnitude {fault[0]:.3e} at "
            f"gamma={fault[1]}, outside [0, 1/2]"
        )


def _level_scales(ts: TranslationSet, j: int) -> tuple[float, float]:
    """(2N)^j and (2N)^{j/2} as floats; a level whose power overflows is
    rejected by name."""
    d = float(ts.dilation)
    try:
        return d**j, d ** (0.5 * j)
    except OverflowError:
        raise ValueError(
            f"level {j} is out of range: the dilation {ts.dilation} to the "
            f"power {j} overflows a float"
        ) from None


def _level_cells(f_hat: FreqExpr, scale: float, g_cells, grid: FrequencyGrid):
    """The cells support_cells keeps for both f̂(scale·γ) and ĝ(γ), given
    ĝ's as g_cells, or None unless both are proved: elsewhere one factor is
    ±0 and the other finite, so their product is ±0."""
    f = support_cells(f_hat, scale, grid.a, grid.b, grid.log2_n)
    if f and g_cells:
        k0 = max(f[0], g_cells[0])
        return k0, max(k0, min(f[1], g_cells[1]))


def _generator_cells(g_hat: FreqExpr, grid: FrequencyGrid):
    """Check ĝ's support (_half_line_support) and return the cells
    support_cells keeps for it: the proofs every level sum against ĝ
    shares, made once per generator."""
    _half_line_support(g_hat)
    return support_cells(g_hat, 1.0, grid.a, grid.b, grid.log2_n)


@dataclass(frozen=True)
class DirectLevelSum:
    """Truncated direct-route lattice sum with its coset breakdown.

    value == even_part + offset_part exactly (the two cosets are summed
    separately and added once).  value_at_half_m is the same sum truncated
    at |m| ≤ M//2; value − value_at_half_m estimates the coset tail, which
    decays like 1/M for indicator-type data.  Every |c_λ|² of a coset is an
    entry of one inverse FFT (_coset_sq); a level whose integrand is ±0 on
    every cell has every field 0.0 and takes none.
    """

    value: float
    even_part: float
    offset_part: float
    value_at_half_m: float
    M: int


def _coset_sq(F: np.ndarray, M: int, h: float) -> np.ndarray:
    """|h·Σ_k F_k e^{2πi(2m)γ_k}|² for m = −M…M, ascending.

    On the midpoint grid γ_k = (k + ½)h with 2hn = 1 the sum is
    e^{iπm/n}·Σ_k F_k e^{2πimk/n}, one inverse DFT of F; the unimodular
    factor drops out of the modulus.  The caller's M·h ≤ 0.01 guard keeps
    2M + 1 below n, so the wrapped indices m mod n are distinct.
    """
    S = np.fft.ifft(F, norm="forward")
    c = h * S[np.arange(-M, M + 1) % len(F)]
    return c.real * c.real + c.imag * c.imag


def lattice_sum_direct_detail(
    f_hat: FreqExpr,
    g_hat: FreqExpr,
    ts: TranslationSet,
    j: int,
    M: int = 2048,
    grid: FrequencyGrid | None = None,
) -> DirectLevelSum:
    """Direct route: Σ over λ ∈ {2m, r/N + 2m : |m| ≤ M} of |c_λ|².

    The even coset's |c_λ|² come from one inverse FFT of the sampled
    integrand F, the offset coset's from one of F·e^{2πi(r/N)γ}.  F is
    evaluated only on the cells [k0, k1) that can meet its proven support
    and is zero elsewhere (see the module docstring); when it is ±0 on all
    of them, every |c_λ|² is +0, so the level is 0.0 without an FFT.  Each
    coset's |c_λ|² values take one exact sum, equal to math.fsum; the two
    coset totals are added once at the end, so the coset split is exact by
    construction.  Guards against M·h > 0.01 (phase under-resolution).
    """
    return _direct_levels(f_hat, g_hat, ts, M, _resolve_grid(grid))(j)


def _direct_levels(f_hat: FreqExpr, g_hat: FreqExpr, ts: TranslationSet, M: int,
                   grid: FrequencyGrid):
    """j ↦ lattice_sum_direct_detail(f_hat, g_hat, ts, j, M, grid).  The
    first call checks the window, M and ĝ's support and finds ĝ's cells;
    later calls reuse them."""

    @functools.cache
    def g_cells():
        _require_working_window(grid)
        if M < 1:
            raise ValueError(f"window size M must be at least 1, got {M}")
        if grid.log2_n > _POINTS_MAX_LOG2:
            raise ValueError(
                f"the direct route supports --grid-log2 up to {_POINTS_MAX_LOG2}, "
                f"got {grid.log2_n}; the parseval route supports up to 26"
            )
        if M * grid.h > 0.01:
            raise TruncationGuard(
                f"M*h = {M * grid.h:.4g} > 0.01: the phase e^(2pi i lambda gamma) "
                "would be under-resolved; refine the grid or shrink M"
            )
        return _generator_cells(g_hat, grid)

    def level(j: int) -> DirectLevelSum:
        cells = g_cells()
        scale, amp = _level_scales(ts, j)
        k0, k1 = _level_cells(f_hat, scale, cells, grid) or (0, grid.n)
        if k0 == k1:
            return DirectLevelSum(0.0, 0.0, 0.0, 0.0, M)
        g = np.concatenate([g for _, g in grid_blocks(grid.a, grid.b, grid.log2_n, (k0, k1))])
        with np.errstate(all="ignore"):
            v = amp * evaluate(f_hat, scale * g) * np.conj(evaluate(g_hat, g))
            # both transforms of ±0 give |c|² = +0 (nan and inf are nonzero)
            if not v.any():
                return DirectLevelSum(0.0, 0.0, 0.0, 0.0, M)
            F = np.zeros(grid.n, dtype=np.complex128)
            F[k0:k1] = v
            sq_even = _coset_sq(F, M, grid.h)
            F[k0:k1] *= np.exp((2j * np.pi * float(ts.offset)) * g)
            sq_off = _coset_sq(F, M, grid.h)
        even = _exact_sum(lambda: (sq_even,))
        off = _exact_sum(lambda: (sq_off,))
        if not math.isfinite(even + off):
            raise _not_finite(f"the level {j} direct sum against {render(g_hat)}", even + off)
        half = M // 2
        sl = slice(M - half, M + half + 1)
        value_half = _exact_sum(lambda: (sq_even[sl],)) + _exact_sum(lambda: (sq_off[sl],))
        return DirectLevelSum(
            value=even + off,
            even_part=even,
            offset_part=off,
            value_at_half_m=value_half,
            M=M,
        )

    return level


def lattice_sum_parseval(
    f_hat: FreqExpr,
    g_hat: FreqExpr,
    ts: TranslationSet,
    j: int,
    grid: FrequencyGrid | None = None,
) -> float:
    """Identity route: ∫₀^{1/2} |(2N)^{j/2} f̂((2N)^j γ) ĝ(γ)|² dγ.

    Equals the full (untruncated) lattice sum whenever ĝ is supported in
    [0, 1/2]; that support is proved by zero_outside or else probed, and
    violations raise SupportViolation.

    Only the cells where both f̂((2N)^j γ) and ĝ(γ) may be nonzero are
    evaluated (see _level_cells); every other cell holds an exact zero, so the exactly rounded sum is the same bits as over the
    whole grid.  A disjoint pair returns 0.0 without evaluating anything.
    A sum that overflows to inf or nan raises ValueError naming the level
    and ĝ.
    """
    return _identity_levels(f_hat, g_hat, ts, _resolve_grid(grid))(j)


def _identity_levels(f_hat: FreqExpr, g_hat: FreqExpr, ts: TranslationSet,
                     grid: FrequencyGrid):
    """j ↦ lattice_sum_parseval(f_hat, g_hat, ts, j, grid).  The first call
    checks the window and ĝ's support and finds ĝ's cells; later calls
    reuse them."""

    @functools.cache
    def g_cells():
        _require_working_window(grid)
        return _generator_cells(g_hat, grid)

    def level(j: int) -> float:
        proved = g_cells()
        scale = _level_scales(ts, j)[0]

        def integrand(g):
            # product, square and scale by evaluate_block's ownership rule
            v = _apply(np.multiply, evaluate_block(f_hat, scale * g),
                       evaluate_block(g_hat, g), g)
            v = _abs2(v, g)
            return np.multiply(scale, v, out=_out(v, g))

        cells = _level_cells(f_hat, scale, proved, grid)
        value = _stream_real_integral(integrand, grid, cells, ((f_hat, scale), (g_hat, 1.0)))
        if not math.isfinite(value):
            raise _not_finite(f"the level {j} sum against {render(g_hat)}", value)
        return value

    return level


def level_profile(
    f_hat: FreqExpr,
    setup: GeneralSetup,
    j_list,
    grid: FrequencyGrid | None = None,
) -> list[tuple[int, float]]:
    """Scaling-level sums (j, Σ_λ |⟨f, level-j translate of ψ₀⟩|²) via the
    identity route against ψ̂₀, for each j in j_list."""
    level = _identity_levels(f_hat, setup.psi0_hat, setup.ts, _resolve_grid(grid))
    return [(int(j), level(int(j))) for j in j_list]


def norm_sq(f_hat: FreqExpr, support, grid: FrequencyGrid | None = None) -> float:
    """quad of |f̂|² over the support interval, at the grid's resolution
    (a fresh midpoint grid is laid over the support).

    Only the cells support_cells keeps for f̂ are evaluated; the others
    hold exact zeros, so the exactly rounded sum is the same bits as over every cell.
    A norm that overflows to inf or nan raises ValueError.
    """
    grid = _resolve_grid(grid)
    a, b = (Fraction(x) for x in support)
    sub = FrequencyGrid(a, b, grid.log2_n)

    def integrand(g):
        return _abs2(evaluate_block(f_hat, g), g)

    cells = support_cells(f_hat, 1.0, a, b, sub.log2_n)
    value = _stream_real_integral(integrand, sub, cells, ((f_hat, 1.0),))
    if not math.isfinite(value):
        raise _not_finite(f"the squared norm of the signal over [{a}, {b}]", value)
    return value


def telescoping_residual(
    f_hat: FreqExpr,
    setup: GeneralSetup,
    j_list,
    grid: FrequencyGrid | None = None,
) -> list[tuple[int, float]]:
    """(j, |Σ_{ℓ=0}^{n} S_{j−1}(ψ̂ₗ) − S_j(ψ̂₀)|) for each j in j_list, where
    S is the identity-route level sum (ℓ = 0 term uses ψ̂₀ itself).

    The refinement structure collapses one level of generator sums into the
    next scaling-level sum when the filters satisfy the unitary condition;
    that condition is checked once, first (UepPreconditionFailed otherwise).
    The scaling sums S(ψ̂₀) that adjacent levels share are computed once.
    """
    grid = _resolve_grid(grid)
    js = [int(j) for j in j_list]
    resid = uep_residual(setup, grid.log2_n)
    if resid > _UEP_TOL:
        raise UepPreconditionFailed(
            f"filter condition residual {resid:.3e} exceeds {_UEP_TOL:.1e}; "
            "the telescoping identity needs the unitary filter condition"
        )
    scaling_levels = sorted({k for j in js for k in (j - 1, j)})
    scaling = dict(level_profile(f_hat, setup, scaling_levels, grid))
    gens = [_identity_levels(f_hat, derive_generator(setup, ell), setup.ts, grid)
            for ell in range(1, setup.n + 1)]
    rows = []
    for j in js:
        terms = [scaling[j - 1]] + [level(j - 1) for level in gens]
        rows.append((j, abs(math.fsum(terms) - scaling[j])))
    return rows


@dataclass(frozen=True)
class FrameReport:
    """Per-(generator, level) sums with totals, signal norm, and warnings."""

    route: str
    signal_label: str
    j_min: int
    j_max: int
    M: int | None
    grid: dict
    levels: tuple  # ((ell, j, value), ...) ascending (ell, j)
    total: float
    signal_norm_sq: float
    ratio: float
    neg_frequency_mass: float
    coverage_tail_mass: float
    coset_tail_estimate: float | None
    warnings: tuple

    def to_dict(self) -> dict:
        return {
            "route": self.route,
            "signal": self.signal_label,
            "j_min": self.j_min,
            "j_max": self.j_max,
            "M": self.M,
            "grid": dict(self.grid),
            "levels": [[ell, j, v] for (ell, j, v) in self.levels],
            "total": self.total,
            "signal_norm_sq": self.signal_norm_sq,
            "ratio": self.ratio,
            "neg_frequency_mass": self.neg_frequency_mass,
            "coverage_tail_mass": self.coverage_tail_mass,
            "coset_tail_estimate": self.coset_tail_estimate,
            "warnings": list(self.warnings),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_csv_text(self) -> str:
        lines = ["generator,level,value"]
        lines.extend(f"{ell},{j},{v!r}" for (ell, j, v) in self.levels)
        return "\n".join(lines) + "\n"


def parseval_report(
    signal: SignalSpec,
    setup: GeneralSetup,
    j_min: int = -4,
    j_max: int = 4,
    route: str = ROUTE_PARSEVAL,
    M: int = 2048,
    grid: FrequencyGrid | None = None,
) -> FrameReport:
    """Frame-identity verification over a level window.

    Sums Σ_{ℓ=1}^{n} Σ_{j=j_min}^{j_max} (lattice sum for generator ℓ at
    level j) by the chosen route and compares against ‖f‖².  The report
    carries the mass the window cannot see: declared-support mass at
    negative frequencies and above the coverage ceiling (2N)^j_max/2, plus
    (direct route) the coset truncation estimate.
    """
    grid = _resolve_grid(grid)
    if j_max < j_min:
        raise ValueError(f"empty level window: j_min={j_min} > j_max={j_max}")
    if route not in _ROUTE_NAMES:
        raise ValueError(f"route must be one of {sorted(_ROUTE_NAMES)}, got {route!r}")

    levels = []
    tail_terms = []
    for ell in range(1, setup.n + 1):
        gen = derive_generator(setup, ell)
        if route == ROUTE_PARSEVAL:
            level = _identity_levels(signal.fhat, gen, setup.ts, grid)
        else:
            level = _direct_levels(signal.fhat, gen, setup.ts, M, grid)
        for j in range(j_min, j_max + 1):
            v = level(j)
            if route == ROUTE_DIRECT:
                tail_terms.append(v.value - v.value_at_half_m)
                v = v.value
            levels.append((ell, j, v))

    total = math.fsum(v for (_, _, v) in levels)
    nrm = norm_sq(signal.fhat, signal.support, grid)

    a, b = signal.support
    neg_mass = 0.0
    if a < 0:
        neg_mass = norm_sq(signal.fhat, (a, min(b, Fraction(0))), grid)
    cover_hi = Fraction(setup.ts.dilation) ** j_max * Fraction(1, 2)
    tail_mass = 0.0
    if b > cover_hi:
        tail_mass = norm_sq(signal.fhat, (max(a, cover_hi), b), grid)
    coset_tail = math.fsum(tail_terms) if route == ROUTE_DIRECT else None

    notes = []
    if nrm == 0.0:
        ratio = 0.0
        notes.append("signal norm is zero over the declared support")
    else:
        ratio = total / nrm
    if neg_mass > 0.0:
        notes.append(
            f"declared support has mass {neg_mass!r} at negative frequencies; "
            "the frame identity is only verified on [0, +inf)"
        )
    if tail_mass > 0.0:
        notes.append(
            f"mass {tail_mass!r} lies above the level-window coverage "
            f"(gamma > {cover_hi}); raise j_max to capture it"
        )
    if route == ROUTE_DIRECT and coset_tail > 0.0:
        notes.append(
            f"direct-route translation window |m| <= {M} leaves an estimated "
            f"tail {coset_tail!r}"
        )

    return FrameReport(
        route=_ROUTE_NAMES[route],
        signal_label=signal.label,
        j_min=j_min,
        j_max=j_max,
        M=M if route == ROUTE_DIRECT else None,
        grid=grid.to_meta(),
        levels=tuple(levels),
        total=total,
        signal_norm_sq=nrm,
        ratio=ratio,
        neg_frequency_mass=neg_mass,
        coverage_tail_mass=tail_mass,
        coset_tail_estimate=coset_tail,
        warnings=tuple(notes),
    )
