"""Frame analysis: lattice sums by two independent routes, reports.

Everything integrates by the midpoint rule on dyadic grids.  Midpoints of a
dyadic grid never coincide with dyadic indicator breakpoints (those land on
cell boundaries), so piecewise definitions cost no accuracy, and each
integral is one exact sum over all its cells, equal to math.fsum (correctly
rounded), so results are bit-reproducible and independent of chunking.
Integrands of expressions without ``i`` are evaluated in float64.

Integrals evaluate only the cells that can meet the support symfunc's
zero_outside proves for their integrand, widened by one cell on each side,
and walk them with symfunc.grid_blocks in blocks of BLOCK_CELLS (2^14)
cells, so the temporaries of an evaluation stay in cache.  Every skipped
cell holds an exact zero, and an exactly rounded sum or a max does not
change when zeros are dropped or the cells are cut differently, so the
results are the same bits as one array over every cell.  Where nothing is
proved, every cell is evaluated.  The validate scans in setups skip proven
zeros the same way.  A block's integrand comes from symfunc.evaluate_block:
when it is one value for the whole block (indicators decided on the block,
constants), it enters the exact sum as a zero-stride view, which bins that
value once and counts it once per cell.  Only the direct route, whose FFT
needs every sample at once, evaluates the grid as one array, through
evaluate.

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
    cell_range,
    evaluate,
    evaluate_block,
    grid_blocks,
    render,
    squared_modulus,
    zero_outside,
    zero_outside_scaled,
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

    def points(self) -> np.ndarray:
        """All midpoints as one array, only up to log2_n = 22 (a 2^26 grid
        materialized is half a gigabyte)."""
        if self.log2_n > _POINTS_MAX_LOG2:
            raise ValueError(
                f"grid with log2_n={self.log2_n} is too large to materialize; "
                f"the limit is log2_n={_POINTS_MAX_LOG2}"
            )
        return np.concatenate([g for _, g in grid_blocks(self.a, self.b, self.log2_n)])

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


# np.frexp writes a finite nonzero x as u·2^e with 0.5 ≤ |u| < 1 and
# −1073 ≤ e ≤ 1024.  Split u·2^27 = hi + frac, hi an integer with |hi| ≤ 2^27
# and frac in [0, 1) a multiple of 2^−26; then x = (hi + frac)·2^(k−1100)
# for bin k = e + 1073, and every value is an integer in units of 2^−1126.
_EXP_OFFSET = 1073
_UNIT_LOG2 = 1126
# Values per bincount: bin sums stay integers below 2^53 (2^26 · 2^27).
_BINCOUNT_MAX = 1 << 26


@np.errstate(all="ignore")
def _exact_sum(arrays) -> float:
    """math.fsum of the concatenated float64 arrays that arrays() yields:
    the correctly rounded sum, bit for bit, or fsum's exception.

    The hi and frac parts of the values are bincounted per exponent, which
    is exact, and the bins of every array add into one Python int, rounded
    once by int true division.  A zero-stride array (np.broadcast_to of one
    value) is one value K times: its one value is binned and its bins count
    K times.  fsum can overflow on the way, or meet inf or nan, only where
    the magnitudes may add up to 2^1023; on the first such array math.fsum
    itself sums a fresh arrays() from the start.
    """
    total = 0  # the exact sum, in units of 2^−1126
    bound = 0  # Σ|x| so far is below bound, in the same units
    for x in arrays():
        for s in range(0, len(x), _BINCOUNT_MAX):
            c = x[s : s + _BINCOUNT_MAX]
            weight = len(c) if c.strides == (0,) else 1
            u, e = np.frexp(c[:1] if weight > 1 else c)
            # frexp's exponent of inf or nan is unspecified, so test first
            finite = math.isfinite(u.sum())
            if finite:
                bound += len(c) << (int(e.max(initial=0)) + _UNIT_LOG2)
            if not finite or bound >= 1 << (1023 + _UNIT_LOG2):
                return math.fsum(itertools.chain.from_iterable(arrays()))
            u *= 2.0**27
            hi = np.floor(u)
            u -= hi
            e += _EXP_OFFSET
            hi_bins = np.bincount(e, weights=hi)
            frac_bins = np.bincount(e, weights=u)
            for k in np.flatnonzero(hi_bins):
                total += weight * int(hi_bins[k]) << (int(k) + 26)
            for k in np.flatnonzero(frac_bins):
                total += weight * int(frac_bins[k] * 2.0**26) << int(k)
    return total / (1 << _UNIT_LOG2)


def _stream_real_integral(fn, grid: FrequencyGrid, interval) -> float:
    """h·Σ fn(γ) over the grid cells that can meet the closed interval (every
    cell when it is None), fn real-valued and exactly zero elsewhere.  fn
    takes one block of midpoints and returns its values, or one value for
    the whole block (see symfunc.evaluate_block).

    One exact sum, equal to math.fsum, takes the values of every block, so
    the result does not depend on how the grid is cut.  Overflow gives inf
    or nan, without a RuntimeWarning.
    """

    def values():
        for _, g in grid_blocks(grid.a, grid.b, grid.log2_n, interval):
            yield np.broadcast_to(fn(g), g.shape)

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
    """The interval zero_outside proves for ĝ on [−4, 4], or None.

    When that interval does not lie in [0, 1/2], probe that ĝ has no
    detectable mass outside [0, 1/2] (SupportViolation otherwise).
    """
    iv, fault = probe_support(g_hat, (0, Fraction(1, 2)), (-_SUPPORT_REACH, _SUPPORT_REACH))
    if fault:
        raise SupportViolation(
            f"analyzing function has magnitude {fault[0]:.3e} at "
            f"gamma={fault[1]}, outside [0, 1/2]"
        )
    return iv


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


def _level_support(f_hat: FreqExpr, g_iv, scale: float):
    """Interval in γ outside which f̂(scale·γ)·ĝ(γ) is exactly zero on
    [0, 1/2], given ĝ's interval g_iv, or None (see zero_outside_scaled)."""
    if g_iv is None:
        return None
    f_iv = zero_outside_scaled(f_hat, scale, 0, Fraction(1, 2))
    if f_iv is None:
        return None
    return max(g_iv[0], f_iv[0]), min(g_iv[1], f_iv[1])


@dataclass(frozen=True)
class DirectLevelSum:
    """Truncated direct-route lattice sum with its coset breakdown.

    value == even_part + offset_part exactly (the two cosets are summed
    separately and added once).  value_at_half_m is the same sum truncated
    at |m| ≤ M//2; value − value_at_half_m estimates the coset tail, which
    decays like 1/M for indicator-type data.  Every |c_λ|² of a coset is an
    entry of one inverse FFT (_coset_sq).
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
    evaluated on the cells that can meet its proven support and is zero
    elsewhere (see the module docstring).  Each
    coset's |c_λ|² values take one exact sum, equal to math.fsum; the two
    coset totals are added once at the end, so the coset split is exact by
    construction.  Guards against M·h > 0.01 (phase under-resolution).
    """
    grid = _resolve_grid(grid)
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
    g_iv = _half_line_support(g_hat)
    scale, amp = _level_scales(ts, j)
    k0, k1 = cell_range(grid.a, grid.b, grid.log2_n, _level_support(f_hat, g_iv, scale))
    g = grid.points()[k0:k1]
    h = grid.h
    F = np.zeros(grid.n, dtype=np.complex128)
    F_off = np.zeros_like(F)
    with np.errstate(all="ignore"):
        F[k0:k1] = amp * evaluate(f_hat, scale * g) * np.conj(evaluate(g_hat, g))
        F_off[k0:k1] = F[k0:k1] * np.exp((2j * np.pi * float(ts.offset)) * g)
        sq_even = _coset_sq(F, M, h)
        sq_off = _coset_sq(F_off, M, h)
    even = _exact_sum(lambda: (sq_even,))
    off = _exact_sum(lambda: (sq_off,))
    if not math.isfinite(even + off):
        raise _not_finite(f"the level-{j} direct sum against {render(g_hat)}", even + off)
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
    evaluated, widened by one cell on each side; every other cell holds an
    exact zero, so the exactly rounded sum is the same bits as over the
    whole grid.  A disjoint pair returns 0.0 without evaluating anything.
    A sum that overflows to inf or nan raises ValueError naming the level
    and ĝ.
    """
    grid = _resolve_grid(grid)
    _require_working_window(grid)
    g_iv = _half_line_support(g_hat)
    scale = _level_scales(ts, j)[0]

    def integrand(g):
        return scale * squared_modulus(
            evaluate_block(f_hat, scale * g) * evaluate_block(g_hat, g)
        )

    value = _stream_real_integral(integrand, grid, _level_support(f_hat, g_iv, scale))
    if not math.isfinite(value):
        raise _not_finite(f"the level-{j} sum against {render(g_hat)}", value)
    return value


def level_profile(
    f_hat: FreqExpr,
    setup: GeneralSetup,
    j_list,
    grid: FrequencyGrid | None = None,
) -> list[tuple[int, float]]:
    """Scaling-level sums (j, Σ_λ |⟨f, level-j translate of ψ₀⟩|²) via the
    identity route against ψ̂₀, for each j in j_list."""
    grid = _resolve_grid(grid)
    return [
        (int(j), lattice_sum_parseval(f_hat, setup.psi0_hat, setup.ts, int(j), grid))
        for j in j_list
    ]


def norm_sq(f_hat: FreqExpr, support, grid: FrequencyGrid | None = None) -> float:
    """quad of |f̂|² over the support interval, at the grid's resolution
    (a fresh midpoint grid is laid over the support).

    Only the cells that can meet the support zero_outside proves for f̂ are
    evaluated, widened by one cell on each side; the others hold exact
    zeros, so the exactly rounded sum is the same bits as over every cell.
    A norm that overflows to inf or nan raises ValueError.
    """
    grid = _resolve_grid(grid)
    a, b = (Fraction(x) for x in support)
    sub = FrequencyGrid(a, b, grid.log2_n)

    def integrand(g):
        return squared_modulus(evaluate_block(f_hat, g))

    value = _stream_real_integral(integrand, sub, zero_outside(f_hat, a, b))
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
    gens = [derive_generator(setup, ell) for ell in range(1, setup.n + 1)]
    rows = []
    for j in js:
        terms = [scaling[j - 1]] + [
            lattice_sum_parseval(f_hat, gen, setup.ts, j - 1, grid) for gen in gens
        ]
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
        for j in range(j_min, j_max + 1):
            if route == ROUTE_PARSEVAL:
                v = lattice_sum_parseval(signal.fhat, gen, setup.ts, j, grid)
            else:
                d = lattice_sum_direct_detail(signal.fhat, gen, setup.ts, j, M, grid)
                v = d.value
                tail_terms.append(d.value - d.value_at_half_m)
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
