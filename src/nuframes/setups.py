"""Frame setups: scaling function, filter bank, optional scaling symbol.

A setup bundles a translation set Λ = {0, r/N} + 2ℤ with a frequency-side
scaling function ψ̂₀, refinement filter H₀, framing filters H₁…Hₙ, and an
optional strictly positive scaling symbol θ.  The hypotheses validated here:

  - support: ψ̂₀ vanishes outside [0, 1/(4N)]
  - normalization: ψ̂₀(γ) → 1 as γ → 0⁺ (dyadic probe 2^(−k), k = 12…40)
  - refinement: ψ̂₀(2Nγ) = H₀(γ)·ψ̂₀(γ) on [0, 1/(4N)]
  - filter condition on [0, 1/2]: Σₗ |Hₗ(γ)|² = 1, or its θ-weighted form
    θ(2Nγ)|H₀(γ)|² + Σ_{ℓ≥1} |Hₗ(γ)|² = θ(γ)

The generators are ψ̂ₗ(γ) = Hₗ(γ/(2N))·ψ̂₀(γ/(2N)); their support lands in
[0, 1/2], the window all lattice-sum identities integrate over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .errors import ThetaMissing, ThetaNotPositive
from .lattice import TranslationSet
from .symfunc import (
    FreqExpr,
    ImaginaryUnit,
    PositiveReciprocal,
    Product,
    RationalConst,
    Sqrt,
    dilate_arg,
    evaluate,
    evaluate_block,
    grid_pieces,
    product_of,
    squared_modulus,
    support_cells,
)

# Residual tolerance for hypothesis checks; the 0⁺ normalization probe gets
# its own looser default since it is dominated by the coarsest probe point
# (a smooth ψ̂₀ with curvature c deviates by ~c·2^(−24) there).
DEFAULT_TOL = 1e-10
DEFAULT_LIMIT_TOL = 1e-6

SUPPORT_SCAN_REACH = Fraction(4)
_LIMIT_PROBE_KS = range(12, 41)


@dataclass(frozen=True)
class GeneralSetup:
    """Translation set, scaling function, filters H₀…Hₙ, optional symbol θ."""

    ts: TranslationSet
    psi0_hat: FreqExpr
    filters: tuple[FreqExpr, ...]
    theta: FreqExpr | None = None

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        if len(self.filters) < 2:
            raise ValueError(
                "a setup needs the refinement filter H0 plus at least one "
                f"framing filter, got {len(self.filters)} filter(s)"
            )

    @property
    def n(self) -> int:
        """Number of framing filters (generators)."""
        return len(self.filters) - 1


def derive_generator(s: GeneralSetup, ell: int) -> FreqExpr:
    """Generator ψ̂ₗ(γ) = Hₗ(γ/(2N))·ψ̂₀(γ/(2N)) for 1 ≤ ℓ ≤ n."""
    if not 1 <= ell <= s.n:
        raise IndexError(f"generator index must be in [1, {s.n}], got {ell}")
    inner = product_of(s.filters[ell], s.psi0_hat)
    return dilate_arg(inner, Fraction(1, s.ts.dilation))


@dataclass(frozen=True)
class OepReport:
    residual: float
    theta_min: float
    theta_limit_deviation: float


@dataclass(frozen=True)
class ConditionReport:
    """Hypothesis and filter-condition residuals with per-check verdicts."""

    grid_log2: int
    tol: float
    limit_tol: float
    refinement_residual: float
    support_leak: float
    limit_deviation: float
    uep_residual: float
    oep_residual: float | None
    theta_min: float | None
    theta_limit_deviation: float | None
    checks: dict
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _theta_values(theta: FreqExpr, g: np.ndarray, d: float, n: int) -> list[np.ndarray]:
    """[θ(γ), θ(dγ)] on one piece of n cells with midpoints g (see _cells),
    checked real and strictly positive.

    A failure names the first cell in ascending γ, and there θ(γ) before
    θ(dγ) and realness before sign, so the message does not depend on how
    the grid is cut into pieces.
    """
    xs = (g, d * g)
    vs = [_cells(evaluate_block(theta, x), n) for x in xs]
    # per cell, in order: θ(γ) not real, θ(γ) not > 0 (≤ 0 or nan), then
    # the same for θ(dγ)
    faults = [m for v in vs for m in (np.abs(v.imag) > 1e-12, ~(v.real > 0.0))]
    bad = functools.reduce(np.logical_or, faults)
    if bad.any():
        i = int(np.argmax(np.broadcast_to(bad, g.shape)))
        k = next(k for k, m in enumerate(faults) if np.broadcast_to(m, g.shape)[i])
        x, v = xs[k // 2], np.broadcast_to(vs[k // 2], g.shape)
        if k % 2 == 0:
            raise ThetaNotPositive(
                f"scaling symbol must be real, got {complex(v[i])} "
                f"at gamma={float(x[i])}"
            )
        raise ThetaNotPositive(
            f"scaling symbol is {float(v[i].real)} at gamma={float(x[i])}; "
            "it must be strictly positive"
        )
    return [v.real for v in vs]


def _cells(v, n: int) -> np.ndarray:
    """The values v of a piece of n cells: one element when they are one
    value, else n; a two-point piece sample that is not one value raises
    ValueError rather than stand for the cells between."""
    v = np.broadcast_to(v, n)
    return v[:1] if v.strides == (0,) else v


def _sup(acc: float, v, n: int, what: str) -> float:
    """max(acc, max |v|) over the n cells of v (see _cells).  An inf or nan
    raises ValueError naming what and |v| at the first non-finite cell, so
    the message does not depend on how the grid is cut (Python's max would
    drop a nan)."""
    a = np.abs(_cells(v, n))
    m = float(np.max(a))
    if not math.isfinite(m):
        m = float(a[~np.isfinite(a)][0])
        raise ValueError(f"the {what} is {m!r}: a value overflows a float")
    return max(acc, m)


def _hull(c, d):
    """Smallest cell range holding the cell ranges c and d, or None when
    either is None."""
    if c is None or d is None:
        return None
    ranges = [r for r in (c, d) if r[0] < r[1]] or [(0, 0)]
    return min(k0 for k0, _ in ranges), max(k1 for _, k1 in ranges)


def _limit_deviation(e: FreqExpr, name: str) -> float:
    """max |e(2^(−k)) − 1| over the dyadic probe k = 12…40; an inf or nan
    raises ValueError that calls e by name (see _sup)."""
    probes = np.array([2.0**-k for k in _LIMIT_PROBE_KS])
    return _sup(0.0, evaluate(e, probes) - 1.0, len(probes), f"0+ limit deviation of {name}")


def check_grid_log2(grid_log2: int):
    """Every grid has 2^10 to 2^26 cells: the scans here and FrequencyGrid."""
    if not 10 <= grid_log2 <= 26:
        raise ValueError(f"grid_log2 must be at least 10 and at most 26, got {grid_log2}")


@np.errstate(all="ignore")
def _filter_scan(
    ts: TranslationSet,
    filters: tuple[FreqExpr, ...],
    theta: FreqExpr | None,
    grid_log2: int,
) -> tuple[float, float | None, float | None]:
    """One pass over the midpoints of [0, 1/2], piece by piece (see
    symfunc.grid_pieces).  Returns (uep, oep, theta_min), the sups of
    |Σₗ |Hₗ|² − 1| and |θ(2Nγ)|H₀|² + Σ_{ℓ≥1}|Hₗ|² − θ(γ)| and min θ; the
    last two are None without θ, and without filters only θ is checked.
    Both sums run in ascending ℓ, so with θ ≡ 1 they agree bit for bit.

    Each filter is evaluated only on the pieces that meet the cells
    symfunc.support_cells keeps for it on [0, 1/2]; elsewhere its |Hₗ|² is
    exactly +0, which changes no bit of a sum of squares.  θ is
    evaluated on every piece, at γ and at 2Nγ.  The sums broadcast, so one
    that is the same on a whole piece stays one element: for piecewise-
    constant filters and θ, every piece, whatever the grid size.
    """
    check_grid_log2(grid_log2)
    d = float(ts.dilation)
    half = Fraction(1, 2)
    ranges = [support_cells(h, 1.0, 0, half, grid_log2) or (0, 1 << grid_log2)
              for h in filters]
    exprs = [(h, 1.0) for h in filters] + ([] if theta is None else [(theta, 1.0), (theta, d)])
    uep = oep = 0.0
    tmin = math.inf
    for s, n, g in grid_pieces(0, half, grid_log2, None, exprs):
        if theta is not None:
            t, w = _theta_values(theta, g, d, n)
            tmin = min(tmin, float(np.min(t)), float(np.min(w)))
        if filters:
            u = 0.0
            for ell, (h, (k0, k1)) in enumerate(zip(filters, ranges)):
                a = squared_modulus(evaluate_block(h, g)) if k0 < s + n and s < k1 else 0.0
                u = u + a
                if theta is not None:
                    w = w * a if ell == 0 else w + a
            uep = _sup(uep, u - 1.0, n, "filter condition residual")
            if theta is not None:
                oep = _sup(oep, w - t, n, "weighted filter condition residual")
    return (uep, None, None) if theta is None else (uep, oep, tmin)


def uep_residual(s: GeneralSetup, grid_log2: int = 20) -> float:
    """sup over [0, 1/2] of |Σₗ |Hₗ(γ)|² − 1| (midpoint grid scan)."""
    return _filter_scan(s.ts, s.filters, None, grid_log2)[0]


def oep_check(s: GeneralSetup, grid_log2: int = 20) -> OepReport:
    """θ-weighted filter condition on [0, 1/2] plus the θ → 1 limit probe.

    residual = sup |θ(2Nγ)|H₀(γ)|² + Σ_{ℓ≥1}|Hₗ(γ)|² − θ(γ)|.
    With θ ≡ 1 the accumulation reproduces uep_residual bit for bit.
    """
    if s.theta is None:
        raise ThetaMissing("setup has no scaling symbol")
    _, residual, tmin = _filter_scan(s.ts, s.filters, s.theta, grid_log2)
    return OepReport(residual, tmin, _limit_deviation(s.theta, "theta"))


@np.errstate(all="ignore")
def validate_setup(
    s: GeneralSetup,
    grid_log2: int = 20,
    tol: float = DEFAULT_TOL,
    limit_tol: float = DEFAULT_LIMIT_TOL,
) -> ConditionReport:
    """Run every hypothesis check the setup's ingredients admit.

    The filter condition passes when either the plain residual or (with a
    scaling symbol present) the θ-weighted residual is within tol.

    Every scan walks its grid with symfunc.grid_pieces and evaluates an
    expression only on the cells symfunc.support_cells keeps for it (the
    filter scan: the pieces that meet them); the other cells hold exact
    zeros, which change no sup, so each residual is the same bits as a scan
    of every cell in one array.  Values come from symfunc.evaluate_block,
    so one that is the same on a whole piece (a decided indicator, θ ≡ 1)
    is one element that broadcasts, through the filter sums as well.  A
    scan of piecewise-constant expressions only, as for every indicator
    setup, is cut where an indicator flips and costs one evaluation per
    piece; a fault names the first cell of the first faulty piece.
    """
    check_grid_log2(grid_log2)
    N = s.ts.N
    quarter = Fraction(1, 4 * N)

    # Only cells where ψ̂₀(2Nγ) or H₀(γ)ψ̂₀(γ) may be nonzero are scanned;
    # on the others both sides are exact zeros.
    refinement = 0.0
    d = float(s.ts.dilation)
    cells = _hull(support_cells(s.psi0_hat, d, 0, quarter, grid_log2),
                  support_cells(Product((s.filters[0], s.psi0_hat)), 1.0, 0, quarter, grid_log2))
    exprs = ((s.psi0_hat, d), (s.filters[0], 1.0), (s.psi0_hat, 1.0))
    for _, n, g in grid_pieces(0, quarter, grid_log2, cells, exprs):
        lhs = evaluate_block(s.psi0_hat, d * g)
        rhs = evaluate_block(s.filters[0], g) * evaluate_block(s.psi0_hat, g)
        refinement = _sup(refinement, lhs - rhs, n, "refinement residual")

    # Only the cells of ψ̂₀'s proven support are scanned; the others hold
    # exact zeros, which cannot raise the max.
    leak = 0.0
    for a, b in ((quarter, SUPPORT_SCAN_REACH), (-SUPPORT_SCAN_REACH, Fraction(0))):
        cells = support_cells(s.psi0_hat, 1.0, a, b, grid_log2)
        for _, n, g in grid_pieces(a, b, grid_log2, cells, ((s.psi0_hat, 1.0),)):
            leak = _sup(leak, evaluate_block(s.psi0_hat, g), n, "support leak")

    limit_dev = _limit_deviation(s.psi0_hat, "psi0_hat")
    uep, oep, theta_min = _filter_scan(s.ts, s.filters, s.theta, grid_log2)
    theta_limit = None if s.theta is None else _limit_deviation(s.theta, "theta")

    checks = {
        "refinement": refinement <= tol,
        "support": leak <= tol,
        "limit": limit_dev <= limit_tol,
        "uep": uep <= tol,
    }
    if s.theta is not None:
        checks["oep"] = oep <= tol
        checks["theta_limit"] = theta_limit <= limit_tol
        checks["filter_condition"] = checks["uep"] or checks["oep"]
    else:
        checks["filter_condition"] = checks["uep"]

    required = ["refinement", "support", "limit", "filter_condition"]
    if s.theta is not None:
        required.append("theta_limit")
    passed = all(checks[k] for k in required)

    return ConditionReport(
        grid_log2=grid_log2,
        tol=tol,
        limit_tol=limit_tol,
        refinement_residual=refinement,
        support_leak=leak,
        limit_deviation=limit_dev,
        uep_residual=uep,
        oep_residual=oep,
        theta_min=theta_min,
        theta_limit_deviation=theta_limit,
        checks=checks,
        passed=passed,
    )


def oep_normalize(s: GeneralSetup, grid_log2: int = 20) -> GeneralSetup:
    """Fold the scaling symbol into the filters and scaling function.

    H̃₀ = √(θ(2Nγ)/θ(γ))·H₀,  H̃ₗ = √(1/θ(γ))·Hₗ,  ψ̂̃₀ = √θ·ψ̂₀.

    If the input satisfies the θ-weighted condition with residual ε, the
    output satisfies the plain condition with residual ≤ ε/min θ.  θ of the
    result is the constant 1 (the normalization's fixed point); with θ ≡ 1
    already, every filter evaluates unchanged.
    """
    if s.theta is None:
        raise ThetaMissing("setup has no scaling symbol to normalize away")
    _filter_scan(s.ts, (), s.theta, grid_log2)
    recip = PositiveReciprocal(s.theta)
    theta_dil = dilate_arg(s.theta, s.ts.dilation)
    h0 = product_of(Sqrt(product_of(theta_dil, recip)), s.filters[0])
    rest = [product_of(Sqrt(recip), h) for h in s.filters[1:]]
    psi0 = product_of(Sqrt(s.theta), s.psi0_hat)
    return GeneralSetup(
        ts=s.ts,
        psi0_hat=psi0,
        filters=(h0, *rest),
        theta=RationalConst(Fraction(1)),
    )


def two_generator_setup(
    psi0_hat: FreqExpr,
    h0: FreqExpr,
    theta: FreqExpr,
    ts: TranslationSet,
    grid_log2: int = 20,
) -> GeneralSetup:
    """Two-filter completion H₁ = √(θ(2Nγ))·H₀·i, H₂ = √(θ(γ)).

    Built exactly as stated; note the θ-weighted filter condition then
    evaluates to θ(γ) + 2θ(2Nγ)|H₀(γ)|² on the left, so the oep_check residual
    of the result equals sup 2θ(2Nγ)|H₀(γ)|², nonzero whenever H₀ is.  The
    construction is reported as-is rather than corrected; callers should
    inspect that residual.
    """
    _filter_scan(ts, (), theta, grid_log2)
    h1 = product_of(Sqrt(dilate_arg(theta, ts.dilation)), h0, ImaginaryUnit())
    h2 = Sqrt(theta)
    return GeneralSetup(ts=ts, psi0_hat=psi0_hat, filters=(h0, h1, h2), theta=theta)
