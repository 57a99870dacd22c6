"""Band-limited test signals, specified on the frequency side.

A signal is carried entirely by its frequency-side expression f̂ together
with a declared compact support interval.  The declared support is what the
analysis layer uses for norm quadrature and for the negative-frequency and
truncation-coverage scans, so constructors spot-check that the expression
really vanishes beyond it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .symfunc import (
    Cos,
    FreqExpr,
    Indicator,
    Negate,
    RationalConst,
    RealConst,
    Scale,
    Var,
    evaluate,
    product_of,
    sum_of,
    zero_outside,
)

_SPOT_PROBES = 64
_SPOT_REACH = Fraction(4)
_SPOT_TOL = 1e-12


@dataclass(frozen=True)
class SignalSpec:
    """Frequency-side test signal: expression, declared support, label.

    norm_sq_closed is the exact squared L² norm when the family has one in
    closed form (None for ad-hoc expressions).
    """

    fhat: FreqExpr
    support: tuple[Fraction, Fraction]
    label: str
    norm_sq_closed: Fraction | None = None


def _check_interval(a, b) -> tuple[Fraction, Fraction]:
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise ValueError(f"signal support needs a < b, got [{a}, {b}]")
    return a, b


def _spot_check(spec: SignalSpec):
    """Check that the expression vanishes within 4 beyond each end of the
    declared support: proved by zero_outside where it can, otherwise by 64
    probes on each side."""
    a, b = spec.support
    iv = zero_outside(spec.fhat, a - _SPOT_REACH, b + _SPOT_REACH)
    if iv is not None and (iv[0] > iv[1] or (a <= iv[0] and iv[1] <= b)):
        return
    step = _SPOT_REACH / _SPOT_PROBES
    k = np.arange(_SPOT_PROBES) + 0.5
    above = float(b) + k * float(step)
    below = float(a) - k * float(step)
    for probes in (above, below):
        v = evaluate(spec.fhat, probes)
        worst = float(np.max(np.abs(v)))
        if worst > _SPOT_TOL:
            raise ValueError(
                f"{spec.label}: expression has magnitude {worst:.3e} outside "
                f"declared support [{a}, {b}]"
            )


def hann_bump(a, b) -> SignalSpec:
    """C¹ bump f̂(γ) = (1 − cos(2π(γ−a)/(b−a)))/2 on [a, b], 0 elsewhere.

    Vanishes to first order at both ends; ‖f‖² = (3/8)(b−a).
    """
    a, b = _check_interval(a, b)
    w = b - a
    k = 2.0 * math.pi / float(w)
    phase = product_of(RealConst(k), sum_of(Var(), RationalConst(-a)))
    fhat = product_of(
        Scale(Fraction(1, 2), sum_of(RationalConst(1), Negate(Cos(phase)))),
        Indicator(a, b, True, True),
    )
    spec = SignalSpec(fhat, (a, b), f"bump({a},{b})", Fraction(3, 8) * w)
    _spot_check(spec)
    return spec


def indicator_signal(a, b) -> SignalSpec:
    """f̂ = χ over (a, b]; ‖f‖² = b − a."""
    a, b = _check_interval(a, b)
    fhat = Indicator(a, b, False, True)
    spec = SignalSpec(fhat, (a, b), f"ind({a},{b})", b - a)
    _spot_check(spec)
    return spec


def catalog() -> list[SignalSpec]:
    """The standard test signals used by the verification suites.

    Two bumps probing the scaling-function band and one full dyadic tile,
    an exact indicator tile, and a wide bump spanning several levels.
    All supports sit inside (0, ∞) at dyadic endpoints.
    """
    return [
        hann_bump(Fraction(1, 64), Fraction(1, 16)),
        hann_bump(Fraction(9, 64), Fraction(31, 64)),
        indicator_signal(Fraction(1, 8), Fraction(1, 2)),
        hann_bump(Fraction(1, 4), Fraction(2)),
    ]
