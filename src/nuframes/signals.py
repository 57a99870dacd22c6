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


def probe_support(fhat: FreqExpr, support, window):
    """(magnitude, gamma) where fhat shows mass in the window outside a
    declared support inside it, or None.

    None when the interval zero_outside proves for fhat on the window lies
    in the support.  Otherwise fhat is probed at 64 midpoints between each
    end of the support and the window's (above first): the worst probe on
    the first side above 1e-12 or nan, or None when no probe is.
    """
    a, b = support
    lo, hi = window
    iv = zero_outside(fhat, lo, hi)
    if iv is not None and (iv[0] > iv[1] or (a <= iv[0] and iv[1] <= b)):
        return None
    k = np.arange(_SPOT_PROBES) + 0.5
    for end, reach in ((b, hi - b), (a, lo - a)):
        probes = float(end) + k * float(reach / _SPOT_PROBES)
        v = np.abs(evaluate(fhat, probes))
        i = int(np.argmax(v))  # the first nan, if there is one
        if not v[i] <= _SPOT_TOL:
            return float(v[i]), float(probes[i])
    return None


def _spot_check(spec: SignalSpec):
    """Check that the expression vanishes within 4 beyond each end of the
    declared support (see probe_support)."""
    a, b = spec.support
    fault = probe_support(spec.fhat, spec.support, (a - _SPOT_REACH, b + _SPOT_REACH))
    if fault:
        raise ValueError(
            f"{spec.label}: expression has magnitude {fault[0]:.3e} outside "
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
