"""Symbolic frequency-domain expressions: trees, parser, evaluation.

The analysis machinery needs closed-form functions of one real frequency
variable that it can evaluate on large grids, dilate exactly in the argument
(γ ↦ s·γ with rational s), and print back as text.  This module provides a
small immutable expression language for that purpose.  Trees are frozen
dataclasses, so structural equality and hashing come for free and golden
trees can be compared directly in tests.

Text grammar (whitespace insignificant):

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := rational | 'i' | 'g' | ident '(' expr ')' | chi
              | '(' expr ')' | '-' factor
    ident    := 'sin' | 'cos' | 'sinc' | 'sqrt' | 'abs2' | 'conj' | 'recip'
    chi      := 'chi' ('('|'[') rational ',' rational (')'|']')
    rational := integer | integer '/' positive-integer | decimal

``g`` is the frequency variable.  ``chi`` brackets follow interval notation:
round is open, square is closed, so ``chi(0,1/8]`` is the indicator of
(0, 1/8].  ``sinc`` is unnormalized sin(x)/x with sinc(0) = 1.  ``recip`` is
the guarded reciprocal of a strictly positive subexpression; evaluation at a
point where the argument is not strictly positive raises ThetaNotPositive.

evaluate returns one value per point.  The grid scans call evaluate_block
on an ascending block instead: it decides each indicator whose endpoints
the block does not straddle and returns a value that is the same on every
point of the block as one element, with the same bits.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BadIndicatorBounds,
    ExprSyntaxError,
    NegativeSqrt,
    ThetaNotPositive,
    UnknownIdentifier,
    ZeroScale,
)

# Tolerance below which imaginary parts / negative real parts are treated as
# rounding noise by sqrt and recip.
IMAG_TOL = 1e-12

# Default cap on tree size accepted by the parser.
MAX_NODES = 10_000

_MAX_PARSE_DEPTH = 200


class FreqExpr:
    """Base class for expression nodes.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class RationalConst(FreqExpr):
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True, slots=True)
class RealConst(FreqExpr):
    value: float


@dataclass(frozen=True, slots=True)
class ImaginaryUnit(FreqExpr):
    pass


@dataclass(frozen=True, slots=True)
class Var(FreqExpr):
    pass


@dataclass(frozen=True, slots=True)
class Sin(FreqExpr):
    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Cos(FreqExpr):
    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Sinc(FreqExpr):
    """Unnormalized sinc: sin(x)/x, value 1 at x = 0."""

    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Sqrt(FreqExpr):
    """Square root of a nonnegative real value.

    Evaluation raises NegativeSqrt when the argument has real part below
    −IMAG_TOL or imaginary part beyond IMAG_TOL.
    """

    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Abs2(FreqExpr):
    """Squared modulus |·|²."""

    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Conj(FreqExpr):
    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Indicator(FreqExpr):
    """Indicator of an interval in the frequency variable itself.

    Bounds are exact rationals; lo_closed / hi_closed select bracket
    semantics at the endpoints.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise BadIndicatorBounds(
                f"indicator bounds must satisfy lo < hi, got [{self.lo}, {self.hi}]"
            )


@dataclass(frozen=True, slots=True)
class Sum(FreqExpr):
    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("Sum needs at least two terms")


@dataclass(frozen=True, slots=True)
class Product(FreqExpr):
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("Product needs at least two factors")


@dataclass(frozen=True, slots=True)
class Negate(FreqExpr):
    arg: FreqExpr


@dataclass(frozen=True, slots=True)
class Scale(FreqExpr):
    """Multiplication by an exact rational constant."""

    coeff: Fraction
    arg: FreqExpr

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))


@dataclass(frozen=True, slots=True)
class PositiveReciprocal(FreqExpr):
    """1/arg, guarded: arg must evaluate strictly positive (real).

    Produced by the scaling-symbol normalization, which verifies positivity
    on the working grid first; evaluation re-checks every point and raises
    ThetaNotPositive outside verified territory.
    """

    arg: FreqExpr


def sum_of(*terms: FreqExpr) -> FreqExpr:
    """Sum with flattening of nested Sums; a single term passes through."""
    flat: list[FreqExpr] = []
    for t in terms:
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        raise ValueError("empty sum")
    if len(flat) == 1:
        return flat[0]
    return Sum(tuple(flat))


def product_of(*factors: FreqExpr) -> FreqExpr:
    """Product with flattening of nested Products; a single factor passes through."""
    flat: list[FreqExpr] = []
    for f in factors:
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        raise ValueError("empty product")
    if len(flat) == 1:
        return flat[0]
    return Product(tuple(flat))


def count_nodes(e: FreqExpr) -> int:
    if isinstance(e, Sum):
        return 1 + sum(count_nodes(t) for t in e.terms)
    if isinstance(e, Product):
        return 1 + sum(count_nodes(f) for f in e.factors)
    if isinstance(e, (Sin, Cos, Sinc, Sqrt, Abs2, Conj, Negate, PositiveReciprocal)):
        return 1 + count_nodes(e.arg)
    if isinstance(e, Scale):
        return 1 + count_nodes(e.arg)
    return 1


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: FreqExpr, gamma):
    """Evaluate e at real frequency gamma (scalar or ndarray).

    Vectorizes over numpy arrays.  An array result is float64 unless an
    ``i`` reaches it (sqrt, abs2 and recip return real values), and then
    complex128; the real values are the same bits either way.  Scalars come
    back as python complex.  Overflow gives inf or nan without a
    RuntimeWarning; callers that reduce the values check them for
    finiteness and name what overflowed.
    """
    g = np.asarray(gamma, dtype=np.float64)
    with np.errstate(all="ignore"):
        if g.ndim == 0:
            return complex(_eval(e, g.reshape(1), None)[0])
        out = _eval(e, g, None)
    if out is g or out.shape != g.shape:
        return np.broadcast_to(out, g.shape).copy()
    return out


def evaluate_block(e: FreqExpr, g: np.ndarray) -> np.ndarray:
    """evaluate(e, g) for a nonempty, ascending, finite array g (a grid
    block, or one times a positive level scale), except that a value that
    is the same at every point of g comes back as one element: the result
    has g's shape or shape (1,), which broadcasts to it, with evaluate's
    dtype and bits.

    An Indicator is decided on g from its ends g[0] and g[-1], by the float
    comparisons evaluation makes, when every point lies on one side of each
    endpoint; evaluate decides none.  Constants and decided indicators are
    one value, and so are +, −, ×, negation, Scale, abs2 and conj of
    one-value operands.  sin, cos, sinc, sqrt and recip broadcast their
    argument to g's shape first, so their values, and the point a raised
    error names, are those of evaluate.  The result may be g itself.
    """
    with np.errstate(all="ignore"):
        return _eval(e, g, (g[0], g[-1]))


def squared_modulus(v: np.ndarray) -> np.ndarray:
    """|v|² of an evaluated array, as float64."""
    if np.iscomplexobj(v):
        return v.real * v.real + v.imag * v.imag
    return v * v


def _off_real_axis(v: np.ndarray):
    """Where v's imaginary part exceeds IMAG_TOL (nowhere when v is real)."""
    return np.abs(v.imag) > IMAG_TOL if np.iscomplexobj(v) else False


def _first_bad(g, v, mask):
    i = int(np.argmax(mask))
    return float(g[i]), complex(v[i])


def _fold(op, parts, g: np.ndarray, span) -> np.ndarray:
    """op over the values of parts, left to right; in place after the first
    step, which makes a fresh array, unless a full operand meets a one-value
    accumulator or a complex value meets a real one."""
    acc = op(_eval(parts[0], g, span), _eval(parts[1], g, span))
    for p in parts[2:]:
        v = _eval(p, g, span)
        if v.size > acc.size or (np.iscomplexobj(v) and not np.iscomplexobj(acc)):
            acc = op(acc, v)
        else:
            op(acc, v, out=acc)
    return acc


def _whole(e: FreqExpr, g: np.ndarray, span) -> np.ndarray:
    """e's values on g at g's shape (a read-only view when they are one
    value)."""
    return np.broadcast_to(_eval(e, g, span), g.shape)


def _eval(e: FreqExpr, g: np.ndarray, span) -> np.ndarray:
    """e's values on g (see evaluate_block); span is (g[0], g[-1]) of an
    ascending g, or None when indicators are not to be decided on it."""
    if isinstance(e, (RationalConst, RealConst)):
        return np.full(1, float(e.value))
    if isinstance(e, ImaginaryUnit):
        return np.full(1, 1j)
    if isinstance(e, Var):
        return g
    if isinstance(e, Sin):
        return np.sin(_whole(e.arg, g, span))
    if isinstance(e, Cos):
        return np.cos(_whole(e.arg, g, span))
    if isinstance(e, Sinc):
        x = _whole(e.arg, g, span)
        zero = x == 0
        safe = np.where(zero, 1.0, x)
        # A real x takes sin(x)·(1/x): that is what complex division by a
        # real divisor computes, so both forms give the same bits.
        if np.iscomplexobj(safe):
            ratio = np.sin(safe) / safe
        else:
            ratio = np.sin(safe) * (1.0 / safe)
        return np.where(zero, 1.0, ratio)
    if isinstance(e, Sqrt):
        v = _whole(e.arg, g, span)
        bad = _off_real_axis(v) | (v.real < -IMAG_TOL)
        if bad.any():
            gp, vp = _first_bad(g, v, bad)
            raise NegativeSqrt(f"sqrt of non-nonnegative value {vp} at gamma={gp}")
        return np.sqrt(np.maximum(v.real, 0.0))
    if isinstance(e, Abs2):
        return squared_modulus(_eval(e.arg, g, span))
    if isinstance(e, Conj):
        return np.conj(_eval(e.arg, g, span))
    if isinstance(e, Indicator):
        lo, hi = float(e.lo), float(e.hi)
        above = operator.ge if e.lo_closed else operator.gt
        below = operator.le if e.hi_closed else operator.lt
        if span is not None:
            if above(span[0], lo) and below(span[1], hi):
                return np.ones(1)
            if not (above(span[1], lo) and below(span[0], hi)):
                return np.zeros(1)
        return (above(g, lo) & below(g, hi)).astype(np.float64)
    if isinstance(e, Sum):
        return _fold(np.add, e.terms, g, span)
    if isinstance(e, Product):
        return _fold(np.multiply, e.factors, g, span)
    if isinstance(e, Negate):
        return -_eval(e.arg, g, span)
    if isinstance(e, Scale):
        return float(e.coeff) * _eval(e.arg, g, span)
    if isinstance(e, PositiveReciprocal):
        v = _whole(e.arg, g, span)
        bad = _off_real_axis(v) | (v.real <= 0.0)
        if bad.any():
            gp, vp = _first_bad(g, v, bad)
            raise ThetaNotPositive(
                f"reciprocal of non-positive value {vp} at gamma={gp}"
            )
        return 1.0 / v.real
    raise TypeError(f"not a FreqExpr node: {e!r}")


# ---------------------------------------------------------------------------
# support pass

# Largest magnitude bound the support pass accepts for any node.  The margin
# below the float maximum (about 1.8e308) absorbs the rounding of every
# intermediate value the bound covers.
_MAX_BOUND = 1e300


class _Unproven(Exception):
    """A subtree admits no support proof."""


def zero_outside(e: FreqExpr, lo, hi) -> tuple[Fraction, Fraction] | None:
    """Closed interval (a, b) outside which evaluate(e, γ) is exactly ±0 for
    every float γ in [lo, hi], or None when nothing can be proved.

    a > b means e vanishes on the whole domain.  An Indicator contributes
    the floats its evaluation compares against; a Product meets its
    factors' intervals, a Sum takes the hull of its terms', and Sin, Scale,
    Negate, Conj and Abs2 pass their argument's through.

    A zero times a finite value is a zero, but times inf or nan it is nan,
    so the same pass bounds |e| on [lo, hi], including every partial sum
    and partial product, and proves nothing unless each bound is at most
    _MAX_BOUND.  Sqrt and recip (whose evaluation raises), non-finite or
    huge constants, and sin, cos and sinc of a complex argument also prove
    nothing.
    """
    try:
        return _support(e, Fraction(lo), Fraction(hi))[0]
    except (_Unproven, OverflowError):
        return None


def _support(e: FreqExpr, lo: Fraction, hi: Fraction):
    """(interval, bound on |e|, e real-valued) on [lo, hi]."""
    iv, bound, real = _support_node(e, lo, hi)
    if not bound <= _MAX_BOUND:
        raise _Unproven
    return iv, bound, real


def _support_node(e: FreqExpr, lo: Fraction, hi: Fraction):
    whole = (lo, hi)
    if isinstance(e, (RationalConst, RealConst)):
        return whole, abs(float(e.value)), True
    if isinstance(e, ImaginaryUnit):
        return whole, 1.0, False
    if isinstance(e, Var):
        return whole, float(max(abs(lo), abs(hi))), True
    if isinstance(e, Indicator):
        return (max(lo, Fraction(float(e.lo))), min(hi, Fraction(float(e.hi)))), 1.0, True
    if isinstance(e, (Sin, Cos, Sinc)):
        iv, _, real = _support(e.arg, lo, hi)
        if not real:
            raise _Unproven
        return (iv if isinstance(e, Sin) else whole), 1.0, True
    if isinstance(e, (Abs2, Conj, Negate)):
        iv, bound, real = _support(e.arg, lo, hi)
        if isinstance(e, Abs2):
            return iv, bound * bound, True
        return iv, bound, real
    if isinstance(e, Scale):
        iv, bound, real = _support(e.arg, lo, hi)
        return iv, abs(float(e.coeff)) * bound, real
    if isinstance(e, Sum):
        parts = [_support(t, lo, hi) for t in e.terms]
        ivs = [iv for iv, _, _ in parts if iv[0] <= iv[1]]
        iv = (min(a for a, _ in ivs), max(b for _, b in ivs)) if ivs else parts[0][0]
        return iv, sum(b for _, b, _ in parts), all(r for _, _, r in parts)
    if isinstance(e, Product):
        parts = [_support(f, lo, hi) for f in e.factors]
        iv = (max(iv[0] for iv, _, _ in parts), min(iv[1] for iv, _, _ in parts))
        # Factors below 1 count as 1, so every partial product is covered.
        bound = math.prod(max(b, 1.0) for _, b, _ in parts)
        return iv, bound, all(r for _, _, r in parts)
    raise _Unproven


def zero_outside_scaled(e: FreqExpr, scale: float, lo, hi):
    """Interval in γ outside which evaluate(e, scale·γ) is exactly ±0 at
    the midpoints of a grid on [lo, hi], 0 ≤ lo, to hand to cell_range; or
    None when nothing can be proved.

    e's zero_outside interval on [scale·lo, scale·hi] maps back through the
    float scale that evaluation multiplies by; cell_range's one-cell
    widening covers the rounding of the products scale·γ.  Below 2^−1000
    those products are subnormal and may stray by more than a cell, so
    nothing is proved there.
    """
    if not scale >= 2.0**-1000:
        return None
    s = Fraction(scale)
    iv = zero_outside(e, s * Fraction(lo), s * Fraction(hi))
    return None if iv is None else (iv[0] / s, iv[1] / s)


# ---------------------------------------------------------------------------
# argument dilation


def dilate_arg(e: FreqExpr, s) -> FreqExpr:
    """Expression for γ ↦ e(s·γ), s an exact nonzero rational.

    Indicator bounds are remapped exactly (divided by s, swapping
    orientation when s < 0); everything else rewrites structurally.
    dilate_arg(e, 1) returns e itself.
    """
    s = Fraction(s)
    if s == 0:
        raise ZeroScale("dilation scale must be nonzero")
    if s == 1:
        return e
    return _dilate(e, s)


def _dilate(e: FreqExpr, s: Fraction) -> FreqExpr:
    if isinstance(e, Var):
        return Scale(s, Var())
    if isinstance(e, Indicator):
        lo, hi = e.lo / s, e.hi / s
        if s > 0:
            return Indicator(lo, hi, e.lo_closed, e.hi_closed)
        return Indicator(hi, lo, e.hi_closed, e.lo_closed)
    if isinstance(e, (RationalConst, RealConst, ImaginaryUnit)):
        return e
    if isinstance(e, (Sin, Cos, Sinc, Sqrt, Abs2, Conj, Negate, PositiveReciprocal)):
        return type(e)(_dilate(e.arg, s))
    if isinstance(e, Scale):
        return Scale(e.coeff, _dilate(e.arg, s))
    if isinstance(e, Sum):
        return Sum(tuple(_dilate(t, s) for t in e.terms))
    if isinstance(e, Product):
        return Product(tuple(_dilate(f, s) for f in e.factors))
    raise TypeError(f"not a FreqExpr node: {e!r}")


# ---------------------------------------------------------------------------
# grid scan

# Cells per block of a grid scan: 2^14 float64 values are 128 KiB, so the
# temporaries of one expression's evaluation stay in a per-core L2 cache.
# No result depends on it: values are computed cell by cell, and every
# reduction is an exact sum or a max.
BLOCK_CELLS = 1 << 14


def grid_blocks(a, b, log2_n: int, interval=None):
    """Yield (k, g) over the cells of the regular 2^log2_n grid on [a, b]
    that cell_range keeps for interval (every cell when it is None), in
    blocks of BLOCK_CELLS cells: k is the block's first cell and g holds
    its midpoints a + (k + 1/2)·h, h = (b − a)/2^log2_n, ascending.

    Each midpoint is the same float however the grid is cut; for dyadic
    a, b the values are exact float64.
    """
    k0, k1 = cell_range(a, b, log2_n, interval)
    h = float((Fraction(b) - Fraction(a)) / (1 << log2_n))
    a_f = float(a)
    for k in range(k0, k1, BLOCK_CELLS):
        cells = np.arange(k, min(k + BLOCK_CELLS, k1), dtype=np.float64)
        yield k, a_f + (cells + 0.5) * h


def cell_range(a, b, log2_n: int, interval) -> tuple[int, int]:
    """Cells [k0, k1) of the regular 2^log2_n grid on [a, b] whose
    exact midpoints lie in the closed interval, widened by one cell on each
    side; every cell when interval is None, none when it is empty.

    A float midpoint strays from the exact one by a few ulps of
    max(|a|, |b|), which the widening covers while that is far below a cell;
    on a grid too fine for that every cell is kept.
    """
    a, b = Fraction(a), Fraction(b)
    n = 1 << log2_n
    h = (b - a) / n
    if interval is None or max(abs(a), abs(b)) >= h * (1 << 48):
        return 0, n
    lo, hi = interval
    if lo > hi:
        return 0, 0
    k0 = min(max(math.ceil((lo - a) / h - Fraction(1, 2)) - 1, 0), n)
    k1 = min(math.floor((hi - a) / h - Fraction(1, 2)) + 2, n)
    return k0, max(k1, k0)


# ---------------------------------------------------------------------------
# parsing


_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_INT_RE = re.compile(r"\d+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

_FUNCTIONS = {
    "sin": Sin,
    "cos": Cos,
    "sinc": Sinc,
    "sqrt": Sqrt,
    "abs2": Abs2,
    "conj": Conj,
    "recip": PositiveReciprocal,
}
_FUNCTION_NAMES = {node: name for name, node in _FUNCTIONS.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, offset: int | None = None):
        raise ExprSyntaxError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_expr(self) -> FreqExpr:
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            self.error("expression nesting too deep")
        terms = [self.parse_term()]
        while True:
            self.skip_ws()
            op = self.peek()
            if op == "+":
                self.pos += 1
                terms.append(self.parse_term())
            elif op == "-":
                self.pos += 1
                terms.append(_negated(self.parse_term()))
            else:
                break
        self.depth -= 1
        return sum_of(*terms)

    def parse_term(self) -> FreqExpr:
        factors = [self.parse_factor()]
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                factors.append(self.parse_factor())
            else:
                break
        return product_of(*factors)

    def parse_factor(self) -> FreqExpr:
        self.depth += 1
        if self.depth > _MAX_PARSE_DEPTH:
            self.error("expression nesting too deep")
        self.skip_ws()
        c = self.peek()
        if not c:
            self.error("unexpected end of input")
        if c == "(":
            self.pos += 1
            e = self.parse_expr()
            self.skip_ws()
            self.expect(")")
            self.depth -= 1
            return e
        if c == "-":
            self.pos += 1
            e = _negated(self.parse_factor())
            self.depth -= 1
            return e
        if c.isdigit() or c == ".":
            e = RationalConst(self.parse_rational())
            self.depth -= 1
            return e
        if c.isalpha() or c == "_":
            e = self.parse_ident()
            self.depth -= 1
            return e
        self.error(f"unexpected character {c!r}")

    def parse_ident(self) -> FreqExpr:
        start = self.pos
        m = _IDENT_RE.match(self.text, self.pos)
        name = m.group()
        self.pos = m.end()
        if name == "g":
            return Var()
        if name == "i":
            return ImaginaryUnit()
        if name == "chi":
            return self.parse_chi()
        ctor = _FUNCTIONS.get(name)
        if ctor is None:
            raise UnknownIdentifier(name, start)
        self.skip_ws()
        self.expect("(")
        arg = self.parse_expr()
        self.skip_ws()
        self.expect(")")
        return ctor(arg)

    def parse_chi(self) -> FreqExpr:
        self.skip_ws()
        c = self.peek()
        if c not in "([":
            self.error("expected '(' or '[' after chi")
        lo_closed = c == "["
        self.pos += 1
        lo = self.parse_signed_rational()
        self.skip_ws()
        self.expect(",")
        hi = self.parse_signed_rational()
        self.skip_ws()
        c = self.peek()
        if c not in ")]":
            self.error("expected ')' or ']' to close chi")
        hi_closed = c == "]"
        self.pos += 1
        return Indicator(lo, hi, lo_closed, hi_closed)

    def parse_signed_rational(self) -> Fraction:
        self.skip_ws()
        neg = False
        if self.peek() == "-":
            neg = True
            self.pos += 1
            self.skip_ws()
        v = self.parse_rational()
        return -v if neg else v

    def parse_rational(self) -> Fraction:
        m = _NUM_RE.match(self.text, self.pos)
        if m is None:
            self.error("expected a number")
        text = m.group()
        self.pos = m.end()
        if text.isdigit() and self.peek() == "/":
            self.pos += 1
            md = _INT_RE.match(self.text, self.pos)
            if md is None:
                self.error("expected a positive integer denominator")
            den = int(md.group())
            if den == 0:
                self.error("denominator must be positive", md.start())
            self.pos = md.end()
            value = Fraction(int(text), den)
        else:
            value = Fraction(text)
        try:
            float(value)
        except OverflowError:
            self.error(
                f"constant {self.text[m.start():self.pos]} is outside the float range",
                m.start(),
            )
        return value


def _negated(e: FreqExpr) -> FreqExpr:
    """Negation with constant folding, so "-3/2" parses to a single literal."""
    if isinstance(e, RationalConst):
        return RationalConst(-e.value)
    if isinstance(e, RealConst):
        return RealConst(-e.value)
    return Negate(e)


def parse(text: str, max_nodes: int = MAX_NODES) -> FreqExpr:
    """Parse expression text.  Raises ExprSyntaxError with the byte offset
    of the failure, UnknownIdentifier for unknown function names, and
    BadIndicatorBounds for chi intervals with lo >= hi."""
    p = _Parser(text)
    e = p.parse_expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    if count_nodes(e) > max_nodes:
        raise ValueError(f"expression exceeds node limit ({max_nodes})")
    return e


# ---------------------------------------------------------------------------
# rendering

_LEVEL_SUM = 0
_LEVEL_PRODUCT = 1
_LEVEL_FACTOR = 2
_LEVEL_ATOM = 3


def render(e: FreqExpr) -> str:
    """Canonical text for e.  For parser-produced trees,
    parse(render(e)) is structurally identical; programmatic-only nodes
    (RealConst, Scale) reparse to evaluation-equal rational forms."""
    return _render(e, _LEVEL_SUM)


def _level(e: FreqExpr) -> int:
    if isinstance(e, Sum):
        return _LEVEL_SUM
    if isinstance(e, (Product, Scale)):
        return _LEVEL_PRODUCT
    if isinstance(e, Negate):
        return _LEVEL_FACTOR
    if isinstance(e, (RationalConst, RealConst)):
        v = e.value
        return _LEVEL_ATOM if v >= 0 else _LEVEL_FACTOR
    return _LEVEL_ATOM


def _render(e: FreqExpr, min_level: int) -> str:
    text = _render_bare(e)
    if _level(e) < min_level:
        return f"({text})"
    return text


def _const_text(v: Fraction) -> str:
    """str(v), or the shorter form mek (1e200, 1e-30) when v = m·10^k and
    str(v) is longer than 20 characters; parse reads both back to v."""
    text = str(v)
    if len(text) <= 20:
        return text
    d, twos, fives = v.denominator, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        return text
    k = -max(twos, fives)
    m = (v * 10**-k).numerator
    while m % 10 == 0:
        m, k = m // 10, k + 1
    exp = f"{m}e{k}"
    return exp if len(exp) < len(text) else text


def _render_bare(e: FreqExpr) -> str:
    if isinstance(e, RationalConst):
        return _const_text(e.value)
    if isinstance(e, RealConst):
        return repr(e.value)
    if isinstance(e, ImaginaryUnit):
        return "i"
    if isinstance(e, Var):
        return "g"
    if type(e) in _FUNCTION_NAMES:
        return f"{_FUNCTION_NAMES[type(e)]}({render(e.arg)})"
    if isinstance(e, Indicator):
        lb = "[" if e.lo_closed else "("
        rb = "]" if e.hi_closed else ")"
        return f"chi{lb}{_const_text(e.lo)},{_const_text(e.hi)}{rb}"
    if isinstance(e, Sum):
        parts = [_render(e.terms[0], _LEVEL_PRODUCT)]
        for t in e.terms[1:]:
            if isinstance(t, Negate):
                parts.append(f" - {_render(t.arg, _LEVEL_PRODUCT)}")
            elif isinstance(t, (RationalConst, RealConst)) and t.value < 0:
                neg = RationalConst(-t.value) if isinstance(t, RationalConst) else RealConst(-t.value)
                parts.append(f" - {_render_bare(neg)}")
            else:
                parts.append(f" + {_render(t, _LEVEL_PRODUCT)}")
        return "".join(parts)
    if isinstance(e, Product):
        return "*".join(_render(f, _LEVEL_FACTOR) for f in e.factors)
    if isinstance(e, Scale):
        coeff = RationalConst(e.coeff)
        return f"{_render(coeff, _LEVEL_FACTOR)}*{_render(e.arg, _LEVEL_FACTOR)}"
    if isinstance(e, Negate):
        return f"-{_render(e.arg, _LEVEL_FACTOR)}"
    raise TypeError(f"not a FreqExpr node: {e!r}")
