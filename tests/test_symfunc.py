import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nuframes import symfunc
from nuframes.errors import (
    BadIndicatorBounds,
    ExprSyntaxError,
    NegativeSqrt,
    ThetaNotPositive,
    UnknownIdentifier,
    ZeroScale,
)
from nuframes.symfunc import (
    Abs2,
    Conj,
    Cos,
    ImaginaryUnit,
    Indicator,
    Negate,
    PositiveReciprocal,
    Product,
    RationalConst,
    RealConst,
    Scale,
    Sin,
    Sinc,
    Sqrt,
    Sum,
    Var,
    count_nodes,
    dilate_arg,
    evaluate,
    evaluate_block,
    grid_blocks,
    grid_pieces,
    parse,
    product_of,
    render,
    sum_of,
    support_cells,
    zero_outside,
)

# ---------------------------------------------------------------------------
# parsing: golden trees for the built-in setup expressions


def test_parse_sinc_indicator():
    assert parse("sinc(g)*chi(0,1/8]") == Product(
        (Sinc(Var()), Indicator(F(0), F(1, 8), False, True))
    )


def test_parse_trig_filters():
    chi = Indicator(F(0), F(1, 32), False, True)
    two_g = Product((RationalConst(F(2)), Var()))
    assert parse("cos(g)*cos(2*g)*chi(0,1/32]") == Product(
        (Cos(Var()), Cos(two_g), chi)
    )
    assert parse("cos(2*g)*sin(g)*chi(0,1/32]") == Product(
        (Cos(two_g), Sin(Var()), chi)
    )
    assert parse("sin(2*g)*chi(0,1/32]") == Product((Sin(two_g), chi))


def test_parse_complement_filter():
    chi = Indicator(F(0), F(1, 32), False, True)
    assert parse("1 - chi(0,1/32]") == Sum((RationalConst(F(1)), Negate(chi)))


def test_parse_closed_indicator():
    assert parse("chi[0,1/8]") == Indicator(F(0), F(1, 8), True, True)
    assert parse("chi[1/4,1/2)") == Indicator(F(1, 4), F(1, 2), True, False)
    assert parse("chi(-1/2,3)") == Indicator(F(-1, 2), F(3), False, False)


def test_parse_numbers():
    assert parse("3/2") == RationalConst(F(3, 2))
    assert parse("-3/2") == RationalConst(F(-3, 2))
    assert parse("0.25") == RationalConst(F(1, 4))
    assert parse("2.5e-3") == RationalConst(F(1, 400))
    assert parse("1 - 1/2") == Sum((RationalConst(F(1)), RationalConst(F(-1, 2))))


def test_parse_functions_and_atoms():
    assert parse("i") == ImaginaryUnit()
    assert parse("g") == Var()
    assert parse("sqrt(g)") == Sqrt(Var())
    assert parse("abs2(i*g)") == Abs2(Product((ImaginaryUnit(), Var())))
    assert parse("conj(g)") == Conj(Var())
    assert parse("recip(g)") == PositiveReciprocal(Var())
    assert parse("-(g + 1)") == Negate(Sum((Var(), RationalConst(F(1)))))


def test_parse_whitespace_and_grouping():
    assert parse(" ( g + 1 ) * g ") == parse("(g+1)*g")
    assert parse("g - (1 - g)") == Sum(
        (Var(), Negate(Sum((RationalConst(F(1)), Negate(Var())))))
    )


@pytest.mark.parametrize(
    "text,offset",
    [
        ("sin(g", 5),
        ("2 +", 3),
        ("g g", 2),
        ("g @ g", 2),
        ("chi{0,1}", 3),
        ("1/0", 2),
        ("", 0),
        ("sqrt 4", 5),
        ("chi(0 1)", 6),
        ("2*1e400*g", 2),
        ("chi(0,1e309]", 6),
    ],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert exc.value.offset == offset
    assert f"offset {offset}" in str(exc.value)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifier) as exc:
        parse("2*foo(g)")
    assert exc.value.name == "foo"
    assert exc.value.offset == 2


def test_bad_indicator_bounds():
    with pytest.raises(BadIndicatorBounds):
        parse("chi(1/2,1/4]")
    with pytest.raises(BadIndicatorBounds):
        parse("chi[1,1]")
    with pytest.raises(BadIndicatorBounds):
        Indicator(F(1), F(1), True, True)


def test_node_limit():
    text = "+".join(["g"] * 30)
    assert count_nodes(parse(text)) == 31
    with pytest.raises(ValueError, match="node limit"):
        parse(text, max_nodes=30)
    with pytest.raises(ValueError, match="node limit"):
        parse("+".join(["g"] * 10_001))


def test_depth_limit():
    deep = "(" * 250 + "g" + ")" * 250
    with pytest.raises(ExprSyntaxError, match="nesting too deep"):
        parse(deep)
    ok = "(" * 80 + "g" + ")" * 80
    assert parse(ok) == Var()


# ---------------------------------------------------------------------------
# evaluation


def test_eval_atoms():
    assert evaluate(RationalConst(F(3, 2)), 0.7) == 1.5
    assert evaluate(RealConst(0.25), 9.0) == 0.25
    assert evaluate(ImaginaryUnit(), 2.0) == 1j
    assert evaluate(Var(), 0.3) == 0.3


def test_eval_dtype_follows_i():
    """Arrays are float64 unless an i reaches the result; a bare g is a
    copy of the points, not the caller's array."""
    pts = np.array([0.1, 0.3])
    for text in ("g", "sin(g)*chi(0,1/4] - 2", "sqrt(abs2(i*g))", "recip(1 + g)"):
        v = evaluate(parse(text), pts)
        assert v.dtype == np.float64 and v is not pts, text
    for text in ("i", "g + i*g", "conj(sinc(i*g))"):
        assert evaluate(parse(text), pts).dtype == np.complex128, text


def test_eval_sinc():
    assert evaluate(Sinc(Var()), 0.0) == 1.0
    x = 0.7
    assert evaluate(Sinc(Var()), x) == math.sin(x) / x
    v = evaluate(Sinc(Var()), np.array([0.0, x]))
    assert v[0] == 1.0 and v[1] == math.sin(x) / x


def test_eval_sinc_of_tiny_arguments():
    """Where 1/x overflows (|x| ≤ 2^-1024) sinc is 1, not inf; above that
    it keeps the bits of sin(x)·(1/x)."""
    tiny = np.array([5e-324, -5e-324, 2.0**-1024, -(2.0**-1024)])
    assert np.all(evaluate(Sinc(Var()), tiny) == 1.0)
    assert np.all(evaluate(parse("sinc(i*g)"), tiny) == 1.0)
    x = math.nextafter(2.0**-1024, 1.0)
    assert evaluate(Sinc(Var()), x) == math.sin(x) * (1.0 / x)


def test_eval_indicator_endpoint_semantics():
    half_open = Indicator(F(0), F(1, 8), False, True)
    assert evaluate(half_open, 0.0) == 0.0
    assert evaluate(half_open, 0.125) == 1.0
    assert evaluate(half_open, 0.1) == 1.0
    assert evaluate(half_open, 0.2) == 0.0
    closed = Indicator(F(0), F(1, 8), True, True)
    assert evaluate(closed, 0.0) == 1.0
    open_hi = Indicator(F(0), F(1, 8), True, False)
    assert evaluate(open_hi, 0.125) == 0.0


def test_eval_complex_algebra():
    e = parse("conj(i*g)")
    assert evaluate(e, 2.0) == -2j
    assert evaluate(parse("abs2(i*g + 1)"), 2.0) == 5.0
    assert evaluate(parse("sqrt(4)"), 0.0) == 2.0
    assert evaluate(parse("recip(4)"), 0.0) == 0.25


def test_eval_scale_and_negate():
    assert evaluate(Scale(F(3, 2), Var()), 2.0) == 3.0
    assert evaluate(Negate(Var()), 2.0) == -2.0


def test_eval_guards():
    with pytest.raises(NegativeSqrt, match="sqrt"):
        evaluate(Sqrt(Var()), -1.0)
    with pytest.raises(NegativeSqrt):
        evaluate(parse("sqrt(i*g)"), 1.0)
    with pytest.raises(ThetaNotPositive, match="reciprocal"):
        evaluate(PositiveReciprocal(Var()), 0.0)
    with pytest.raises(ThetaNotPositive):
        evaluate(parse("recip(g - 1)"), 0.25)
    # tolerance absorbs tiny imaginary dust
    assert evaluate(Sqrt(RealConst(0.0)), 0.0) == 0.0


def test_eval_vectorized_matches_scalar():
    e = parse("sin(2*g)*chi(0,1/32] + conj(i*g)")
    pts = np.linspace(-0.1, 0.6, 23)
    vec = evaluate(e, pts)
    for x, v in zip(pts, vec):
        assert evaluate(e, float(x)) == v


# ---------------------------------------------------------------------------
# constructors


def test_sum_product_constructors():
    a, b, c = Var(), RationalConst(F(1)), Sin(Var())
    assert sum_of(a) is a
    assert product_of(c) is c
    assert sum_of(a, sum_of(b, c)) == Sum((a, b, c))
    assert product_of(a, product_of(b, c)) == Product((a, b, c))
    with pytest.raises(ValueError, match="empty"):
        sum_of()
    with pytest.raises(ValueError, match="empty"):
        product_of()
    with pytest.raises(ValueError, match="two"):
        Sum((a,))
    with pytest.raises(ValueError, match="two"):
        Product((a,))


def test_nodes_are_immutable_and_hashable():
    e = parse("sin(g)*g")
    with pytest.raises(AttributeError):
        e.factors = ()
    assert hash(parse("sin(g)*g")) == hash(e)


# ---------------------------------------------------------------------------
# argument dilation


def test_dilate_indicator_exact():
    chi = Indicator(F(0), F(1, 8), False, True)
    assert dilate_arg(chi, F(1, 4)) == Indicator(F(0), F(1, 2), False, True)
    assert dilate_arg(chi, 4) == Indicator(F(0), F(1, 32), False, True)
    flipped = dilate_arg(Indicator(F(0), F(1), False, True), -1)
    assert flipped == Indicator(F(-1), F(0), True, False)


def test_dilate_identity_and_zero():
    e = parse("sin(g)")
    assert dilate_arg(e, 1) is e
    with pytest.raises(ZeroScale):
        dilate_arg(e, 0)


@pytest.mark.parametrize(
    "text",
    [
        "sinc(g)*chi(0,1/8]",
        "1 - chi(0,1/32]",
        "cos(2*g)*sin(g)*chi(0,1/32]",
        "conj(i*g) - 3/2*g",
        "abs2(sin(g) + i)",
    ],
)
@pytest.mark.parametrize("s", [F(4), F(1, 4), F(-2), F(3, 5)])
def test_dilate_evaluates_at_scaled_argument(text, s):
    e = parse(text)
    d = dilate_arg(e, s)
    pts = np.linspace(-0.9, 0.9, 41)
    got = evaluate(d, pts)
    want = evaluate(e, float(s) * pts)
    assert np.allclose(got, want, rtol=1e-14, atol=0)


def test_dilate_composes():
    e = parse("sin(g)*chi(0,1]")
    once = dilate_arg(dilate_arg(e, F(3, 2)), F(4, 3))
    direct = dilate_arg(e, F(2))
    pts = np.linspace(-1.0, 1.0, 29)
    assert np.allclose(evaluate(once, pts), evaluate(direct, pts), rtol=1e-14)


# ---------------------------------------------------------------------------
# rendering


@pytest.mark.parametrize(
    "text",
    [
        "sinc(g)*chi(0,1/8]",
        "chi[0,1/8]",
        "chi[0,1/32]",
        "1 - chi(0,1/32]",
        "cos(g)*cos(2*g)*chi(0,1/32]",
        "cos(2*g)*sin(g)*chi(0,1/32]",
        "sin(2*g)*chi(0,1/32]",
        "sqrt(1 + abs2(sin(g)))",
        "conj(i*g) - 3/2*g",
        "recip(1 + g*g)",
        "-(g + 1)*g",
        "g - (1 - g)",
        "-1/2 + g",
        "chi(-1/2,-1/4]",
        "i*sin(g)*(g + 2)",
        "1e200*1e200*chi[0,1/8]",
        "1e-30*g",
        "chi[0,1e-30]",
    ],
)
def test_render_round_trip_structural(text):
    e = parse(text)
    r = render(e)
    assert r == text
    assert parse(r) == e
    assert render(parse(r)) == r


def test_render_programmatic_nodes_eval_equal():
    pts = np.linspace(-2.0, 2.0, 37)
    for e in (
        Scale(F(3, 2), Sin(Var())),
        RealConst(0.1),
        RealConst(math.pi),
        RealConst(1e-20),
        Negate(RationalConst(F(2))),
        product_of(RealConst(2 * math.pi / 0.046875), sum_of(Var(), RationalConst(F(-1, 64)))),
    ):
        back = parse(render(e))
        assert np.allclose(evaluate(back, pts), evaluate(e, pts), rtol=1e-15, atol=0)


# hypothesis: random trees survive render -> parse with equal values

_points = np.linspace(-1.5, 1.5, 17)


def _exprs(guarded=False):
    """Random trees; guarded ones also take sqrt and recip, which raise
    where their argument is out of range."""
    atoms = st.one_of(
        st.builds(RationalConst, st.fractions(min_value=-8, max_value=8, max_denominator=64)),
        st.just(Var()),
        st.just(ImaginaryUnit()),
        st.builds(
            lambda lo, w, lc, hc: Indicator(lo, lo + w, lc, hc),
            st.fractions(min_value=-2, max_value=2, max_denominator=16),
            st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16),
            st.booleans(),
            st.booleans(),
        ),
    )

    def extend(children):
        guards = (st.builds(Sqrt, children), st.builds(PositiveReciprocal, children))
        return st.one_of(
            *(guards if guarded else ()),
            st.builds(Sin, children),
            st.builds(Cos, children),
            st.builds(Sinc, children),
            st.builds(Abs2, children),
            st.builds(Conj, children),
            st.builds(Negate, children),
            st.builds(
                Scale,
                st.fractions(min_value=-4, max_value=4, max_denominator=32).filter(bool),
                children,
            ),
            st.builds(lambda ts: Sum(tuple(ts)), st.lists(children, min_size=2, max_size=4)),
            st.builds(lambda fs: Product(tuple(fs)), st.lists(children, min_size=2, max_size=4)),
        )

    return st.recursive(atoms, extend, max_leaves=25)


@settings(deadline=None, max_examples=120)
@given(e=_exprs())
def test_render_parse_preserves_values(e):
    back = parse(render(e))
    v1 = evaluate(e, _points)
    v2 = evaluate(back, _points)
    np.testing.assert_allclose(v2, v1, rtol=1e-12, atol=1e-15)


def _indicator_ends(e) -> set:
    if isinstance(e, Indicator):
        return {e.lo, e.hi}
    kids = getattr(e, "terms", None) or getattr(e, "factors", None) or (
        (e.arg,) if hasattr(e, "arg") else ())
    return set().union(*(_indicator_ends(k) for k in kids))


@settings(deadline=None, max_examples=120)
@given(e=_exprs(), s=st.fractions(min_value=-4, max_value=4, max_denominator=16).filter(bool))
def test_dilate_property(e, s):
    got = evaluate(dilate_arg(e, s), _points)
    want = evaluate(e, float(s) * _points)
    # Where s·x is exactly an indicator endpoint, float(s)*x may round to
    # either side of it; there the reference takes the exact argument.
    ends = _indicator_ends(e)
    hit = np.array([s * F(x) in ends for x in _points.tolist()])
    if hit.any():
        want[hit] = evaluate(e, np.array([float(s * F(x)) for x in _points[hit].tolist()]))
    # The scale comes from the finite values: an overflowed value would make
    # the tolerance inf, which numpy rejects.  assert_allclose still needs
    # inf and nan at the same points in both.
    mag = np.max(np.abs(want[np.isfinite(want)]), initial=0.0) + 1.0
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * mag)


def _bits(fn):
    """fn()'s dtype and raw bytes (values, signs and nan positions), or the
    type and message of what it raised."""
    try:
        v = fn()
    except (NegativeSqrt, ThetaNotPositive) as exc:
        return type(exc), str(exc)
    return v.dtype, v.tobytes()


# Where a block lies against an indicator endpoint e: offsets k, in cells,
# of its points e + k·h.
_PLACES = {
    "starts on": lambda n: np.arange(n),
    "ends on": lambda n: np.arange(1 - n, 1),
    "straddles": lambda n: np.arange(n) - n // 2 + 0.5,
    "lies past": lambda n: np.arange(1, n + 1),
    "lies before": lambda n: np.arange(-n, 0),
}


@settings(deadline=None, max_examples=300)
@given(e=_exprs(guarded=True), data=st.data())
def test_block_entry_equals_evaluate(e, data):
    """evaluate_block, broadcast to the block, is evaluate's result bit for
    bit, or raises what evaluate raises, on ascending finite blocks placed
    against one of e's indicator endpoints."""
    end = float(data.draw(st.sampled_from(sorted(_indicator_ends(e)) or [F(0)])))
    n = data.draw(st.integers(1, 33))
    h = 2.0 ** -data.draw(st.integers(1, 8))
    g = end + _PLACES[data.draw(st.sampled_from(sorted(_PLACES)))](n) * h
    want = _bits(lambda: evaluate(e, g))
    got = _bits(lambda: np.broadcast_to(evaluate_block(e, g), g.shape))
    assert got == want
    if not isinstance(want[0], type):
        assert evaluate_block(e, g).shape in {g.shape, (1,)}


def test_block_entry_decides_indicators():
    """An ascending block on one side of each endpoint is one value; a
    block that straddles one is evaluated point by point."""
    block = np.array([0.25, 0.375, 0.5])
    for text, shape in (
        ("chi[1/4,1/2]", (1,)),
        ("chi(1/4,1/2]", (3,)),
        ("chi[1/4,1/2)", (3,)),
        ("chi(0,1/4)", (1,)),
        ("chi(1/2,1)", (1,)),
        ("3*(1 - chi[0,1/8]) + i*abs2(conj(-chi[0,1]))", (1,)),
        ("sin(chi[0,1])", (3,)),
        ("g*chi[0,1]", (3,)),
    ):
        assert evaluate_block(parse(text), block).shape == shape, text


def _shared_exprs():
    """_exprs(guarded=True) trees, some holding one subtree object twice (g
    itself is one object in all of them), so a node that overwrote a
    child's value would hand the wrong values to the other place."""
    return st.recursive(
        _exprs(guarded=True),
        lambda kids: st.one_of(
            st.builds(lambda t: Product((t, t)), kids),
            st.builds(lambda t, u: Sum((t, Negate(u), t)), kids, kids),
            st.builds(lambda t: Sin(Product((Var(), t, Var(), t))), kids),
        ),
        max_leaves=3,
    )


@settings(deadline=None, max_examples=300)
@given(e=_shared_exprs(), data=st.data())
def test_evaluation_in_place_writes_only_its_own_arrays(e, data):
    """evaluate and evaluate_block, broadcast to a read-only block, give the
    bits of evaluating each point as its own one-element array, or raise
    what that raises at the point the message names; a write into g would
    raise, and fail the test."""
    end = float(data.draw(st.sampled_from(sorted(_indicator_ends(e)) or [F(0)])))
    n = data.draw(st.integers(1, 33))
    h = 2.0 ** -data.draw(st.integers(1, 8))
    g = end + _PLACES[data.draw(st.sampled_from(sorted(_PLACES)))](n) * h
    g.setflags(write=False)
    points = [_bits(lambda x=x: evaluate(e, np.array([x]))) for x in g.tolist()]
    raised = [p for p in points if isinstance(p[0], type)]
    for got in (_bits(lambda: evaluate(e, g)),
                _bits(lambda: np.broadcast_to(evaluate_block(e, g), g.shape))):
        if raised:
            assert got in raised
        else:
            assert got == (points[0][0], b"".join(b for _, b in points))


@pytest.mark.parametrize("text", [
    "(28/6 + 17/21*i)*(18/20 + 29/25*i)*chi(0,1)*(43/13 + 39/16*i)",
    "(g + i)*(g - 2*i)*(2*g + 3*i)",
    "(28/6 + 17/21*i)*(g + 29/25*i)*(43/13 + 39/16*i)",
])
def test_complex_products_have_one_set_of_bits(text):
    """A complex product of three factors has the same bits from evaluate,
    from evaluate_block, where a decided indicator leaves one-element
    partial products, and at each point alone: no one-element value is
    multiplied in place, where numpy rounds differently, and a product
    written over its second operand keeps the operand order (complex
    multiplication does not commute bit for bit)."""
    g = np.linspace(0.1, 0.3, 9)
    e = parse(text)
    want = evaluate(e, g).tobytes()
    assert np.broadcast_to(evaluate_block(e, g), g.shape).tobytes() == want
    assert b"".join(evaluate(e, np.array([x])).tobytes() for x in g) == want


@settings(deadline=None, max_examples=200)
@given(
    e=_exprs(),
    lo=st.fractions(min_value=-3, max_value=3, max_denominator=16),
    width=st.fractions(min_value=F(1, 16), max_value=4, max_denominator=16),
    log2_n=st.integers(min_value=3, max_value=10),
)
def test_zero_outside_is_exact(e, lo, width, log2_n):
    """Outside the proved interval every midpoint of a dyadic grid on the
    domain evaluates to exactly zero, and with a proof every value is finite."""
    iv = zero_outside(e, lo, lo + width)
    if iv is None:
        return
    ((_, g),) = grid_blocks(lo, lo + width, log2_n)
    v = evaluate(e, g)
    assert np.all(np.isfinite(v))
    outside = np.array([x < iv[0] or x > iv[1] for x in g.tolist()])
    assert np.all(v[outside] == 0)


@settings(deadline=None, max_examples=300)
@given(
    e=_exprs(),
    window=st.sampled_from([
        (F(0), F(1, 2)), (F(1, 8), F(4)), (F(1, 12), F(4)), (F(-4), F(0)),
        (F(1000), F(1000) + F(1, 1 << 45)), (F(-1000) - F(1, 1 << 45), F(-1000)),
    ]),
    s=st.one_of(
        st.sampled_from([1.0, 4.0**-535, 4.0**-600]),
        st.builds(lambda N, j: float(2 * N) ** j, st.integers(1, 8), st.integers(-8, 8)),
    ),
    log2_n=st.integers(min_value=3, max_value=10),
    data=st.data(),
)
def test_support_cells_are_exact(e, window, s, log2_n, data):
    """Every cell outside [k0, k1) evaluates to exactly 0 at s·γ, and a
    cell is kept exactly when its s·γ lies in the interval zero_outside
    proves on the span of the scanned floats, so no margin cell is kept.
    Half the expressions take a factor that cuts the scaled window."""
    a, b = window
    frac = st.fractions(F(-1, 8), F(9, 8), max_denominator=1 << 12)
    lo, hi = sorted(F(s) * (a + (b - a) * data.draw(frac)) for _ in range(2))
    if lo < hi and data.draw(st.booleans()):
        e = Product((e, Indicator(lo, hi, data.draw(st.booleans()), data.draw(st.booleans()))))
    cells = support_cells(e, s, a, b, log2_n)
    if cells is None:
        return
    k0, k1 = cells
    ((_, g),) = grid_blocks(a, b, log2_n)
    x = s * g
    v = evaluate(e, x)
    assert np.all(v[:k0] == 0) and np.all(v[k1:] == 0)
    lo, hi = zero_outside(e, x[0], x[-1])
    inside = [k for k, xk in enumerate(x.tolist()) if lo <= xk <= hi]
    assert inside == list(range(k0, k1))


def test_zero_outside_rules():
    assert zero_outside(parse("sinc(g)*chi(0,1/8]"), 0, 1) == (0, F(1, 8))
    assert zero_outside(parse("sin(g)*chi[1/4,1/2] + chi(1,2)"), 0, 4) == (F(1, 4), 2)
    assert zero_outside(parse("chi(0,1/8]*chi(1/4,1/2]"), 0, 1) == (F(1, 4), F(1, 8))
    assert zero_outside(parse("cos(g)*chi(1/4,3)"), 0, 1) == (F(1, 4), 1)
    assert zero_outside(parse("sin(3*chi[1/4,1/2])"), -1, 1) == (F(1, 4), F(1, 2))
    assert zero_outside(parse("1 - chi(0,1/32]"), 0, F(1, 2)) == (0, F(1, 2))
    # Breakpoints enter as the floats evaluation compares against.
    assert zero_outside(parse("chi[1/3,1/2]"), 0, 1) == (F(1 / 3), F(1, 2))
    for text in (
        "sqrt(g-1)*chi(0,1/4]",
        "recip(g)*chi(0,1/4]",
        "cos(i*g)*chi(0,1/4]",
        "1e200*1e200*chi(0,1/4]",
        "abs2(1e160)*chi(0,1/4]",
    ):
        assert zero_outside(parse(text), 0, 1) is None, text
    assert zero_outside(Product((RealConst(math.inf), parse("chi(0,1/4]"))), 0, 1) is None
    # the magnitude of g grows with the domain
    assert zero_outside(parse("1e150*1e150*g*chi(0,1/4]"), 0, 1) is not None
    assert zero_outside(parse("1e150*1e150*g*chi(0,1/4]"), 0, 1e10) is None


# ---------------------------------------------------------------------------
# grid helpers


def test_midpoint_chunks_exact_dyadic():
    ((k, pts),) = grid_blocks(0, F(1, 2), 10)
    assert k == 0
    assert len(pts) == 1024
    h = 0.5 / 1024
    assert pts[0] == 0.5 * h
    assert pts[-1] == 0.5 - 0.5 * h
    assert np.all(np.diff(pts) > 0)


def test_midpoint_chunks_blocks_concatenate(monkeypatch):
    """grid_blocks cuts the grid at BLOCK_CELLS, read when it is called;
    the midpoints are the same floats however it cuts."""
    ((_, one),) = grid_blocks(F(-1), F(3), 10)
    monkeypatch.setattr(symfunc, "BLOCK_CELLS", 100)
    blocks = list(grid_blocks(F(-1), F(3), 10))
    assert [k for k, _ in blocks] == list(range(0, 1024, 100))
    whole = np.concatenate([g for _, g in blocks])
    assert np.array_equal(whole, one)
    assert len(whole) == 1024


@pytest.mark.parametrize("a, b, log2_n", [
    (F(-1), F(3), 10), (F(1, 7), F(10, 11), 16), (F(1, 12), F(4), 26),
])
def test_grid_blocks_hold_the_scan_key_floats(a, b, log2_n):
    """Each block holds the floats _scan_key gives its cells, which
    support_cells and grid_pieces search, up to the last cell of a 2^26
    grid."""
    n = 1 << log2_n
    key = symfunc._scan_key(a, b, log2_n)
    for cells in ((0, min(n, 40000)), (max(0, n - 40000), n)):
        for k, g in grid_blocks(a, b, log2_n, cells):
            assert g.tolist() == [key(i) for i in range(k, k + len(g))]


@settings(deadline=None, max_examples=200)
@given(
    a=st.fractions(min_value=-4, max_value=4, max_denominator=64),
    width=st.fractions(min_value=F(1, 64), max_value=8, max_denominator=64),
    log2_n=st.integers(3, 12),
    cells=st.integers(1, 64),
    N=st.integers(1, 8),
    j=st.one_of(st.none(), st.integers(-8, 8)),
)
def test_grid_blocks_are_ascending_and_finite(a, width, log2_n, cells, N, j):
    """Every block, alone or times a level scale (2N)^j as the scans multiply
    it, is finite and non-decreasing, so evaluate_block may read its span
    from its ends."""
    scale = 1.0 if j is None else float(2 * N) ** j
    with mock.patch.object(symfunc, "BLOCK_CELLS", cells):
        for _, g in grid_blocks(a, a + width, log2_n):
            x = scale * g
            assert np.all(np.isfinite(x))
            assert np.all(np.diff(x) >= 0)


@pytest.mark.parametrize("interval", [None, (320, 640), (0, 70), (700, 700), (1000, 1024)])
def test_grid_blocks_walk_the_cell_range(monkeypatch, interval):
    """Only the cells of the interval [k0, k1) of cells are walked, each
    block starting at its first cell k with the midpoints of the whole
    grid."""
    ((_, whole),) = grid_blocks(F(-1), F(3), 10)
    monkeypatch.setattr(symfunc, "BLOCK_CELLS", 64)
    cells = []
    for k, g in grid_blocks(F(-1), F(3), 10, interval):
        assert np.array_equal(g, whole[k : k + len(g)])
        cells.extend(range(k, k + len(g)))
    assert cells == list(range(*(interval or (0, 1024))))


@st.composite
def _piece_scans(draw):
    """A grid on a window [a, b] with dyadic or other ends, a range of its
    cells, and sums of indicators evaluated at s·γ, s = 1 or
    (2N)^j, with endpoints near the points they are compared with: at a
    drawn fraction of the scaled window, or at a scaled midpoint itself."""
    den = st.sampled_from([1, 3, 7, 64, 100, 1 << 20])
    a = F(draw(st.integers(-64, 64)), draw(den))
    width = F(draw(st.integers(1, 64)), draw(den))
    log2_n = draw(st.integers(10, 14))
    h = float(width / (1 << log2_n))
    frac = st.fractions(F(-1, 8), F(9, 8), max_denominator=1 << 16)
    cell = st.integers(0, 1 << log2_n)
    cells = draw(st.one_of(st.none(), st.tuples(cell, cell).map(sorted).map(tuple)))
    exprs = []
    for _ in range(draw(st.integers(1, 3))):
        s = draw(st.one_of(st.just(1.0), st.builds(lambda N, j: float(2 * N) ** j,
                                                   st.integers(1, 8), st.integers(-8, 8))))
        ends = st.one_of(
            frac.map(lambda x: F(s) * (a + width * x)),
            st.integers(-2, (1 << log2_n) + 1).map(
                lambda k: F(s * (float(a) + (k + 0.5) * h))),
        )
        inds = []
        for lo, hi in draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=3)):
            if lo != hi:
                inds.append(Indicator(min(lo, hi), max(lo, hi), draw(st.booleans()),
                                      draw(st.booleans())))
        if inds:
            exprs.append((sum_of(*inds), s))
    return a, a + width, log2_n, cells, exprs


@settings(deadline=None, max_examples=300)
@given(case=_piece_scans())
def test_grid_pieces_cut_where_a_comparison_flips(case):
    """The binary searches cut the cells exactly where evaluating every
    cell shows an indicator's comparison with one of its endpoints flip,
    and each piece carries its first and last midpoint."""
    a, b, log2_n, cells, exprs = case
    ((_, whole),) = grid_blocks(a, b, log2_n)
    k0, k1 = cells or (0, 1 << log2_n)
    big = F(1 << 64)
    want = {k0, k1}
    for e, s in exprs:
        for ind in (e.terms if isinstance(e, Sum) else (e,)):
            for one_side in (Indicator(ind.lo, big, ind.lo_closed, True),
                             Indicator(-big, ind.hi, True, ind.hi_closed)):
                v = evaluate(one_side, s * whole[k0:k1]).real
                want.update(k0 + np.flatnonzero(v[1:] != v[:-1]) + 1)
    with mock.patch.object(symfunc, "BLOCK_CELLS", 1):
        pieces = list(grid_pieces(a, b, log2_n, cells, exprs))
    assert sorted(want) == ([k for k, _, _ in pieces] + [k1] if k1 > k0 else [k0])
    for k, n, g in pieces:
        assert g.tolist() == [whole[k], whole[k + n - 1]]
