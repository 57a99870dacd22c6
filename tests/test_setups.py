import math
import re
from fractions import Fraction as F

import numpy as np
import pytest

from nuframes import (
    FrequencyGrid,
    GeneralSetup,
    TranslationSet,
    derive_generator,
    evaluate,
    indicator_signal,
    oep_check,
    oep_normalize,
    parse,
    parseval_report,
    setup_from_dict,
    two_generator_setup,
    uep_residual,
    validate_setup,
)
from nuframes import setups, symfunc
from nuframes.errors import ThetaMissing, ThetaNotPositive
from nuframes.setups import DEFAULT_LIMIT_TOL, DEFAULT_TOL
from nuframes.symfunc import grid_blocks, squared_modulus


def test_setup_needs_two_filters():
    ts = TranslationSet(2, 3)
    with pytest.raises(ValueError, match="at least one"):
        GeneralSetup(ts, parse("chi[0,1/8]"), (parse("chi[0,1/32]"),))


def test_generator_count(ex51, ex52):
    assert ex51.n == 3
    assert ex52.n == 1


def test_validate_smooth_setup(ex51):
    rep = validate_setup(ex51)
    assert rep.passed
    assert rep.refinement_residual <= 1e-12
    assert rep.support_leak == 0.0
    assert 0.0 < rep.limit_deviation < 1e-6
    assert rep.uep_residual <= 1e-12
    assert rep.oep_residual is None
    assert rep.theta_min is None
    assert rep.checks["filter_condition"]
    assert set(rep.checks) == {
        "refinement", "support", "limit", "uep", "filter_condition",
    }


def test_validate_sharp_setup_is_exact(ex52):
    rep = validate_setup(ex52)
    assert rep.passed
    assert rep.refinement_residual == 0.0
    assert rep.support_leak == 0.0
    assert rep.limit_deviation == 0.0
    assert rep.uep_residual == 0.0
    assert rep.oep_residual == 0.0
    assert rep.theta_min == 1.0
    assert rep.theta_limit_deviation == 0.0
    assert set(rep.checks) == {
        "refinement", "support", "limit", "uep", "oep",
        "theta_limit", "filter_condition",
    }


@pytest.mark.parametrize("psi0", [
    "(9/64 - g)*chi[0,9/64]",
    "g*chi[0,3/16)",
    "chi[-1/4,1/8]",
    "sinc(g)*chi(0,1/8]",
])
def test_support_leak_equals_full_grid_oracle(ex52, psi0):
    """The leak scan visits only the cells ψ̂₀'s proven support can reach;
    its max is the max over every midpoint, peaks at the first or last
    cell of the support included."""
    s = GeneralSetup(ex52.ts, parse(psi0), ex52.filters)
    want = 0.0
    for a, b in ((F(1, 8), F(4)), (F(-4), F(0))):
        for _, g in grid_blocks(a, b, 12):
            want = max(want, float(np.max(np.abs(evaluate(s.psi0_hat, g)))))
    assert validate_setup(s, grid_log2=12).support_leak == want


def _whole(a, b, log2):
    """Every midpoint of the grid as one array."""
    return np.concatenate([g for _, g in grid_blocks(a, b, log2)])


def _sup_abs(v):
    return float(np.max(np.abs(v)))


@np.errstate(all="ignore")
def _full_grid_report(s, log2):
    """validate_setup(s, log2).to_dict() computed on every cell at once, in
    the scans' order of operations."""
    d = float(s.ts.dilation)
    quarter = F(1, 4 * s.ts.N)
    g = _whole(0, quarter, log2)
    refinement = _sup_abs(evaluate(s.psi0_hat, d * g)
                          - evaluate(s.filters[0], g) * evaluate(s.psi0_hat, g))
    leak = max(_sup_abs(evaluate(s.psi0_hat, _whole(a, b, log2)))
               for a, b in ((quarter, F(4)), (F(-4), F(0))))
    probes = np.array([2.0**-k for k in range(12, 41)])

    def limit(e):
        return _sup_abs(evaluate(e, probes) - 1.0)

    g = _whole(0, F(1, 2), log2)
    sq = [squared_modulus(evaluate(h, g)) for h in s.filters]
    u = sq[0].copy()
    for a in sq[1:]:
        u += a
    rep = {
        "grid_log2": log2, "tol": DEFAULT_TOL, "limit_tol": DEFAULT_LIMIT_TOL,
        "refinement_residual": refinement, "support_leak": leak,
        "limit_deviation": limit(s.psi0_hat), "uep_residual": _sup_abs(u - 1.0),
        "oep_residual": None, "theta_min": None, "theta_limit_deviation": None,
    }
    checks = {
        "refinement": refinement <= DEFAULT_TOL,
        "support": leak <= DEFAULT_TOL,
        "limit": rep["limit_deviation"] <= DEFAULT_LIMIT_TOL,
        "uep": rep["uep_residual"] <= DEFAULT_TOL,
    }
    if s.theta is not None:
        t = evaluate(s.theta, g).real
        t_dilated = evaluate(s.theta, d * g).real
        w = t_dilated * sq[0]
        for a in sq[1:]:
            w += a
        rep["oep_residual"] = _sup_abs(w - t)
        rep["theta_min"] = min(float(np.min(t)), float(np.min(t_dilated)))
        rep["theta_limit_deviation"] = limit(s.theta)
        checks["oep"] = rep["oep_residual"] <= DEFAULT_TOL
        checks["theta_limit"] = rep["theta_limit_deviation"] <= DEFAULT_LIMIT_TOL
    checks["filter_condition"] = checks["uep"] or checks.get("oep", False)
    rep["checks"] = checks
    rep["passed"] = all(v for k, v in checks.items() if k not in ("uep", "oep"))
    return rep


_ORACLE_SETUPS = {
    # H0's edge 1/8 is the boundary after cell 2^14 of a 2^16 grid; H1's
    # edge 3/16 falls mid-block.  H0ψ̂₀ reaches past ψ̂₀(4γ), and the
    # refinement residual peaks far from either edge.
    "block-edges": {
        "N": 2, "r": 3, "psi0_hat": "(1 + g)*chi[0,1/8]",
        "filters": ["chi[0,1/8]", "cos(g)*chi(1/8,3/16) + chi[3/16,1/2]"],
    },
    # ψ̂₀(4γ) reaches past H0ψ̂₀.
    "wide-lhs": {
        "N": 2, "r": 3, "psi0_hat": "(1 + g)*chi[0,1/8]",
        "filters": ["chi[0,1/64]", "1 - chi[0,1/64]"],
    },
    "n3-sinc": {
        "N": 3, "r": 1, "psi0_hat": "sinc(g)*chi(0,1/12]",
        "filters": ["cos(3*g)*chi(0,1/72]", "sin(3*g)*chi(0,1/72]", "1 - chi(0,1/72]"],
    },
    "n3-sharp": {
        "N": 3, "r": 5, "psi0_hat": "chi[0,1/12]",
        "filters": ["chi[0,1/72]", "1 - chi[0,1/72]"], "theta": "1",
    },
    "theta": {
        "N": 2, "r": 3, "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "chi(1/32,5/32)", "chi[5/32,1/2]"],
        "theta": "1 + g*g",
    },
    "sqrt-filter": {
        "N": 2, "r": 3, "psi0_hat": "chi[0,1/8]",
        "filters": ["sqrt(1 - g)*chi[0,1/32]", "1 - chi[0,1/32]"],
    },
}


@pytest.mark.parametrize("name", ["ex5.1", "ex5.2", "completion", *_ORACLE_SETUPS])
def test_restricted_scans_equal_full_grid_oracle(ex51, ex52, name):
    """The validate scans evaluate each filter, and both sides of the
    refinement equation, only where they can be nonzero, block by block;
    every report field is what one array over every cell gives, at filter
    edges on and between the block boundaries of a 2^16 grid."""
    if name == "completion":
        s = two_generator_setup(ex52.psi0_hat, ex52.filters[0],
                                parse("recip(1 + g*g)"), TranslationSet(2, 3))
    elif name in _ORACLE_SETUPS:
        s = setup_from_dict(_ORACLE_SETUPS[name])
    else:
        s = {"ex5.1": ex51, "ex5.2": ex52}[name]
    assert validate_setup(s, grid_log2=16).to_dict() == _full_grid_report(s, 16)


@pytest.mark.parametrize("block", [symfunc.BLOCK_CELLS, 1 << 10])
def test_non_dyadic_pieces_equal_full_grid_oracle(monkeypatch, block):
    """Breakpoints 1/72, 1/5 and 1/7 fall inside cells, so the scans and
    level sums of this all-indicator setup are cut into pieces off the
    grid's dyadic points (the filter scan's seven pieces only when the grid
    has as many blocks, with 2^10 cells per block); the validate report,
    each level sum and each signal norm are the bits of one array over
    every cell."""
    monkeypatch.setattr(symfunc, "BLOCK_CELLS", block)
    s = setup_from_dict({
        "N": 3, "r": 5, "psi0_hat": "chi[0,1/12]",
        "filters": ["chi[0,1/72]", "chi(1/72,1/5]", "1 - chi[0,1/5]"],
        "theta": "1 + 1/3*chi(1/7,2/7]",
    })
    assert validate_setup(s, grid_log2=16).to_dict() == _full_grid_report(s, 16)
    grid = FrequencyGrid(F(0), F(1, 2), 16)
    g = _whole(0, F(1, 2), 16)
    for sig in (indicator_signal(F(1, 7), F(3, 7)), indicator_signal(F(1, 9), F(10, 11))):
        want = []
        for ell in (1, 2):
            gen = evaluate(derive_generator(s, ell), g)
            for j in range(-4, 5):
                scale = 6.0**j
                u = evaluate(sig.fhat, scale * g) * gen
                want.append((ell, j, math.fsum(scale * squared_modulus(u)) * grid.h))
        sub = FrequencyGrid(*sig.support, 16)
        nrm = math.fsum(squared_modulus(evaluate(sig.fhat, _whole(*sig.support, 16)))) * sub.h
        r = parseval_report(sig, s, -4, 4, grid=grid)
        assert (list(r.levels), r.signal_norm_sq) == (want, nrm)


def test_a_piece_sample_that_is_not_one_value_raises(monkeypatch, ex52):
    """Were a flip missed, a piece's two ends would straddle an indicator;
    their two values never stand in for the cells between them."""
    monkeypatch.setattr(symfunc, "_flips", lambda e: [])
    sig = indicator_signal(F(1, 16), F(1, 2))
    for run in (lambda: validate_setup(ex52, 20), lambda: oep_normalize(
            setup_from_dict({**WEIGHT_TWO, "theta": "2 - chi[1/4,1/2]"}), 20),
            lambda: parseval_report(sig, ex52, 0, 0)):
        with pytest.raises(ValueError, match="broadcast"):
            run()


def test_theta_fault_names_the_first_point():
    """On a grid of four blocks the message names the first γ where θ ≤ 0,
    not where θ is least."""
    s = setup_from_dict({
        "N": 1, "r": 1, "psi0_hat": "chi[0,1/4]",
        "filters": ["chi[0,1/16]", "1 - chi[0,1/16]"],
        "theta": "abs2(g - 3/8) - 1/64",
    })
    # θ(x) ≤ 0 for 1/4 ≤ x ≤ 1/2 and is least at x = 3/8.  θ(2γ) meets it
    # first, at the cell after γ = 1/8, in the second block.
    h = 2.0**-17
    first = 2 * (1 / 8 + h / 2)
    want = f"scaling symbol is {(first - 3 / 8) * (first - 3 / 8) - 1 / 64} at gamma={first};"
    with pytest.raises(ThetaNotPositive, match=f"^{re.escape(want)}"):
        oep_check(s, grid_log2=16)
    # θ(γ) is one value on the first block [0, 1/8); θ(2γ) is not, and is
    # −1 from the cell after γ = 3/32 on, inside that block.
    s = setup_from_dict({
        "N": 1, "r": 1, "psi0_hat": "chi[0,1/4]",
        "filters": ["chi[0,1/16]", "1 - chi[0,1/16]"],
        "theta": "1 - 2*chi[3/16,1/2]",
    })
    want = f"scaling symbol is -1.0 at gamma={2 * (3 / 32 + h / 2)}; it must be strictly positive"
    with pytest.raises(ThetaNotPositive, match=f"^{re.escape(want)}$"):
        oep_check(s, grid_log2=16)
    # θ = 1 + ∞·χ[1/4,1/2] is nan (0·∞) below 1/4, so the first cell fails,
    # as θ ≤ 0 does; nan must not pass as positive.
    s = setup_from_dict({
        "N": 1, "r": 1, "psi0_hat": "chi[0,1/4]",
        "filters": ["chi[0,1/16]", "1 - chi[0,1/16]"],
        "theta": "1 + 1e200*1e200*chi[1/4,1/2]",
    })
    want = f"scaling symbol is nan at gamma={2.0**-16}; it must be strictly positive"
    for check in (oep_normalize, oep_check):
        with pytest.raises(ThetaNotPositive, match=f"^{re.escape(want)}$"):
            check(s, grid_log2=14)


def test_validate_report_round_trips_to_dict(ex51):
    d = validate_setup(ex51).to_dict()
    assert d["passed"] is True
    assert d["grid_log2"] == 20
    assert isinstance(d["checks"], dict)


def test_validate_rejects_tiny_grid(ex51):
    with pytest.raises(ValueError, match="at least 10"):
        validate_setup(ex51, grid_log2=9)


@pytest.mark.parametrize("log2", [-1, 0, 9, 27])
@pytest.mark.parametrize("check", [
    validate_setup, uep_residual, oep_check, oep_normalize,
    lambda s, log2: two_generator_setup(s.psi0_hat, s.filters[0], s.theta, s.ts, log2),
], ids=["validate_setup", "uep_residual", "oep_check", "oep_normalize",
        "two_generator_setup"])
def test_every_scan_takes_the_cli_grid_range(ex52, check, log2):
    with pytest.raises(ValueError, match=f"at least 10 and at most 26, got {log2}$"):
        check(ex52, log2)


def test_filter_scan_keeps_one_value_blocks(ex52, monkeypatch):
    """On ex5.2 each filter-condition sum is one value per piece, so _sup
    compares one element per piece, and as many at 2^26 cells as at 2^20."""
    sup = setups._sup

    def shapes(log2):
        seen = []

        def spy(acc, v, n, what):
            if what.endswith("filter condition residual"):
                seen.append(np.shape(v))
            return sup(acc, v, n, what)

        with monkeypatch.context() as m:
            m.setattr(setups, "_sup", spy)
            uep_residual(ex52, log2)
            oep_check(ex52, log2)
        return seen

    fine = shapes(26)
    assert fine and set(fine) == {(1,)}
    assert shapes(20) == fine


def test_trivial_weight_degenerates_exactly(ex52):
    """With the weight identically 1 the weighted residual is the plain one,
    bit for bit (same accumulation order)."""
    assert oep_check(ex52).residual == uep_residual(ex52)


WEIGHT_TWO = {
    "N": 2, "r": 3,
    "psi0_hat": "chi[0,1/8]",
    "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
    "theta": "2",
}


def test_weighted_residual_matches_grid_oracle(ex52):
    """Constant weight 2: residual must equal sup |2|H0|^2 + |H1|^2 - 2|."""
    s = setup_from_dict(WEIGHT_TWO)
    log2 = 14
    worst = 0.0
    for _, g in grid_blocks(0, F(1, 2), log2):
        h0 = np.abs(evaluate(s.filters[0], g)) ** 2
        h1 = np.abs(evaluate(s.filters[1], g)) ** 2
        worst = max(worst, float(np.max(np.abs(2.0 * h0 + h1 - 2.0))))
    assert worst == 1.0
    assert oep_check(s, grid_log2=log2).residual == worst


def test_validate_filter_fields_equal_standalone_calls(ex51, ex52):
    """validate_setup's filter-condition fields are exactly what uep_residual
    and oep_check report on their own."""
    completion = two_generator_setup(
        ex52.psi0_hat, ex52.filters[0], parse("1 + abs2(sin(g))"), TranslationSet(2, 3)
    )
    for s in (ex51, ex52, setup_from_dict(WEIGHT_TWO), completion):
        rep = validate_setup(s, grid_log2=14)
        assert rep.uep_residual == uep_residual(s, grid_log2=14)
        if s.theta is None:
            assert rep.oep_residual is None and rep.theta_min is None
            continue
        oep = oep_check(s, grid_log2=14)
        assert rep.oep_residual == oep.residual
        assert rep.theta_min == oep.theta_min
    # Neither residual of the completion is trivially zero.
    assert rep.uep_residual > 2.0 and rep.oep_residual > 2.0


def test_oep_requires_weight(ex51):
    with pytest.raises(ThetaMissing):
        oep_check(ex51)
    with pytest.raises(ThetaMissing):
        oep_normalize(ex51)


def test_weight_must_be_positive():
    d = {
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "g - 1",
    }
    s = setup_from_dict(d)
    with pytest.raises(ThetaNotPositive, match="strictly positive"):
        oep_check(s, grid_log2=10)


def test_weight_must_be_real():
    d = {
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "1 + i*g",
    }
    s = setup_from_dict(d)
    with pytest.raises(ThetaNotPositive, match="real"):
        oep_check(s, grid_log2=10)


def test_derive_generator_sharp(ex52):
    """The single derived generator is the indicator of (1/8, 1/2]."""
    psi1 = derive_generator(ex52, 1)
    assert evaluate(psi1, 0.2) == 1.0
    assert evaluate(psi1, 0.5) == 1.0
    assert evaluate(psi1, 0.125) == 0.0
    assert evaluate(psi1, 0.1) == 0.0
    assert evaluate(psi1, 0.6) == 0.0
    assert evaluate(psi1, -0.2) == 0.0


def test_derive_generator_index_bounds(ex52):
    with pytest.raises(IndexError):
        derive_generator(ex52, 0)
    with pytest.raises(IndexError):
        derive_generator(ex52, 2)


def test_derived_band_generator_is_not_zero(ex51):
    """The complement-filter generator is sinc(g/4) on (1/8, 1/2], so it is
    emphatically nonzero there."""
    psi3 = derive_generator(ex51, 3)
    x = 0.25 * 0.2
    assert evaluate(psi3, 0.2) == math.sin(x) / x
    assert abs(evaluate(psi3, 0.2)) > 0.999
    assert evaluate(psi3, 0.1) == 0.0
    assert evaluate(psi3, 0.6) == 0.0


def test_smooth_generators_cover_band(ex51):
    """|psi_l|^2 summed over l = 1..3 equals |psi0(g/4)|^2 - |psi0|^2-free
    sanity: at any point of (1/8, 1/2] the generators carry all the mass."""
    pts = np.linspace(0.13, 0.5, 57)
    total = np.zeros(len(pts))
    for ell in (1, 2, 3):
        v = evaluate(derive_generator(ex51, ell), pts)
        total += np.abs(v) ** 2
    scaled = np.abs(evaluate(ex51.psi0_hat, pts / 4.0)) ** 2
    np.testing.assert_allclose(total, scaled, rtol=1e-12, atol=1e-15)


def test_normalize_with_trivial_weight_is_identity(ex52):
    ns = oep_normalize(ex52)
    pts = np.linspace(0.0, 0.5, 1000)
    for before, after in zip(
        (ex52.psi0_hat, *ex52.filters), (ns.psi0_hat, *ns.filters)
    ):
        assert np.array_equal(evaluate(before, pts), evaluate(after, pts))
    assert evaluate(ns.theta, 0.3) == 1.0


def test_normalize_folds_weight_pointwise():
    d = {
        "N": 2, "r": 3,
        "psi0_hat": "chi[0,1/8]",
        "filters": ["chi[0,1/32]", "1 - chi[0,1/32]"],
        "theta": "1 + g*g",
    }
    s = setup_from_dict(d)
    ns = oep_normalize(s, grid_log2=12)
    pts = np.linspace(0.01, 0.49, 333)

    def theta(x):
        return 1.0 + x * x

    h0 = evaluate(s.filters[0], pts)
    want_h0 = np.sqrt(theta(4.0 * pts) / theta(pts)) * h0
    np.testing.assert_allclose(evaluate(ns.filters[0], pts), want_h0, rtol=1e-14)

    h1 = evaluate(s.filters[1], pts)
    want_h1 = np.sqrt(1.0 / theta(pts)) * h1
    np.testing.assert_allclose(evaluate(ns.filters[1], pts), want_h1, rtol=1e-14)

    psi0 = evaluate(s.psi0_hat, pts)
    np.testing.assert_allclose(
        evaluate(ns.psi0_hat, pts), np.sqrt(theta(pts)) * psi0, rtol=1e-14
    )


def test_two_filter_completion_structure(ex52):
    ts = TranslationSet(2, 3)
    theta = parse("1 + abs2(sin(g))")
    tg = two_generator_setup(ex52.psi0_hat, ex52.filters[0], theta, ts, grid_log2=12)
    assert tg.n == 2
    pts = np.linspace(0.001, 0.49, 257)
    h0 = evaluate(ex52.filters[0], pts)
    t4 = 1.0 + np.sin(4.0 * pts) ** 2
    np.testing.assert_allclose(
        evaluate(tg.filters[1], pts), 1j * np.sqrt(t4) * h0, rtol=1e-14
    )
    np.testing.assert_allclose(
        evaluate(tg.filters[2], pts), np.sqrt(1.0 + np.sin(pts) ** 2), rtol=1e-14
    )


def test_two_filter_completion_residual_equals_oracle(ex52):
    """The completion's weighted residual is sup 2*theta(4g)|H0(g)|^2 on the
    scan grid; with the trivial weight that is exactly 2."""
    ts = TranslationSet(2, 3)
    tg = two_generator_setup(ex52.psi0_hat, ex52.filters[0], parse("1"), ts)
    assert oep_check(tg, grid_log2=12).residual == 2.0

    theta = parse("1 + abs2(sin(g))")
    tg2 = two_generator_setup(ex52.psi0_hat, ex52.filters[0], theta, ts, grid_log2=12)
    log2 = 12
    worst = 0.0
    for _, g in grid_blocks(0, F(1, 2), log2):
        h0 = np.abs(evaluate(ex52.filters[0], g)) ** 2
        t4 = 1.0 + np.sin(4.0 * g) ** 2
        worst = max(worst, float(np.max(2.0 * t4 * h0)))
    assert abs(oep_check(tg2, grid_log2=log2).residual - worst) <= 1e-10


def test_two_filter_completion_rejects_bad_weight(ex52):
    ts = TranslationSet(2, 3)
    with pytest.raises(ThetaNotPositive):
        two_generator_setup(
            ex52.psi0_hat, ex52.filters[0], parse("g - 1"), ts, grid_log2=10
        )
