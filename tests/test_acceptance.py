"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run pytest with -rA or -s to see the lines for passing tests).
Criteria with runtime budgets time themselves with monotonic clocks.
"""

import json
import time
from fractions import Fraction as F

import numpy as np

from nuframes import (
    FrequencyGrid,
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
    oep_normalize,
    oep_check,
    parse,
    preset,
    render,
    telescoping_residual,
    two_generator_setup,
    validate_setup,
)
from nuframes.cli import main
from nuframes.errors import BadIndicatorBounds, ExprSyntaxError, UnknownIdentifier
from nuframes.presets import PRESETS
from nuframes.symfunc import (
    Cos,
    Indicator,
    Negate,
    Product,
    RationalConst,
    Sin,
    Sinc,
    Sum,
    Var,
    grid_blocks,
)


def _verdict(k, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} criterion {k}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_hypothesis_validation():
    """The smooth built-in setup satisfies every hypothesis at tight
    tolerances, in under five seconds."""
    t0 = time.monotonic()
    rep = validate_setup(preset("ex5.1"), grid_log2=20, tol=1e-10, limit_tol=1e-6)
    elapsed = time.monotonic() - t0
    ok = (
        rep.passed
        and rep.refinement_residual <= 1e-10
        and rep.support_leak <= 1e-10
        and rep.limit_deviation <= 1e-6
        and rep.uep_residual <= 1e-10
        and elapsed < 5.0
    )
    _verdict(
        1,
        "smooth setup passes hypothesis validation within tolerance and budget",
        ok,
        f"report={rep.to_dict()}, elapsed={elapsed:.2f}s",
    )


def test_criterion_2_cli_frame_identity(tmp_path):
    """CLI identity-route verification reproduces the signal energy to a
    relative 1e-6 for both reference signals, in under ten seconds."""
    t0 = time.monotonic()
    ok = True
    detail = []
    for sig in ("bump(1/64,1/16)", "ind(1/8,1/2)"):
        out = tmp_path / f"{sig.replace('/', '_')}.json"
        code = main([
            "parseval", "--preset", "ex5.2", "--signal", sig,
            "--j=-4..4", "--out", str(out),
        ])
        d = json.loads(out.read_text())
        ok &= code == 0 and abs(d["ratio"] - 1.0) <= 1e-6
        detail.append(f"{sig}: exit={code} ratio={d['ratio']!r}")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    detail.append(f"elapsed={elapsed:.2f}s")
    _verdict(2, "CLI identity route recovers signal energy to 1e-6", ok,
             "; ".join(detail))


def test_criterion_3_independent_routes_agree():
    """Truncated direct sums match closed-form identity sums on 48
    (signal, generator, level) combinations, within the five minute budget."""
    t0 = time.monotonic()
    signals = [hann_bump(F(9, 64), F(31, 64)), indicator_signal(F(1, 8), F(1, 2))]
    cases = []
    for name in ("ex5.1", "ex5.2"):
        s = preset(name)
        for ell in range(1, s.n + 1):
            cases.append((s, derive_generator(s, ell)))
    assert len(cases) == 4
    grid_direct = FrequencyGrid(F(0), F(1, 2), 17)
    ok = True
    worst = 0.0
    count = 0
    for sig in signals:
        nrm = norm_sq(sig.fhat, sig.support)
        for s, gen in cases:
            for j in range(-1, 5):
                ident = lattice_sum_parseval(sig.fhat, gen, s.ts, j)
                direct = lattice_sum_direct_detail(
                    sig.fhat, gen, s.ts, j, M=2048, grid=grid_direct
                ).value
                budget = 1e-2 * max(ident, 1e-3 * nrm)
                gap = abs(direct - ident)
                worst = max(worst, gap / budget)
                ok &= gap <= budget
                count += 1
    elapsed = time.monotonic() - t0
    ok &= count == 48 and elapsed < 300.0
    _verdict(
        3,
        "direct and identity routes agree on 48 level sums",
        ok,
        f"worst gap/budget={worst:.3f}, n={count}, elapsed={elapsed:.1f}s",
    )


def test_criterion_4_telescoping():
    """One-level collapse residuals stay below 1e-8 of the signal energy
    for the smooth setup across the signal catalog and levels 0..2."""
    s = preset("ex5.1")
    ok = True
    worst = 0.0
    for sig in catalog():
        nrm = norm_sq(sig.fhat, sig.support)
        for _, resid in telescoping_residual(sig.fhat, s, (0, 1, 2)):
            worst = max(worst, resid / nrm)
            ok &= resid <= 1e-8 * nrm
    _verdict(4, "refinement telescoping collapses level sums", ok,
             f"worst residual/norm={worst:.3e}")


def test_criterion_5_bessel_bound():
    """Level-0 scaling sums never exceed the signal energy (slack 1e-9)
    over twenty signals and both built-in setups."""
    rng = np.random.default_rng(8)
    signals = list(catalog())
    while len(signals) < 20:
        lo = rng.uniform(1 / 64, 1.5)
        width = rng.uniform(1 / 64, 0.5)
        signals.append(hann_bump(F(lo), F(min(2.0, lo + width))))
    setups = [preset("ex5.1"), preset("ex5.2")]
    ok = True
    worst = -np.inf
    for sig in signals:
        nrm = norm_sq(sig.fhat, sig.support)
        for s in setups:
            value = lattice_sum_parseval(sig.fhat, s.psi0_hat, s.ts, 0)
            worst = max(worst, value - nrm)
            ok &= value <= (1.0 + 1e-9) * nrm
    _verdict(5, "scaling-level sums respect the energy bound", ok,
             f"signals={len(signals)}, worst excess={worst:.3e}")


def test_criterion_6_level_profile_localization():
    """For the sharp setup the scaling-level profile of a low bump is
    exactly zero far below its band and saturates at the full energy a few
    levels above it."""
    s = preset("ex5.2")
    sig = hann_bump(F(1, 64), F(1, 16))
    nrm = norm_sq(sig.fhat, sig.support)
    low = level_profile(sig.fhat, s, range(-8, -4))
    high = level_profile(sig.fhat, s, (6, 7, 8))
    ok = all(v == 0.0 for _, v in low)
    worst = max(abs(v - nrm) / nrm for _, v in high)
    ok &= worst <= 1e-6
    _verdict(6, "level profile localizes the signal band", ok,
             f"low={low}, worst high deviation={worst:.3e}")


def test_criterion_7_weighted_condition_tools():
    """Weighted-condition machinery: the sharp setup's weighted residual is
    essentially zero, trivial-weight normalization is the identity, and the
    two-filter completion's residual matches a direct grid evaluation."""
    s = preset("ex5.2")
    ok = oep_check(s).residual <= 1e-12

    ns = oep_normalize(s)
    pts = np.linspace(0.0, 0.5, 1000)
    for before, after in zip((s.psi0_hat, *s.filters), (ns.psi0_hat, *ns.filters)):
        ok &= bool(
            np.max(np.abs(evaluate(before, pts) - evaluate(after, pts))) <= 1e-15
        )
    ok &= evaluate(ns.theta, 0.3) == 1.0

    ts = TranslationSet(2, 3)
    theta = parse("1 + abs2(sin(g))")
    tg = two_generator_setup(s.psi0_hat, s.filters[0], theta, ts, grid_log2=14)
    oracle = 0.0
    for _, g in grid_blocks(0, F(1, 2), 14):
        h0 = np.abs(evaluate(s.filters[0], g)) ** 2
        t4 = 1.0 + np.sin(4.0 * g) ** 2
        oracle = max(oracle, float(np.max(2.0 * t4 * h0)))
    got = oep_check(tg, grid_log2=14).residual
    ok &= abs(got - oracle) <= 1e-10
    _verdict(7, "weighted filter-condition tools are consistent", ok,
             f"completion residual={got!r} vs oracle={oracle!r}")


def test_criterion_8_deterministic_reports(tmp_path):
    """Identical CLI invocations write byte-identical reports."""
    ok = True
    runs = [
        ["parseval", "--preset", "ex5.1", "--signal", "bump(9/64,31/64)",
         "--j=-2..2", "--grid-log2", "14"],
        ["validate", "--preset", "ex5.2", "--grid-log2", "14"],
        ["generators", "--preset", "ex5.1", "--sample-log2", "4"],
    ]
    for idx, argv in enumerate(runs):
        a = tmp_path / f"{idx}a.json"
        b = tmp_path / f"{idx}b.json"
        ca = main(argv + ["--out", str(a)])
        cb = main(argv + ["--out", str(b)])
        ok &= ca == cb and a.read_bytes() == b.read_bytes()
    _verdict(8, "reports are byte-identical across runs", ok)


def test_criterion_9_expression_round_trip():
    """The expression layer parses the built-in setup strings to the
    expected trees, renders them back verbatim, and reports syntax error
    offsets."""
    chi32 = Indicator(F(0), F(1, 32), False, True)
    two_g = Product((RationalConst(F(2)), Var()))
    golden = {
        "sinc(g)*chi(0,1/8]": Product(
            (Sinc(Var()), Indicator(F(0), F(1, 8), False, True))
        ),
        "cos(g)*cos(2*g)*chi(0,1/32]": Product((Cos(Var()), Cos(two_g), chi32)),
        "cos(2*g)*sin(g)*chi(0,1/32]": Product((Cos(two_g), Sin(Var()), chi32)),
        "sin(2*g)*chi(0,1/32]": Product((Sin(two_g), chi32)),
        "1 - chi(0,1/32]": Sum((RationalConst(F(1)), Negate(chi32))),
        "chi[0,1/8]": Indicator(F(0), F(1, 8), True, True),
        "chi[0,1/32]": Indicator(F(0), F(1, 32), True, True),
        "1 - chi[0,1/32]": Sum(
            (RationalConst(F(1)), Negate(Indicator(F(0), F(1, 32), True, True)))
        ),
        "1": RationalConst(F(1)),
    }
    preset_strings = set()
    for d in PRESETS.values():
        preset_strings.add(d["psi0_hat"])
        preset_strings.update(d["filters"])
        if "theta" in d:
            preset_strings.add(d["theta"])
    ok = preset_strings <= set(golden)
    for text, tree in golden.items():
        e = parse(text)
        ok &= e == tree
        ok &= render(e) == text and parse(render(e)) == e

    try:
        parse("sin(g")
        ok = False
    except ExprSyntaxError as exc:
        ok &= exc.offset == 5
    try:
        parse("2*foo(g)")
        ok = False
    except UnknownIdentifier as exc:
        ok &= exc.offset == 2 and exc.name == "foo"
    try:
        parse("chi(1/2,1/4]")
        ok = False
    except BadIndicatorBounds:
        pass
    _verdict(9, "expression layer round-trips the built-in setups", ok)
