"""Correctness checks for benchmark outputs, kept apart from nuframes.

Nothing here imports nuframes.  The preset symbols are transcribed by hand
from the setups' definitions, and the level sums they imply are computed
two ways the program never uses:

  * indicator data: exact ``Fraction`` lengths of interval intersections;
  * smooth data: ``scipy.integrate.quad`` with the breakpoints supplied,
    accepted within a midpoint-rule error bound derived from the grid
    (see ``midpoint_bound`` and the README).

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# signals: |f̂(u)|² with its support and its exact energy


@dataclass(frozen=True)
class Signal:
    """A test signal as the benchmark knows it: indicator of (a, b], or the
    raised-cosine bump (1 − cos(2π(u − a)/(b − a)))/2 on [a, b]."""

    kind: str  # "ind" or "bump"
    a: Fraction
    b: Fraction

    @property
    def spec(self) -> str:
        return f"{self.kind}({self.a},{self.b})"

    @property
    def norm_sq(self) -> Fraction:
        w = self.b - self.a
        return w if self.kind == "ind" else Fraction(3, 8) * w

    @property
    def k(self) -> float:
        """Angular rate 2π/(b − a) of the bump (0 for an indicator)."""
        return 0.0 if self.kind == "ind" else 2.0 * math.pi / float(self.b - self.a)

    def abs2(self, u):
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= float(self.a)) & (u <= float(self.b))
        if self.kind == "ind":
            return inside.astype(np.float64)
        v = 0.5 * (1.0 - np.cos(self.k * (u - float(self.a))))
        return np.where(inside, v * v, 0.0)


# ---------------------------------------------------------------------------
# generators: |ψ̂(γ)|² as pieces on [0, 1/2]
#
# ψ̂ₗ(γ) = Hₗ(γ/(2N))·ψ̂₀(γ/(2N)) with 2N = 4 for both presets.
#
# ex5.1: ψ̂₀ = sinc(γ)·χ(0,1/8]; H₁ = cos 2γ·sin γ, H₂ = sin 2γ on (0,1/32];
#        H₃ = 1 − χ(0,1/32].  So, on γ ∈ [0, 1/2]:
#          |ψ̂₁|² = (cos(γ/2)·sin(γ/4)·sinc(γ/4))²   on (0, 1/8]
#          |ψ̂₂|² = (sin(γ/2)·sinc(γ/4))²            on (0, 1/8]
#          |ψ̂₃|² = sinc(γ/4)²                        on (1/8, 1/2]
# ex5.2: ψ̂₀ = χ[0,1/8], H₁ = 1 − χ[0,1/32]:
#          |ψ̂₁|² = 1 on (1/8, 1/2],  |ψ̂₀|² = 1 on [0, 1/8]
#
# Every smooth piece is a product of sin, cos and sinc of γ, γ/2 or γ/4 with
# γ ≤ 1/2, so it and its first two derivatives are bounded by 1 in size;
# midpoint_bound relies on that.


def _sinc(x):
    x = np.asarray(x, dtype=np.float64)
    safe = np.where(x == 0.0, 1.0, x)
    return np.where(x == 0.0, 1.0, np.sin(safe) / safe)


def _one(g):
    return np.ones_like(np.asarray(g, dtype=np.float64))


@dataclass(frozen=True)
class Piece:
    lo: Fraction
    hi: Fraction
    fn: object = None  # None means the constant 1

    def abs2(self, g):
        g = np.asarray(g, dtype=np.float64)
        inside = (g > float(self.lo)) & (g <= float(self.hi))
        v = _one(g) if self.fn is None else self.fn(g)
        return np.where(inside, v, 0.0)


F = Fraction
GENERATORS = {
    ("ex5.1", 1): Piece(
        F(0), F(1, 8), lambda g: (np.cos(g / 2) * np.sin(g / 4) * _sinc(g / 4)) ** 2
    ),
    ("ex5.1", 2): Piece(F(0), F(1, 8), lambda g: (np.sin(g / 2) * _sinc(g / 4)) ** 2),
    ("ex5.1", 3): Piece(F(1, 8), F(1, 2), lambda g: _sinc(g / 4) ** 2),
    ("ex5.2", 0): Piece(F(0), F(1, 8)),
    ("ex5.2", 1): Piece(F(1, 8), F(1, 2)),
}
DILATION = {"ex5.1": 4, "ex5.2": 4}
N_GENERATORS = {"ex5.1": 3, "ex5.2": 1}


# ---------------------------------------------------------------------------
# level sums S_j = ∫₀^{1/2} d^j |f̂(d^j γ)|² |ψ̂(γ)|² dγ = ∫ |f̂(u)|² |ψ̂(u/d^j)|² du


def exact_level_sum(sig: Signal, piece: Piece, d: int, j: int) -> Fraction:
    """Exact S_j for an indicator signal against a constant piece."""
    assert sig.kind == "ind" and piece.fn is None
    s = Fraction(d) ** j
    lo = max(sig.a, piece.lo * s)
    hi = min(sig.b, piece.hi * s)
    return max(hi - lo, Fraction(0))


def quad_level_sum(sig: Signal, piece: Piece, d: int, j: int) -> tuple[float, float]:
    """S_j by adaptive quadrature in u; returns (value, quad error estimate)."""
    from scipy.integrate import quad

    s = Fraction(d) ** j
    lo = max(sig.a, piece.lo * s)
    hi = min(sig.b, piece.hi * s)
    if hi <= lo:
        return 0.0, 0.0
    sf = float(s)

    def integrand(u):
        return float(sig.abs2(u)) * float(piece.abs2(u / sf))

    # Every breakpoint of the integrand (the ends of the signal's support and
    # of the piece) is a limit of [lo, hi], so quad sees a smooth integrand.
    v, err = quad(integrand, float(lo), float(hi), epsabs=0.0, epsrel=1e-13,
                  limit=200)
    return v, err


def midpoint_bound(sig: Signal, piece: Piece, d: int, j: int, log2_n: int) -> float:
    """Bound on |midpoint-rule sum − S_j| on the 2^log2_n grid over [0, 1/2].

    With G(γ) = d^j |f̂(d^j γ)|² P(γ), the composite midpoint rule errs by
    at most (h²/24)·L·max|G''| when every breakpoint of G is a cell edge
    (true for dyadic data).  |(f̂²)''| ≤ k², |(f̂²)'| ≤ k, f̂² ≤ 1 for the bump
    (k = 2π/w), and P, P', P'' are bounded by 1 (0 for constant pieces), so
    max|G''| ≤ d^j (d^{2j} k² + 2 d^j k + 1).  L is the length of G's support
    in γ.  The bound is doubled for safety.
    """
    h = 0.5 / (1 << log2_n)
    s = float(d) ** j
    k = sig.k
    smooth_piece = piece.fn is not None
    if k == 0.0 and not smooth_piece:
        return 0.0
    lo = max(float(sig.a) / s, float(piece.lo))
    hi = min(float(sig.b) / s, float(piece.hi))
    length = max(hi - lo, 0.0)
    g2 = s * (s * s * k * k + 2.0 * s * k + (1.0 if smooth_piece else 0.0))
    return 2.0 * (h * h / 24.0) * length * g2


def norm_bound(sig: Signal, log2_n: int) -> float:
    """Midpoint error bound for ‖f‖² on a fresh 2^log2_n grid over [a, b]."""
    if sig.kind == "ind":
        return 0.0
    w = float(sig.b - sig.a)
    h = w / (1 << log2_n)
    return 2.0 * (h * h / 24.0) * w * sig.k * sig.k


def reference_level_sum(sig, preset, ell, j, log2_n=20):
    """(oracle value, tolerance); tolerance 0 means exact match required."""
    piece = GENERATORS[(preset, ell)]
    d = DILATION[preset]
    if sig.kind == "ind" and piece.fn is None:
        return exact_level_sum(sig, piece, d, j), 0.0
    v, err = quad_level_sum(sig, piece, d, j)
    tol = midpoint_bound(sig, piece, d, j, log2_n) + 2.0 * err + 1e-14 * abs(v)
    return v, tol


def _matches(got: float, want, tol: float) -> bool:
    if tol == 0.0:
        return Fraction(got) == Fraction(want)
    return abs(got - float(want)) <= tol


def _norm_problems(got: float, sig: Signal, log2_n: int, what: str) -> list[str]:
    want = sig.norm_sq
    tol = norm_bound(sig, log2_n) + 1e-14 * float(want)
    if _matches(got, want, tol):
        return []
    return [f"{what}: ‖f‖² {got!r} != {float(want)!r} (tol {tol:.3g})"]


# ---------------------------------------------------------------------------
# identity route: parseval_report


def check_frame_report(rep: dict, sig: Signal, preset: str, j_min: int, j_max: int,
                       full_window: bool, log2_n: int = 20) -> list[str]:
    """Check a FrameReport (as its to_dict()) level by level."""
    problems = []
    n = N_GENERATORS[preset]
    keys = [(ell, j) for ell in range(1, n + 1) for j in range(j_min, j_max + 1)]
    got_keys = [(ell, j) for (ell, j, _) in rep["levels"]]
    if got_keys != keys:
        return [f"{sig.spec} on {preset}: levels {got_keys} != {keys}"]
    exact = True
    total_want, total_tol = Fraction(0), 0.0
    for ell, j, v in rep["levels"]:
        want, tol = reference_level_sum(sig, preset, ell, j, log2_n)
        exact &= tol == 0.0
        total_want += Fraction(want)
        total_tol += tol
        if not _matches(v, want, tol):
            problems.append(
                f"{sig.spec} on {preset}: S_{j}(psi_{ell}) = {v!r}, oracle "
                f"{float(want)!r} (tol {tol:.3g})"
            )
    if not exact:
        total_tol += 1e-15 * float(total_want)
    if not _matches(rep["total"], total_want, total_tol):
        problems.append(f"{sig.spec} on {preset}: total {rep['total']!r} != "
                        f"{float(total_want)!r}")
    problems += _norm_problems(rep["signal_norm_sq"], sig, log2_n,
                               f"{sig.spec} on {preset}")
    if rep["neg_frequency_mass"] != 0.0:
        problems.append(f"{sig.spec}: negative-frequency mass "
                        f"{rep['neg_frequency_mass']!r} for a signal on (0, ∞)")
    if sig.b <= Fraction(DILATION[preset]) ** j_max / 2 and \
            rep["coverage_tail_mass"] != 0.0:
        problems.append(f"{sig.spec}: tail mass {rep['coverage_tail_mass']!r} "
                        f"for a signal the window covers")
    if rep["ratio"] != rep["total"] / rep["signal_norm_sq"]:
        problems.append(f"{sig.spec}: ratio {rep['ratio']!r} != total / ‖f‖²")
    if full_window and rep["ratio"] != 1.0:
        problems.append(f"{sig.spec} on {preset}: full-window ratio "
                        f"{rep['ratio']!r} != 1.0")
    return problems


# ---------------------------------------------------------------------------
# direct route: lattice_sum_direct_detail


def own_midpoint_sum(sig: Signal, preset: str, ell: int, j: int, log2_n: int) -> float:
    """h·Σ |F(γ_k)|² on the 2^log2_n midpoint grid, F = d^{j/2} f̂(d^j γ) ψ̂(γ).

    The full two-coset lattice sum over one period of the grid's discrete
    Fourier transform equals this number (discrete Parseval), so every
    truncated direct sum on the same grid lies below it.
    """
    n = 1 << log2_n
    h = 0.5 / n
    g = (np.arange(n, dtype=np.float64) + 0.5) * h
    d = float(DILATION[preset])
    vals = (d**j) * sig.abs2((d**j) * g) * GENERATORS[(preset, ell)].abs2(g)
    return math.fsum(vals) * h


def check_direct(detail, sig: Signal, preset: str, ell: int, j: int,
                 log2_n: int) -> list[str]:
    """Properties of a DirectLevelSum (given as a dict of its fields)."""
    label = f"direct {sig.spec} on {preset} psi_{ell} j={j}"
    problems = []
    v = detail["value"]
    if detail["even_part"] + detail["offset_part"] != v:
        problems.append(f"{label}: even + offset != value")
    if not detail["value_at_half_m"] <= v:
        problems.append(f"{label}: value at M/2 {detail['value_at_half_m']!r} "
                        f"exceeds value {v!r}")
    ceiling = own_midpoint_sum(sig, preset, ell, j, log2_n)
    if not 0.0 <= v <= ceiling * (1.0 + 1e-10):
        problems.append(f"{label}: value {v!r} outside [0, {ceiling!r}], the "
                        "same-grid identity value")
    ident, _ = reference_level_sum(sig, preset, ell, j)
    ident = float(ident)
    budget = 1e-2 * max(ident, 1e-3 * float(sig.norm_sq))
    if ident - v > budget:
        problems.append(f"{label}: value {v!r} below identity {ident!r} by more "
                        f"than the budget {budget:.3g}")
    return problems


# ---------------------------------------------------------------------------
# CLI reports


def check_profile(levels, sig: Signal, preset: str, nrm: float,
                  log2_n: int = 20) -> list[str]:
    """A scaling-level profile [[j, S_j(ψ̂₀)], ...]: oracle values, monotone in
    j, and bounded by ‖f‖²·(1 + 1e-9)."""
    problems = []
    label = f"levels {sig.spec} on {preset}"
    prev = None
    for j, v in levels:
        want, tol = reference_level_sum(sig, preset, 0, j, log2_n)
        if not _matches(v, want, tol):
            problems.append(f"{label}: S_{j}(psi_0) = {v!r}, oracle "
                            f"{float(want)!r} (tol {tol:.3g})")
        if prev is not None and v < prev:
            problems.append(f"{label}: profile decreases at j={j} ({v!r} < {prev!r})")
        if v > nrm * (1.0 + 1e-9):
            problems.append(f"{label}: S_{j} = {v!r} exceeds ‖f‖² {nrm!r}")
        prev = v
    problems += _norm_problems(nrm, sig, log2_n, label)
    return problems


def check_levels_report(d: dict, sig: Signal, preset: str, j_min: int,
                        j_max: int) -> list[str]:
    js = [j for j, _ in d["levels"]]
    if js != list(range(j_min, j_max + 1)):
        return [f"levels report covers {js}, expected {j_min}..{j_max}"]
    return check_profile(d["levels"], sig, preset, d["signal_norm_sq"],
                         d["grid"]["log2_n"])


def check_telescope_report(d: dict, sig: Signal, j_min: int, j_max: int) -> list[str]:
    problems = []
    js = [j for j, _ in d["levels"]]
    if js != list(range(j_min, j_max + 1)):
        problems.append(f"telescope report covers {js}, expected {j_min}..{j_max}")
    nrm = d["signal_norm_sq"]
    for j, resid in d["levels"]:
        if not 0.0 <= resid <= 1e-8 * nrm:
            problems.append(f"telescope {sig.spec} j={j}: residual {resid!r} "
                            f"above 1e-8·‖f‖²")
    if d["passed"] is not True:
        problems.append(f"telescope {sig.spec}: report says passed={d['passed']}")
    problems += _norm_problems(nrm, sig, d["grid"]["log2_n"], f"telescope {sig.spec}")
    return problems


_RESIDUALS = ("refinement_residual", "support_leak", "limit_deviation", "uep_residual")


def check_validate_report(d: dict, dyadic: bool, weighted: bool) -> list[str]:
    """Dyadic setups: every residual exactly 0.0.  Others: within the report's
    own tolerances and passed."""
    problems = []
    label = f"validate {d['setup']}"
    if d["passed"] is not True:
        problems.append(f"{label}: passed={d['passed']}")
    for key in _RESIDUALS:
        limit = 0.0 if dyadic else (d["limit_tol"] if key == "limit_deviation"
                                    else d["tol"])
        if not 0.0 <= d[key] <= limit:
            problems.append(f"{label}: {key} = {d[key]!r} above {limit!r}")
    if weighted:
        problems += _oep_fields(d["oep_residual"], d["theta_min"],
                                d["theta_limit_deviation"], label)
    elif d["oep_residual"] is not None:
        problems.append(f"{label}: oep_residual {d['oep_residual']!r} without θ")
    return problems


def _oep_fields(residual, theta_min, theta_limit, label) -> list[str]:
    """θ ≡ 1 on a dyadic indicator bank: the weighted residual is exactly 0."""
    problems = []
    if residual != 0.0:
        problems.append(f"{label}: oep residual {residual!r} != 0.0")
    if theta_min != 1.0 or theta_limit != 0.0:
        problems.append(f"{label}: θ min {theta_min!r}, limit dev {theta_limit!r}")
    return problems


def check_oep_report(d: dict) -> list[str]:
    label = f"oep {d['setup']}"
    problems = _oep_fields(d["residual"], d["theta_min"],
                           d["theta_limit_deviation"], label)
    if d["passed"] is not True:
        problems.append(f"{label}: passed={d['passed']}")
    return problems
