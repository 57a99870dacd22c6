"""Verify the Parseval identity by two routes that share no code path.

The identity route integrates |f_hat((2N)^j g) psi_hat(g)|^2 over [0, 1/2],
which equals the full lattice sum whenever the analyzing function is
supported there.  The direct route actually sums |c_lambda|^2 over the
truncated translation set {2m, r/N + 2m : |m| <= M}; every c_lambda is a
midpoint quadrature, and those of one coset come from one inverse FFT.  The
direct sums increase with M toward the identity value, and the leftover gap
shrinks like 1/M for indicator data.
"""

from fractions import Fraction

from nuframes import (
    FrequencyGrid,
    derive_generator,
    indicator_signal,
    lattice_sum_direct_detail,
    lattice_sum_parseval,
    parseval_report,
    preset,
)

# 2^15 cells keeps M*h below the phase-resolution guard for M up to 512
setup = preset("ex5.2")
gen = derive_generator(setup, 1)
sig = indicator_signal(Fraction(1, 8), Fraction(1, 2))
grid = FrequencyGrid(0, Fraction(1, 2), 15)

ident = lattice_sum_parseval(sig.fhat, gen, setup.ts, 0, grid)
print(f"identity route, level 0:  {ident:.12f}")

print(f"{'M':>6} {'direct':>16} {'gap':>12} {'even coset':>12} {'offset coset':>12}")
for M in (8, 32, 128, 512):
    d = lattice_sum_direct_detail(sig.fhat, gen, setup.ts, 0, M=M, grid=grid)
    print(f"{M:>6} {d.value:>16.12f} {ident - d.value:>12.3e}"
          f" {d.even_part:>12.8f} {d.offset_part:>12.8f}")

# The report bundles the whole level window and compares against ||f||^2.
rep = parseval_report(sig, setup, j_min=-4, j_max=4, grid=grid)
print(f"\nidentity-route report: total={rep.total!r}"
      f" norm={rep.signal_norm_sq!r} ratio={rep.ratio!r}")

rep = parseval_report(sig, setup, j_min=-4, j_max=4, route="direct",
                      M=256, grid=grid)
print(f"direct-route report:   total={rep.total!r} ratio={rep.ratio!r}"
      f" (coset tail estimate {rep.coset_tail_estimate:.2e})")
