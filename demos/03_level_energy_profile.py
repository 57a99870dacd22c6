"""Watch a signal's energy appear across scaling levels.

The scaling-level sum at level j sees exactly the part of the signal below
the dilated cutoff (2N)^j / (4N).  Sweeping j therefore traces a staircase
from 0 up to ||f||^2, and the one-level telescoping identity says each step
equals the energy the generators pick up at the level below.
"""

from fractions import Fraction

from nuframes import (
    FrequencyGrid,
    hann_bump,
    level_profile,
    norm_sq,
    preset,
    telescoping_residual,
)

setup = preset("ex5.2")
sig = hann_bump(Fraction(1, 64), Fraction(1, 16))
grid = FrequencyGrid(0, Fraction(1, 2), 14)

nrm = norm_sq(sig.fhat, sig.support, grid)
print(f"signal {sig.label}, ||f||^2 = {nrm!r}\n")

print(f"{'level':>6} {'scaling sum':>14} {'fraction':>10}")
for j, v in level_profile(sig.fhat, setup, range(-5, 6), grid):
    bar = "#" * int(round(40 * v / nrm))
    print(f"{j:>6} {v:>14.10f} {v / nrm:>10.6f}  {bar}")

smooth = preset("ex5.1")
print("\ntelescoping residuals (smooth setup, should be ~0):")
for j, r in telescoping_residual(sig.fhat, smooth, (0, 1, 2), grid):
    print(f"  level {j}: {r:.3e}")
