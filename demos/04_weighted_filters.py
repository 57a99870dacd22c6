"""The weighted filter condition, its normalization, and a cautionary tale.

A strictly positive weight theta generalizes the plain filter condition to
theta(2Ng)|H0|^2 + sum |Hl|^2 = theta(g).  Dividing the weight back out of
the filters (and folding sqrt(theta) into the scaling function) recovers a
plain setup, and with theta identically 1 that normalization must change
nothing at all.

The two-filter completion H1 = sqrt(theta(2Ng)) * H0 * i, H2 = sqrt(theta)
looks like it should satisfy the weighted condition, but evaluating the
left side gives theta(g) + 2 theta(2Ng)|H0|^2: the residual is strictly
positive wherever H0 is nonzero.  The residual report makes this visible
instead of papering over it.
"""

import numpy as np

from nuframes import (
    TranslationSet,
    evaluate,
    oep_check,
    oep_normalize,
    parse,
    preset,
    two_generator_setup,
    uep_residual,
)

setup = preset("ex5.2")
rep = oep_check(setup, grid_log2=14)
print(f"sharp setup, weight 1: residual={rep.residual!r}"
      f" min theta={rep.theta_min!r}")
print(f"plain residual for comparison: {uep_residual(setup, 14)!r}")

normalized = oep_normalize(setup, grid_log2=14)
pts = np.linspace(0.0, 0.5, 801)
drift = max(
    float(np.max(np.abs(evaluate(b, pts) - evaluate(a, pts))))
    for a, b in zip((setup.psi0_hat, *setup.filters),
                    (normalized.psi0_hat, *normalized.filters))
)
print(f"normalization drift with trivial weight: {drift!r} (expect 0.0)")

# A genuinely varying weight gets folded into the filters pointwise.
varying = parse("1 + abs2(sin(g))")
ts = TranslationSet(2, 3)
completion = two_generator_setup(setup.psi0_hat, setup.filters[0], varying, ts,
                                 grid_log2=14)
resid = oep_check(completion, grid_log2=14).residual
print(f"\ntwo-filter completion residual: {resid:.6f}")
print("expected sup 2*theta(4g)|H0(g)|^2:",
      f"{float(2 * (1 + np.sin(4 * (1 / 32)) ** 2)):.6f} (at the band edge)")
