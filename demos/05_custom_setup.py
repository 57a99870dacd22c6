"""Build a setup of your own from expression strings and run the pipeline.

Setups are plain dicts: translation-set parameters, a scaling function, and
a filter bank, all as text in a small frequency-expression language
(variable g, functions sin/cos/sinc/sqrt/abs2/conj/recip, indicators
chi(a,b] with any bracket combination, exact rational constants).  The same
dict can live in a JSON file and drive the command line interface.
"""

import json
import os
import tempfile

from nuframes import (
    derive_generator,
    render,
    setup_from_dict,
    validate_setup,
)
from nuframes.cli import main

# Dilation 6 on {0, 1/3} + 2Z: indicator scaling function on [0, 1/12] and
# a complementary pair, the sharp construction at a different lattice.
custom = {
    "N": 3,
    "r": 1,
    "psi0_hat": "chi[0,1/12]",
    "filters": ["chi[0,1/72]", "1 - chi[0,1/72]"],
}

setup = setup_from_dict(custom)
rep = validate_setup(setup, grid_log2=14)
print(f"custom dilation-{setup.ts.dilation} setup: passed={rep.passed}")

print("derived generators:")
for ell in range(1, setup.n + 1):
    print(f"  psi_{ell} =", render(derive_generator(setup, ell)))

# The identical dict drives the CLI.  The breakpoint 1/12 is not dyadic, so
# midpoint quadrature converges at first order in the cell width here; the
# tolerance has to match the grid (or the grid the tolerance).
with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
    json.dump(custom, fh)
    path = fh.name

print("\nCLI on the same file (exit 0 = every check passed):")
try:
    code = main(["parseval", "--setup", path, "--signal", "ind(1/12,1/2)",
                 "--j=-3..3", "--grid-log2", "14", "--tol", "1e-4"])
finally:
    os.remove(path)
print(f"exit code: {code}")
