from fractions import Fraction

import pytest
from hypothesis import settings

from nuframes import FrequencyGrid, preset

# Every run draws the same examples, so the suite cannot pass or fail by
# chance.  To draw at random, run with
#     --hypothesis-profile=default --hypothesis-seed=N
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def ex51():
    return preset("ex5.1")


@pytest.fixture(scope="session")
def ex52():
    return preset("ex5.2")


@pytest.fixture(scope="session")
def grid14():
    """Coarse working grid, fast enough for per-test lattice sums."""
    return FrequencyGrid(Fraction(0), Fraction(1, 2), 14)
