from fractions import Fraction

import pytest

from nuframes import TranslationSet


@pytest.mark.parametrize(
    "N,r,msg",
    [
        (0, 1, "positive integer"),
        (-2, 1, "positive integer"),
        (2, 2, "odd"),
        (2, 0, "odd"),
        (3, 3, "coprime"),
        (9, 3, "coprime"),
        (2, 5, r"\[1, 2N-1\]"),
        (2, -1, r"\[1, 2N-1\]"),
        (5, 11, r"\[1, 2N-1\]"),
        pytest.param(10**400, 1, "N is too large", id="huge-N"),
    ],
)
def test_invalid_parameters(N, r, msg):
    with pytest.raises(ValueError, match=msg):
        TranslationSet(N, r)


def test_non_integer_parameters():
    with pytest.raises(ValueError, match="positive integer"):
        TranslationSet(2.5, 1)
    with pytest.raises(ValueError, match="odd"):
        TranslationSet(2, 1.5)


@pytest.mark.parametrize("N,r", [(1, 1), (2, 1), (2, 3), (3, 1), (3, 5), (4, 7)])
def test_valid_parameters(N, r):
    ts = TranslationSet(N, r)
    assert ts.offset == Fraction(r, N)
    assert ts.dilation == 2 * N
    assert 0 < ts.offset < 2
