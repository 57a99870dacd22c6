"""Nonuniform translation sets Λ = {0, r/N} + 2ℤ.

A translation set is the union of the even integers and their shift by the
rational offset r/N.  Together with dilation by 2N it is the index set for
all frame systems in this package.  The offset r/N is kept as an exact
rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd


@dataclass(frozen=True)
class TranslationSet:
    """Λ = {0, r/N} + 2ℤ with dilation factor 2N.

    Constraints: N ≥ 1 integer, r odd, gcd(r, N) = 1, 1 ≤ r ≤ 2N − 1.
    For N = 1 the only admissible r is 1 and Λ = ℤ; for N ≥ 2 the set is
    not closed under addition (no group structure).
    """

    N: int
    r: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        try:
            float(2 * self.N)
        except OverflowError:
            raise ValueError("N is too large: the dilation 2N overflows a float") from None
        if not isinstance(self.r, int) or self.r % 2 == 0:
            raise ValueError(f"r must be an odd integer, got {self.r!r}")
        if gcd(self.r, self.N) != 1:
            raise ValueError(f"r and N must be coprime, got r={self.r}, N={self.N}")
        if not 1 <= self.r <= 2 * self.N - 1:
            raise ValueError(
                f"r must lie in [1, 2N-1] = [1, {2 * self.N - 1}], got {self.r}"
            )

    @property
    def offset(self) -> Fraction:
        """The coset offset r/N (in (0, 2), never an even integer for N ≥ 2)."""
        return Fraction(self.r, self.N)

    @property
    def dilation(self) -> int:
        """The dilation factor 2N paired with Λ."""
        return 2 * self.N
