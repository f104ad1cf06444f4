"""Two-adic number theory used by every order computation in the engine.

All arithmetic is exact: big integers and Fractions only.  The dyadic
valuation of 0 is represented by the dedicated sentinel NU_INFINITY, never
by a large integer, so torsion-order arithmetic cannot silently overflow.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, isqrt


class _Infinity:
    """Order-absorbing sentinel for nu2(0) and for the modulus of HZ."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NU_INFINITY"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return isinstance(other, _Infinity)

    def __gt__(self, other):
        return not isinstance(other, _Infinity)

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__


NU_INFINITY = _Infinity()


def nu2(n: int) -> int:
    """Largest e with 2^e | n, for n >= 1."""
    if n < 1:
        raise ValueError(f"nu2 requires n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def vmin(a, b):
    """Minimum of two valuations, either of which may be NU_INFINITY."""
    if isinstance(a, _Infinity):
        return b
    if isinstance(b, _Infinity):
        return a
    return min(a, b)


def odd_prime_base(q: int):
    """The prime p with q = p^k, k >= 1, for an odd q >= 3; None for any other q.
    Trial division stops at the square root: past it q is prime."""
    if q < 3 or q % 2 == 0:
        return None
    p = next((d for d in range(3, isqrt(q) + 1, 2) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


class OddPrimePower(int):
    """An odd prime power q >= 3; any other value raises ValueError."""

    __slots__ = ()

    def __new__(cls, q):
        if odd_prime_base(q) is None:
            raise ValueError(f"{q} is not an odd prime power >= 3")
        return super().__new__(cls, q)


def s_q(q: int, i: int) -> int:
    """The torsion-exponent function for finite-field integral coefficients.

    For q = 1 mod 4 this is nu2(q-1) + nu2(i+1); for q = 3 mod 4 it is 1 on
    even i and nu2(q^2-1) + nu2(i+1) - 1 on odd i.  Defined for i >= 0; for
    i = -1 the value is NU_INFINITY (nu2(0) convention), which is what the
    mod-2^n coefficient formulas need at the top of a tau-tower.
    """
    OddPrimePower(q)  # validates
    if i < -1:
        raise ValueError(f"s_q is defined for i >= -1, got {i}")
    if i == -1:
        return NU_INFINITY
    if q % 4 == 1:
        return nu2(q - 1) + nu2(i + 1)
    if i % 2 == 0:
        return 1
    return nu2(q * q - 1) + nu2(i + 1) - 1


@lru_cache(maxsize=None)
def a_q(c: int) -> int:
    """nu2(3^c - 1) for c >= 1, the torsion order of the top slice cell."""
    if c < 1:
        raise ValueError(f"a_q requires c >= 1, got {c}")
    return nu2(pow(3, c) - 1)


@lru_cache(maxsize=None)
def bernoulli_even(k: int) -> Fraction:
    """B_{2k} as an exact Fraction, k >= 0, via the binomial recurrence on even indices."""
    from fractions import Fraction  # only the Bernoulli check needs it
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return Fraction(1)
    acc = Fraction(2 * k + 1, -2)  # the B_1 = -1/2 term of the recurrence
    for j in range(k):
        acc += comb(2 * k + 1, 2 * j) * bernoulli_even(j)
    return -acc / (2 * k + 1)


def bernoulli_denom_two_part(k: int) -> int:
    """The exact power of 2 dividing denom(B_{2k} / 4k), k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = (bernoulli_even(k) / (4 * k)).denominator
    return 1 << nu2(d)
