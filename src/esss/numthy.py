"""Two-adic number theory used by every order computation in the engine.

All arithmetic is exact: big integers and Fractions only.  The dyadic
valuation of 0 and the modulus of HZ are NU_INFINITY, which is math.inf, the
infinity homalg also sorts free summands by, never a large integer.  The
builtin min returns one of its arguments, so a minimum of valuations still
passes `is NU_INFINITY`; no code does arithmetic on it.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, inf, isqrt


NU_INFINITY = inf


def nu2(n: int) -> int:
    """Largest e with 2^e | n, for n >= 1."""
    if n < 1:
        raise ValueError(f"nu2 requires n >= 1, got {n}")
    return (n & -n).bit_length() - 1


def odd_prime_base(q: int):
    """The prime p with q = p^k, k >= 1, for an odd q >= 3; None for any other q.
    Trial division stops at the square root: past it q is prime."""
    if q < 3 or q % 2 == 0:
        return None
    p = next((d for d in range(3, isqrt(q) + 1, 2) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return p if q == 1 else None


def s_q(q: int, i: int) -> int:
    """The torsion-exponent function for finite-field integral coefficients.

    For q = 1 mod 4 this is nu2(q-1) + nu2(i+1); for q = 3 mod 4 it is 1 on
    even i and nu2(q^2-1) + nu2(i+1) - 1 on odd i.  Defined for i >= 0; for
    i = -1 the value is NU_INFINITY (nu2(0) convention), which is what the
    mod-2^n coefficient formulas need at the top of a tau-tower.  q is not
    checked here: callers pass a FieldId's q, checked when it was made, or 3.
    """
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
