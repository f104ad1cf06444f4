"""Reference implementations that only the tests compare against."""
from __future__ import annotations

from functools import lru_cache

from esss.groups import Monomial
from esss.homalg import (StructuredGroup, _kernel_lattice, _presentation_from_relations,
                         _subquotient, identity)
from esss.numthy import NU_INFINITY, a_q, nu2
from esss.slices import SliceSummand, slices_kq


def kernel_cokernel(A, src_orders, tgt_orders):
    """Kernel and cokernel of a map between direct sums of cyclics.

    A is the matrix of the map (rows = target summands, columns = source).
    Returns (kernel, cokernel) as StructuredGroups; kernel generators are
    vectors in source coordinates, cokernel generators in target coordinates.
    """
    n = len(src_orders)
    m = len(tgt_orders)
    assert len(A) == m and all(len(row) == n for row in A), "shape mismatch"

    # cokernel: Z^m / (im A + im diag(tgt_orders))
    R = [[A[i][j] for j in range(n)] + [tgt_orders[i] if k == i else 0 for k in range(m)]
         for i in range(m)]
    coker = _presentation_from_relations(identity(m), R) if m else StructuredGroup([], [])

    if n == 0:
        return StructuredGroup([], []), coker
    C = _kernel_lattice(A, n, tgt_orders)
    if not C:
        return StructuredGroup([], []), coker
    return _subquotient(C, src_orders), coker


@lru_cache(maxsize=None)
def slices_L(c: int):
    """Cells of the c-th slice of L; negative slices are empty."""
    if c < 0:
        return ()
    if c == 0:
        unit = Monomial()
        iota = Monomial(iota=1)
        return (SliceSummand(-1, 0, NU_INFINITY, iota),
                SliceSummand(0, 0, NU_INFINITY, unit))
    out = []
    for cell in slices_kq(c):
        if cell.modulus is NU_INFINITY:
            mono = Monomial(iota=1, v1=cell.cell.v1)
            out.append(SliceSummand(cell.stem - 1, c, a_q(c), mono))
        else:
            out.append(SliceSummand(cell.stem, c, 1, cell.cell))
            mono = Monomial(iota=1, h1=cell.cell.h1, v1=cell.cell.v1)
            out.append(SliceSummand(cell.stem - 1, c, 1, mono))
    return tuple(sorted(out, key=lambda sl: (sl.stem, sl.cell.sort_key())))


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def von_staudt_clausen_denom(k: int) -> int:
    """Denominator of B_{2k}: the product of primes p with (p-1) | 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = 1
    for p in _primes_up_to(2 * k + 1):
        if (2 * k) % (p - 1) == 0:
            d *= p
    return d


def bernoulli_denom_two_part_vsc(k: int) -> int:
    """2-part of denom(B_{2k}/4k) from the von Staudt-Clausen denominator.

    denom(B_{2k}) is squarefree and even, so the numerator of B_{2k} is odd
    and the 2-part of denom(B_{2k}/4k) is 2^(1 + nu2(4k)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    assert von_staudt_clausen_denom(k) % 2 == 0
    return 1 << (1 + nu2(4 * k))
