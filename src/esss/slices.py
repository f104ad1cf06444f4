"""Slice decomposition of kq, slice coefficients, and psi^3 - 1.

A slice cell is recorded by its suspension stem, its weight (equal to the
slice index), its modulus exponent (1, a_q(c) or infinity), and the cell
monomial.  The weight of every cell in the c-th slice is c, as forced by
the polynomial form of the slice ring; the engine follows that convention
everywhere.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .coefficients import coeff_classes
from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree
from .numthy import NU_INFINITY, a_q


class SliceSummand(NamedTuple):
    stem: int
    weight: int
    modulus: object  # exponent n >= 1, or NU_INFINITY for HZ
    cell: Monomial


@lru_cache(maxsize=None)
def slices_kq(c: int):
    """Cells of the c-th slice of kq; negative slices are empty."""
    if c < 0:
        return ()
    out = []
    for e in range(0, c + 1, 2):
        a = c - e
        cell = Monomial(h1=a, v1=e)
        out.append(SliceSummand(a + 2 * e, c, NU_INFINITY if a == 0 else 1, cell))
    return tuple(out)


def e1_kq_basis(field: FieldId, deg: TriDegree):
    """E1 classes of kq at deg, as named cyclic summands holding the caller's deg."""
    s, f, w = deg
    if (s + f) % 2 or s + f < 0 or f < 0:
        return []
    c = (s + f) // 2
    out = []
    for stem, _, modulus, (_, _, h1, v1, _, _) in slices_kq(c):
        for order, gen, _ in coeff_classes(field, modulus, s - stem, w - c):
            coeff2, _, _, _, tau, units = gen.lead
            mono = Monomial(coeff2=coeff2, h1=h1, v1=v1, tau=tau, units=units)
            assert mono.degree() == deg, (mono, deg)
            out.append(CyclicSummand(order, Generator.of(mono), deg))
    out.sort(key=lambda cs: cs.gen.sort_key())
    return out


def psi3_entries(field: FieldId, basis):
    """Diagonal of psi^3 - 1 on an E1(kq) basis at one tridegree.

    The map multiplies the integral cell of the slice in weight 2k by
    2^(nu2(k)+3) (2-locally exact), is zero on the weight-0 slice, and is
    zero on every mod-2 cell.
    """
    diag = []
    for cs in basis:
        mono = cs.gen.lead
        if mono.h1 == 0:
            c = mono.slice_index
            diag.append(0 if c == 0 else 1 << a_q(c))
        else:
            diag.append(0)
    return diag
