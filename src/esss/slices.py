"""E1 of kq from its slice cells, and psi^3 - 1.

The c-th slice of kq has a cell h1^(c-e) v1^e in stem c + e for each even
0 <= e <= c, with coefficients HZ if e = c, else HZ/2; its weight is c, as the
polynomial slice ring forces.  No slice table is kept: a degree visits only
the cells whose coefficient group coefficients.coefficient_stems allows.
"""
from __future__ import annotations

from .coefficients import coeff_classes, coefficient_stems
from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree
from .numthy import NU_INFINITY, a_q


def e1_kq_basis(field: FieldId, deg: TriDegree):
    """E1 classes of kq at deg, as named cyclic summands holding the caller's deg."""
    s, f, w = deg
    if (s + f) % 2 or s + f < 0 or f < 0:
        return []
    c = (s + f) // 2
    # the cell v1^e reads its coefficients in stem s - c - e, which must lie
    # in the band; e runs from lo >= 0, so an upper end below it visits none
    stems = coefficient_stems(field, w - c)
    lo = max(0, s - c - (stems.stop - 1))
    out = []
    for e in range(lo + lo % 2, min(c, s - c - stems.start) + 1, 2):
        h1 = c - e
        for order, gen, _ in coeff_classes(field, 1 if h1 else NU_INFINITY, s - c - e, w - c):
            coeff2, _, _, _, tau, units = gen.lead
            mono = tuple.__new__(Monomial, (coeff2, 0, h1, e, tau, units))  # as with_coeff2
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
        _, _, h1, v1, _, _ = cs.gen.lead
        diag.append(1 << a_q(v1) if h1 == 0 and v1 else 0)  # v1 = c on the integral cell
    return diag
