"""Coefficient modules of motivic Eilenberg-MacLane spectra over each base.

Everything is bigraded by (stem, weight); the filtration slot of the stored
tridegrees is the one a class acquires once it is placed on a slice cell,
which is what Monomial.degree computes.  The modulus n of HZ/2^n is the
exponent, n = NU_INFINITY meaning integral coefficients.

The mod-2 module (n = 1) and the reduction of integral unit words are read
from the field's presentation (fields.presentation).  Every other modulus,
HZ included, goes through one closed form per field kind.  Over the rationals
the modules are assembled from three blocks: a real block (rho classes), a
2-adic block (the pi-flavored classes, reduced to [2] mod 2), and one
finite-field block per odd prime of the support set.
Over the reals the mod-2^n module contains, besides the reductions of the
integral classes, one order-2 class for each 2-torsion integral class one
stem up; both oracles force these and the n = 1 case pins them.

pi_{s,w}(HZ/2^n) vanishes off the band coefficient_stems: w <= s <= 0, and s no
lower than the presentation's lowest stem except over R and Q (rho towers).
"""
from __future__ import annotations

from functools import lru_cache

from .fields import FieldId, Fq, presentation
from .groups import CyclicSummand, Generator, Monomial, unit_word_degree
from .numthy import NU_INFINITY, s_q, vmin


def _summand(order, units, tau, coeff2=0):
    mono = Monomial(coeff2=coeff2, tau=tau, units=tuple(sorted(units)))
    return CyclicSummand(order, Generator.of(mono), mono.degree())


def mod2_stem_units(field: FieldId, s: int):
    """Basis unit-tuples of pi_**(HZ/2) in stem s (tau powers not included)."""
    pres = presentation(field)
    if s in pres.stems:
        return pres.stems[s]
    return ((("rho", -s),),) if pres.rho_tower and s < 0 else ()


def coefficient_stems(field: FieldId, w: int):
    """The stems s at which pi_{s,w}(HZ/2^n) can be nonzero, for every n."""
    pres = presentation(field)
    return range(w if pres.rho_tower else max(w, min(pres.stems)), 1)


def mod2_classes(field: FieldId, s: int, w: int):
    """The basis of pi_{s,w}(HZ/2) as (units, tau exponent) pairs."""
    out = []
    for units in mod2_stem_units(field, s):
        tau = unit_word_degree(units)[2] - w
        if tau >= 0:
            out.append((units, tau))
    return out


def coeff_hz2(field: FieldId, s: int, w: int):
    """pi_{s,w}(HZ/2): monomial enumeration modulo the field's relations."""
    return [_summand(2, units, tau) for units, tau in mod2_classes(field, s, w)]


def _full(n):
    """The order of a free class reduced mod 2^n: 2^n, or 0 (Z) for HZ."""
    return 0 if n is NU_INFINITY else 1 << n


def _kernel(i, n, units, tau):
    """Z/2^i{2^(n-i) units tau^j}, i the torsion exponent cut at n.

    With i = n this is the reduction of a free class; with i < n it is a
    class of the kernel of 2^n one stem down, which HZ does not have.
    """
    if n is NU_INFINITY:
        return [_summand(0, units, tau)] if i is NU_INFINITY else []
    return [_summand(1 << i, units, tau, coeff2=n - i)]


def _reduced(i, n, units, tau):
    """The reduction of a class of order 2^i or more (i cut at n); HZ
    names it without the 2-power."""
    return _summand(1 << i, units, tau, coeff2=0 if n is NU_INFINITY else n - i)


def _c(field, n, s, w):
    return [_summand(_full(n), (), -w)] if s == 0 and w <= 0 else []


def _r(field, n, s, w):
    e, j = -s, s - w
    if e < 0 or j < 0:
        return []
    units = (("rho", e),) if e else ()
    if j % 2:  # 2^(n-1) times the class: the kernel of 2^n one stem down
        return _kernel(1, n, units, j)
    return [_summand(_full(n) if e == 0 else 2, units, j)]


def _fq(field, n, s, w):
    if s not in (0, -1) or w > s:
        return []
    i = vmin(s_q(field.q, -w - 1), n)
    if s == 0:
        return _kernel(i, n, (), -w)
    return [_summand(1 << i, ((field.x_symbol, 1),), -w - 1)]


def _decorated(classes, units):
    """The classes multiplied by the unit word `units`."""
    out = []
    for cs in classes:
        mono = cs.gen.lead
        out.append(_summand(cs.order, mono.units + units, mono.tau, coeff2=mono.coeff2))
    return out


def _qq(field, n, s, w):
    """Over Q_q: the F_q classes tensored with Z[pi]/(pi^2)."""
    fq = Fq(field.q)
    return (_coeff_classes(fq, n, s, w)
            + _decorated(_coeff_classes(fq, n, s + 1, w + 1), (("pi", 1),)))


def _q2(field, n, s, w):
    if s == 0 and w <= 0:
        return _kernel(vmin(s_q(3, -w - 1), n), n, (), -w)
    if s == -1 and w <= -1:
        j = -w - 1
        if w % 2:  # odd weight: u truncated, pi full, rho plain
            return _kernel(vmin(s_q(3, j - 1), n), n, (("u", 1),), j) + [
                _summand(_full(n), (("pi", 1),), j), _summand(2, (("rho", 1),), j)]
        # even weight: u full, pi truncated, rho top
        return [_summand(_full(n), (("u", 1),), j),
                _reduced(vmin(s_q(3, j), n), n, (("pi", 1),), j)] + _kernel(1, n, (("rho", 1),), j)
    if s == -2 and w <= -2:
        return [_reduced(vmin(s_q(3, -w - 2), n), n, (("rho", 2),), -w - 2)]
    return []


def _q(field, n, s, w):
    """Over Q: the 2-adic pi classes, the real block, an F_p block per odd p."""
    out = [cs for cs in _q2(field, n, s, w) if cs.gen.lead.units == (("pi", 1),)]
    out.extend(_r(field, n, s, w))
    for p in field.odd_support():
        out.extend(_decorated(_coeff_classes(Fq(p), n, s + 1, w + 1), ((f"[{p}]", 1),)))
    return out


_BY_KIND = {"c": _c, "fq": _fq, "qq": _qq, "q2": _q2, "r": _r, "q": _q}


@lru_cache(maxsize=1 << 15)  # d after d over ten fields reads 19,364 groups
def coeff_classes(field: FieldId, n, s: int, w: int):
    """pi_{s,w}(HZ/2^n); n is the exponent, NU_INFINITY for HZ."""
    return tuple(_coeff_classes(field, n, s, w))


def _coeff_classes(field: FieldId, n, s: int, w: int):
    if n < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {n}")
    if n == 1:
        # the canonical monomial basis, so generator names feed the rules
        return coeff_hz2(field, s, w)
    return _BY_KIND[field.kind](field, n, s, w)


def reduce_integral_units(field: FieldId, units):
    """Mod-2 reduction of an integral class's unit word, as a basis word.

    Returns None when the reduction is zero; over Q the pi classes reduce
    to [2] classes and the [p]-decorated torsion reduces to a_p.
    """
    reduction = presentation(field).reduction
    if units in reduction:
        return reduction[units]
    return units if units in mod2_stem_units(field, unit_word_degree(units)[0]) else None
