"""Coefficient modules of motivic Eilenberg-MacLane spectra over each base.

Everything is bigraded by (stem, weight); the filtration slot of the stored
tridegrees is the one a class acquires once it is placed on a slice cell,
which is what Monomial.degree computes.  The modulus n of HZ/2^n is the
exponent, n = NU_INFINITY meaning integral coefficients.

Over the rationals the modules are assembled from three blocks: a real
block (rho classes), a 2-adic block (the pi-flavored classes, reduced to
[2] mod 2), and one finite-field block per odd prime of the support set.
Over the reals the mod-2^n module contains, besides the reductions of the
integral classes, one order-2 class for each 2-torsion integral class one
stem up; both oracles force these and the n = 1 case pins them.
"""
from __future__ import annotations

from functools import lru_cache

from .fields import FieldId, Fq
from .groups import CyclicSummand, Generator, Monomial, unit_word_degree
from .numthy import NU_INFINITY, s_q, vmin


def _summand(order, units, tau, coeff2=0):
    mono = Monomial(coeff2=coeff2, tau=tau, units=tuple(sorted(units)))
    return CyclicSummand(order, Generator.of(mono), mono.degree())


def mod2_stem_units(field: FieldId, s: int):
    """Basis unit-tuples of pi_**(HZ/2) in stem s (tau powers not included)."""
    if s > 0:
        return []
    kind = field.kind
    if kind == "c":
        return [()] if s == 0 else []
    if kind == "fq":
        if s == 0:
            return [()]
        if s == -1:
            return [((field.x_symbol, 1),)]
        return []
    if kind == "qq":
        x = field.x_symbol
        table = {0: [()], -1: [((x, 1),), (("pi", 1),)],
                 -2: [tuple(sorted(((x, 1), ("pi", 1))))]}
        return table.get(s, [])
    if kind == "q2":
        table = {0: [()], -1: [(("pi", 1),), (("rho", 1),), (("u", 1),)],
                 -2: [(("rho", 2),)]}
        return table.get(s, [])
    if kind == "r":
        return [(("rho", -s),) if s else ()] if s <= 0 else []
    if kind == "q":
        if s == 0:
            return [()]
        out = [(("rho", -s),)]
        if s == -1:
            out.append((("[2]", 1),))
            out.extend(((f"[{p}]", 1),) for p in field.odd_support())
        if s == -2:
            out.extend(((f"a_{p}", 1),) for p in field.odd_support())
        return sorted(out)
    raise AssertionError(kind)


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


def coeff_hz(field: FieldId, s: int, w: int):
    """pi_{s,w}(HZ), 2-locally: free summands have order 0."""
    kind = field.kind
    out = []
    if kind == "c":
        if s == 0 and w <= 0:
            out.append(_summand(0, (), -w))
    elif kind == "fq":
        x = field.x_symbol
        if s == 0 and w == 0:
            out.append(_summand(0, (), 0))
        elif s == -1 and w <= -1:
            i = -1 - w
            out.append(_summand(1 << s_q(field.q, i), ((x, 1),), i))
    elif kind == "qq":
        out.extend(_qq_classes(field, NU_INFINITY, s, w))
    elif kind == "q2":
        if s == 0 and w == 0:
            out.append(_summand(0, (), 0))
        elif s == -1 and w <= -1:
            m = -1 - w
            if m == 0:
                out.append(_summand(0, (("u", 1),), 0))
                out.append(_summand(0, (("pi", 1),), 0))
                out.append(_summand(2, (("rho", 1),), 0))
            else:
                y = "u" if m % 2 else "pi"
                z = "pi" if m % 2 else "rho"
                out.append(_summand(0, ((y, 1),), m))
                out.append(_summand(1 << s_q(3, m), ((z, 1),), m))
        elif s == -2 and w <= -2:
            m = -2 - w
            out.append(_summand(1 << s_q(3, m), (("rho", 2),), m))
    elif kind == "r":
        e = -s
        j = -w - e
        if e >= 0 and j >= 0 and j % 2 == 0:
            out.append(_summand(0 if e == 0 else 2, (("rho", e),) if e else (), j))
    elif kind == "q":
        out.extend(_q_blocks(field, NU_INFINITY, s, w))
    else:
        raise AssertionError(kind)
    return out


def _hz2n_c(n, s, w):
    if s == 0 and w <= 0:
        return [_summand(1 << n, (), -w)]
    return []


def _hz2n_r(n, s, w):
    e = -s
    if e < 0:
        return []
    j = -w - e
    if j < 0:
        return []
    out = []
    if e == 0:
        if j % 2 == 0:
            out.append(_summand(1 << n, (), j))
        else:
            out.append(_summand(2, (), j, coeff2=n - 1))
    else:
        units = (("rho", e),)
        if j % 2 == 0:
            out.append(_summand(2, units, j))
        else:
            out.append(_summand(2, units, j, coeff2=n - 1))
    return out


def _hz2n_fq(field, n, s, w):
    if s not in (0, -1) or w > s:
        return []
    i = vmin(s_q(field.q, -w - 1), n)
    if s == 0:
        return [_summand(1 << i, (), -w, coeff2=n - i)]
    return [_summand(1 << i, ((field.x_symbol, 1),), -w - 1)]


def _decorated(classes, units):
    """The classes multiplied by the unit word `units`."""
    out = []
    for cs in classes:
        mono = cs.gen.lead
        out.append(_summand(cs.order, mono.units + units, mono.tau, coeff2=mono.coeff2))
    return out


def _qq_classes(field, n, s, w):
    """Over Q_q: the F_q classes tensored with Z[pi]/(pi^2)."""
    fq = Fq(field.q)
    return (_coeff_classes(fq, n, s, w)
            + _decorated(_coeff_classes(fq, n, s + 1, w + 1), (("pi", 1),)))


def _hz2n_q2(n, s, w):
    out = []
    if s == 0 and w <= 0:
        j = -w
        i = vmin(s_q(3, j - 1), n)
        out.append(_summand(1 << i, (), j, coeff2=n - i))
    elif s == -1 and w <= -1:
        j = -w - 1
        if w % 2:  # odd weight: u truncated, pi full, rho plain
            i = vmin(s_q(3, j - 1), n)
            out.append(_summand(1 << i, (("u", 1),), j, coeff2=n - i))
            out.append(_summand(1 << n, (("pi", 1),), j))
            out.append(_summand(2, (("rho", 1),), j))
        elif w <= -2:  # even weight: u full, pi truncated, rho top
            i = vmin(s_q(3, j), n)
            out.append(_summand(1 << n, (("u", 1),), j))
            out.append(_summand(1 << i, (("pi", 1),), j, coeff2=n - i))
            out.append(_summand(2, (("rho", 1),), j, coeff2=n - 1))
    elif s == -2 and w <= -2:
        j = -w - 2
        i = vmin(s_q(3, j), n)
        out.append(_summand(1 << i, (("rho", 2),), j, coeff2=n - i))
    return out


def _q_c3_block(n, s, w):
    """The pi-flavored block over Q: image of the 2-adic pi tau^m classes."""
    out = []
    if s == -1 and w <= -1:
        j = -1 - w
        if j % 2 == 0:
            if n is NU_INFINITY:
                out.append(_summand(0, (("pi", 1),), j))
            else:
                out.append(_summand(1 << n, (("pi", 1),), j))
        else:
            i = vmin(s_q(3, j), n)
            if n is NU_INFINITY:
                out.append(_summand(1 << i, (("pi", 1),), j))
            else:
                out.append(_summand(1 << i, (("pi", 1),), j, coeff2=n - i))
    return out


def _q_blocks(field, n, s, w):
    out = _q_c3_block(n, s, w)
    out.extend(_coeff_classes(FieldId("r"), n, s, w))
    for p in field.odd_support():
        out.extend(_decorated(_coeff_classes(Fq(p), n, s + 1, w + 1), ((f"[{p}]", 1),)))
    return out


@lru_cache(maxsize=None)
def coeff_classes(field: FieldId, n, s: int, w: int):
    """pi_{s,w}(HZ/2^n); n is the exponent, NU_INFINITY for HZ."""
    return tuple(_coeff_classes(field, n, s, w))


def _coeff_classes(field: FieldId, n, s: int, w: int):
    if n is NU_INFINITY:
        return coeff_hz(field, s, w)
    if n < 1:
        raise ValueError(f"modulus exponent must be >= 1, got {n}")
    if n == 1:
        # the canonical monomial basis, so generator names feed the rules
        return coeff_hz2(field, s, w)
    kind = field.kind
    if kind == "c":
        return _hz2n_c(n, s, w)
    if kind == "fq":
        return _hz2n_fq(field, n, s, w)
    if kind == "qq":
        return _qq_classes(field, n, s, w)
    if kind == "q2":
        return _hz2n_q2(n, s, w)
    if kind == "r":
        return _hz2n_r(n, s, w)
    if kind == "q":
        return _q_blocks(field, n, s, w)
    raise AssertionError(kind)


def reduce_integral_units(field: FieldId, units):
    """Mod-2 reduction of an integral class's unit word, as a basis word.

    Returns None when the reduction is zero; over Q the pi classes reduce
    to [2] classes and the [p]-decorated torsion reduces to a_p.
    """
    if field.kind == "q":
        if units == (("pi", 1),):
            return (("[2]", 1),)
        syms = dict(units)
        for p in field.odd_support():
            if f"[{p}]" in syms:
                if len(units) == 1:
                    return units
                return ((f"a_{p}", 1),)
    return units if units in mod2_stem_units(field, unit_word_degree(units)[0]) else None
