"""Graded group containers: tridegrees, monomial generator names, summands.

A generator name is a formal sum of monomials; almost every class is a
single monomial, but surviving classes over the 2-adic rationals can be
honest two-term sums, so the sum form is first-class.

TriDegree, Monomial, Generator, CyclicSummand and every other esss record
are immutable tuple records, so hashing, equality and construction run in C;
a Generator is the tuple of its terms.  Caveat: a record equals any tuple
of equal values, so no dict or set may mix such keys.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple

# coefficient-module unit symbols all sit in pi_{-1,-1} except 2-cell classes
_UNIT_WEIGHT_1 = {"u", "rho", "pi", "[2]"}


def _unit_degree(sym: str, exp: int):
    if sym in _UNIT_WEIGHT_1 or sym.startswith("["):
        return (-exp, exp, -exp)
    if sym.startswith("a_"):
        return (-2 * exp, 2 * exp, -2 * exp)
    raise ValueError(f"unknown unit symbol {sym!r}")


@lru_cache(maxsize=None)  # a word's degree; the words are those of the field presentations
def unit_word_degree(units):
    """The (s, f, w) of a unit word, the sum of its symbols' degrees."""
    s = f = w = 0
    for sym, exp in units:
        ds, df, dw = _unit_degree(sym, exp)
        s += ds
        f += df
        w += dw
    return s, f, w


class TriDegree(NamedTuple):
    s: int
    f: int
    w: int

    def __add__(self, other: "TriDegree") -> "TriDegree":
        return TriDegree(self.s + other.s, self.f + other.f, self.w + other.w)


def d_shift(r: int) -> TriDegree:
    """Tridegree shift of the page-r differential: slices jump by r."""
    return TriDegree(-1, 2 * r + 1, 0)


class _MonomialFields(NamedTuple):
    coeff2: int
    iota: int
    h1: int
    v1: int
    tau: int
    units: tuple


class Monomial(_MonomialFields):
    """A named generator: 2-power coefficient times a symbol word.

    units is a sorted tuple of (symbol, exponent) pairs over the field's
    alphabet; v1 stores the literal (even) exponent of v1.
    """

    __slots__ = ()

    def __new__(cls, coeff2=0, iota=0, h1=0, v1=0, tau=0, units=()):
        assert v1 % 2 == 0, "v1 appears only in even powers"
        # words of length < 2 are sorted; the full check also rejects non-tuples
        assert (len(units) < 2 and type(units) is tuple) or tuple(sorted(units)) == units
        return tuple.__new__(cls, (coeff2, iota, h1, v1, tau, units))

    def degree(self) -> TriDegree:
        _, iota, h1, v1, tau, units = self
        s, f, w = unit_word_degree(units)  # the TriDegree below skips its Python __new__
        return tuple.__new__(TriDegree, (s + h1 + 2 * v1 - iota, f + h1 + iota, w + h1 + v1 - tau))

    def with_coeff2(self, m: int) -> "Monomial":
        # the word is unchanged, so the checks of __new__ still hold
        return tuple.__new__(Monomial, (m,) + self[1:])

    def sort_key(self):
        return (self.iota, self.units, self.v1, self.h1, self.tau, self.coeff2)

    def text(self) -> str:
        parts = []
        if self.coeff2:
            parts.append(str(1 << self.coeff2))
        if self.iota:
            parts.append("iota")
        for sym, exp in self.units:
            parts.append(sym if exp == 1 else f"{sym}^{exp}")
        if self.v1:
            parts.append(f"v1^{self.v1}")
        if self.h1:
            parts.append("h1" if self.h1 == 1 else f"h1^{self.h1}")
        if self.tau:
            parts.append("tau" if self.tau == 1 else f"tau^{self.tau}")
        return " ".join(parts) if parts else "1"

    def __repr__(self):
        return f"<{self.text()}>"


ONE = Monomial()


class Generator(tuple):
    """Formal sum of monomials naming one cyclic summand: the tuple of its terms."""

    __slots__ = ()

    def __new__(cls, terms=(ONE,)):
        return tuple.__new__(cls, terms)

    @staticmethod
    def of(*monos: Monomial) -> "Generator":
        if len(monos) == 1:
            return tuple.__new__(Generator, monos)
        return tuple.__new__(Generator, sorted(monos, key=Monomial.sort_key))

    lead = property(itemgetter(0))

    def degree(self) -> TriDegree:
        degs = {m.degree() for m in self}
        if len(degs) != 1:
            raise ValueError(f"inhomogeneous generator {self}")
        return degs.pop()

    def is_single(self) -> bool:
        return len(self) == 1

    def text(self) -> str:
        return " + ".join(m.text() for m in self)

    def sort_key(self):
        return tuple(m.sort_key() for m in self)

    def __repr__(self):
        return f"<{self.text()}>"


class _CyclicSummandFields(NamedTuple):
    order: int
    gen: Generator
    degree: TriDegree


class CyclicSummand(_CyclicSummandFields):
    """Z (order 0, read 2-locally) or Z/2^e, with a named generator."""

    __slots__ = ()

    def __new__(cls, order, gen, degree):
        assert order == 0 or (order & (order - 1)) == 0
        assert order != 1, "trivial summands are dropped, not stored"
        return tuple.__new__(cls, (order, gen, degree))

    def order_text(self) -> str:
        return "Z" if self.order == 0 else f"Z/{self.order}"

    def text(self) -> str:
        return f"{self.order_text()}{{{self.gen.text()}}}"

    def __repr__(self):
        return self.text()

