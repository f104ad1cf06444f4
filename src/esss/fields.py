"""Base field identifiers and their presentations of pi_**(HZ/2).

Supported bases: algebraically closed fields, finite fields F_q (q an odd
prime power), q-adic rationals for odd primes q, the 2-adic rationals, the
reals, and the rationals with a finite prime support set (2 always
included).  FieldId is an immutable tuple record, so hashing, equality and
construction run in C.  Caveat: like every esss record (see groups) it
equals the plain tuple of its fields, FieldId("c") == ("c", None, None), so
no dict or set may mix FieldId keys with plain-tuple keys.

A field enters the mod-2 algebra only through its presentation: the basis
unit words of pi_**(HZ/2) per stem, multiplication by rho (each product
of a basis word with rho is one basis word or zero), the mod-2 reduction
of the integral unit words that are not themselves basis words, and the
symbol alphabet.  The coefficients, the d1 rules and the rule-file parser
read this record; none of them tests the kind for the mod-2 algebra.
"""
from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

from .numthy import OddPrimePower, odd_prime_base


class _FieldIdFields(NamedTuple):
    kind: str  # "c" | "fq" | "qq" | "q2" | "r" | "q"
    q: int | None
    support: tuple | None


class FieldId(_FieldIdFields):
    __slots__ = ()

    def __new__(cls, kind, q=None, support=None):
        if kind not in ("c", "fq", "qq", "q2", "r", "q"):
            raise ValueError(f"unknown field kind {kind!r}")
        if (q is None) == (kind in ("fq", "qq")):
            raise ValueError(f"q is {'required' if q is None else 'meaningless'} for {kind}")
        if support is not None and kind != "q":
            raise ValueError(f"a support set is meaningless for {kind}")
        if kind == "fq":
            OddPrimePower(q)  # validates
        elif kind == "qq" and odd_prime_base(q) != q:
            # completions are taken at primes, not prime powers
            raise ValueError(f"Q_q requires an odd prime, got {q}")
        elif kind == "q":
            if not support:
                raise ValueError("Q needs a nonempty prime support set")
            support = tuple(sorted(set(support)))
            if 2 not in support:
                raise ValueError("the support set over Q must contain 2")
            for p in support:
                if p != 2 and odd_prime_base(p) != p:
                    raise ValueError(f"the support set over Q takes primes, not {p}")
        return tuple.__new__(cls, (kind, q, support))

    @property
    def x_symbol(self) -> str:
        """The Milnor unit class of F_q / Q_q: u for q = 1 (4), rho otherwise."""
        return "u" if self.q % 4 == 1 else "rho"

    def odd_support(self):
        return tuple(p for p in self.support if p != 2)

    def text(self) -> str:
        return {
            "c": "Fbar",
            "fq": f"F{self.q}",
            "qq": f"Q{self.q}",
            "q2": "Q2",
            "r": "R",
            "q": "Q(" + ",".join(map(str, self.support or ())) + ")",
        }[self.kind]

    def __repr__(self):
        return self.text()


ALG_CLOSED = FieldId("c")
REALS = FieldId("r")
Q2 = FieldId("q2")


def Fq(q: int) -> FieldId:
    return FieldId("fq", q=q)


def Qq(q: int) -> FieldId:
    return FieldId("qq", q=q)


def Q(support) -> FieldId:
    return FieldId("q", support=tuple(support))


def parse_field(name: str, q: int | None = None, support=None) -> FieldId:
    """A field from its CLI name; q and support go to FieldId, which rejects
    them on the kinds that take none."""
    kind = {"fbar": "c", "closed": "c"}.get(name.lower(), name.lower())
    if kind == "q" and support is None:
        support = (2, 3, 5, 7)
    return FieldId(kind, q=q, support=support)


class Presentation(NamedTuple):
    """pi_**(HZ/2) of one field; shared through presentation()'s cache."""

    stems: MappingProxyType  # stem -> basis unit words, in generator order
    rho_tower: bool  # rho^e is a basis word of every stem -e < 0 (R and Q)
    rho: MappingProxyType  # word -> word * rho, for the words off the tower
    reduction: MappingProxyType  # integral word -> its mod-2 basis word
    alphabet: frozenset  # every unit symbol a class name may carry


@lru_cache(maxsize=64)
def presentation(field: FieldId) -> Presentation:
    kind = field.kind
    pi, rho = (("pi", 1),), (("rho", 1),)
    stems = {0: [()]}
    rho_map, reduction = {}, {}
    if kind in ("fq", "qq"):
        x = ((field.x_symbol, 1),)
        stems[-1] = [x]
        if x == rho:
            rho_map[()] = rho
        if kind == "qq":
            # Z/2[tau, pi, x]/(x^2, pi^2 + x pi); the basis of stem -1 is x, pi
            stems[-1].append(pi)
            stems[-2] = [tuple(sorted(x + pi))]
            if x == rho:
                rho_map[pi] = stems[-2][0]
    elif kind == "q2":
        # Z/2[tau, pi, u, rho]/(rho^3, u^2, pi^2, rho u, rho pi, rho^2 + u pi)
        stems[-1] = [pi, rho, (("u", 1),)]
        stems[-2] = [(("rho", 2),)]
        rho_map = {(): rho, rho: stems[-2][0]}
    elif kind == "q":
        # a_p is normalized to restrict to rho^2 at the dyadic place and to
        # zero over the reals (Hilbert reciprocity fixes the second nonzero
        # component); this keeps the reductions of the integral [p]-block
        # Bockstein-closed, and [p] rho = a_p exactly when p = 3 (4)
        stems[-1], stems[-2] = [(("[2]", 1),)], []
        reduction[pi] = (("[2]", 1),)
        for p in field.odd_support():
            word, a_p = ((f"[{p}]", 1),), ((f"a_{p}", 1),)
            stems[-1].append(word)
            stems[-2].append(a_p)
            reduction[word] = word
            reduction[tuple(sorted(word + ((Fq(p).x_symbol, 1),)))] = a_p
            if p % 4 == 3:
                rho_map[word] = a_p
    tower = kind in ("r", "q")
    if tower:  # its first two words; the flag states the rest
        for s in (-1, -2):
            stems[s] = sorted(stems.get(s, []) + [(("rho", -s),)])
    alphabet = {sym for words in stems.values() for word in words for sym, _ in word}
    alphabet.update(sym for word in reduction for sym, _ in word)
    return Presentation(MappingProxyType({s: tuple(w) for s, w in stems.items()}),
                        tower, MappingProxyType(rho_map),
                        MappingProxyType(reduction), frozenset(alphabet))


def rho_power_times(field: FieldId, units: tuple, e: int):
    """units * rho^e for a basis word: [the basis word it equals], or [] for 0."""
    pres = presentation(field)
    if e and pres.rho_tower and (not units or units[0][0] == "rho"):
        return [(("rho", e + (units[0][1] if units else 0)),)]
    for _ in range(e):
        units = pres.rho.get(units)
        if units is None:
            return []
    return [units]
