"""Base field identifiers and their mod-2 coefficient symbol algebra.

Supported bases: algebraically closed fields, finite fields F_q (q an odd
prime power), q-adic rationals for odd q, the 2-adic rationals, the reals,
and the rationals with a finite prime support set (2 always included).
FieldId is an immutable tuple record, so hashing, equality and
construction run in C.  Caveat: it equals the plain tuple of its fields,
FieldId("c") == ("c", None, None), so no dict or set may mix FieldId keys
with plain-tuple keys.

The only products the differential rules ever need are multiplication by a
power of rho inside pi_**(HZ/2); rho_times implements that as an F2-linear
combination of basis units, with all field relations applied.
"""
from __future__ import annotations

from typing import NamedTuple

from .numthy import OddPrimePower


class _FieldIdFields(NamedTuple):
    kind: str  # "c" | "fq" | "qq" | "q2" | "r" | "q"
    q: int | None
    support: tuple | None


class FieldId(_FieldIdFields):
    __slots__ = ()

    def __new__(cls, kind, q=None, support=None):
        if kind not in ("c", "fq", "qq", "q2", "r", "q"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "fq":
            OddPrimePower(q)  # validates
        elif kind == "qq":
            OddPrimePower(q)
            # completions are taken at primes, not prime powers
            for d in range(3, q, 2):
                if q % d == 0:
                    raise ValueError(f"Q_q requires an odd prime, got {q}")
        elif kind == "q":
            if not support:
                raise ValueError("Q needs a nonempty prime support set")
            support = tuple(sorted(set(support)))
            if 2 not in support:
                raise ValueError("the support set over Q must contain 2")
        elif support is not None or q is not None:
            raise ValueError("q/support only make sense for fq, qq, q")
        return tuple.__new__(cls, (kind, q, support))

    @property
    def residue(self) -> int:
        assert self.kind in ("fq", "qq")
        return self.q % 4

    @property
    def x_symbol(self) -> str:
        """The Milnor unit class of F_q / Q_q: u for q = 1 (4), rho otherwise."""
        return "u" if self.residue == 1 else "rho"

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
    key = name.lower()
    if key in ("c", "fbar", "closed"):
        return ALG_CLOSED
    if key == "fq":
        if q is None:
            raise ValueError("--q is required for finite fields")
        return Fq(q)
    if key == "qq":
        if q is None:
            raise ValueError("--q is required for q-adic fields")
        return Qq(q)
    if key == "q2":
        return Q2
    if key == "r":
        return REALS
    if key == "q":
        return Q(support or (2, 3, 5, 7))
    raise ValueError(f"unknown field {name!r}")


def rho_times(field: FieldId, units: tuple):
    """units * rho in pi_**(HZ/2) as an F2 list of basis unit-tuples."""
    kind = field.kind
    if kind in ("c",):
        return []
    if kind == "fq":
        if field.residue == 1:
            return []
        return [(("rho", 1),)] if units == () else []
    if kind == "qq":
        if field.residue == 1:
            return []
        # Z/2[tau, pi, rho]/(rho^2, rho pi + pi^2): basis 1, rho, pi, pi rho
        if units == ():
            return [(("rho", 1),)]
        if units == (("pi", 1),):
            return [(("pi", 1), ("rho", 1))]
        return []
    if kind == "q2":
        # Z/2[tau,pi,u,rho]/(rho^3, u^2, pi^2, rho u, rho pi, rho^2 + u pi)
        if units == ():
            return [(("rho", 1),)]
        if units == (("rho", 1),):
            return [(("rho", 2),)]
        return []
    if kind == "r":
        e = units[0][1] if units else 0
        return [(("rho", e + 1),)]
    if kind == "q":
        # the symbol a_p is normalized to restrict to rho^2 at the dyadic
        # place and to zero over the reals (Hilbert reciprocity fixes the
        # second nonzero component; this choice keeps the reductions of the
        # integral [p]-block Bockstein-closed)
        if units == ():
            return [(("rho", 1),)]
        (sym, exp) = units[0]
        if sym == "rho":
            return [(("rho", exp + 1),)]
        if sym == "[2]":
            return []
        if sym.startswith("["):
            p = int(sym[1:-1])
            return [((f"a_{p}", 1),)] if p % 4 == 3 else []
        if sym.startswith("a_"):
            return []
        return []
    raise AssertionError(kind)


def rho_power_times(field: FieldId, units: tuple, e: int):
    """units * rho^e as an F2 list of basis unit-tuples (duplicates cancel)."""
    current = {units: 1}
    for _ in range(e):
        nxt = {}
        for u in current:
            for v in rho_times(field, u):
                nxt[v] = nxt.get(v, 0) ^ 1
        current = {u: 1 for u, c in nxt.items() if c}
        if not current:
            return []
    return sorted(current)
