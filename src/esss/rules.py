"""Generator-level first-differential rules for the slice spectral sequence.

Every class on the first page lives on a slice cell h1^a v1^(2k) carrying a
coefficient class tau^j * mu.  The differential into the next slice has at
most three components, uniform across the supported bases:

  * a tau-shift component into the h1^(a+3) v1^(2k-2) cell, firing when k
    is odd;
  * a rho^2 component into the h1^(a+1) v1^(2k) cell, firing when j = 2, 3
    mod 4 (k even) or j = 1, 2 mod 4 (k odd), only over bases where rho^2
    survives;
  * a rho^4 component into the h1^(a-1) v1^(2k+2) cell, firing when j = 3
    mod 4 and a >= 1, only over bases with rho^4; with a = 1 it lands on
    2-torsion of the integral cell.

Each component moves (a, 2k, j) by a fixed shift and carries a target word,
so d1_shifts states d1 once per signature (a = 0, k mod 2, j mod 4, mu) and
d1_matrix shifts each class by the entry of its caller's memo.  The rho
components multiply mu through the field's presentation
(fields.presentation) with every relation of the base field, so no kind is
tested here; over finite fields and the odd q-adics only the tau shift
remains.  On the fiber spectrum L, d1 is this one on the kernel of psi^3 - 1
plus the map induced on the cokernel (iota classes).

Higher differentials are never invented: this module states none, and
which pairs collapse by citation is engine's table.  A user-supplied file
gives literal rules in the line format

    d{r}: <source> -> <coefficient> <target> # <provenance>

where source and target are single monomials, never empty (the unit is
`1`), whose unit words are basis words of the field on their cells, and the
target sits at source + d_shift(r).  A line that breaks either, carries an
`if` condition or is not UTF-8 text is rejected, not loaded to match
nothing.  The page number r is ASCII digits; the coefficient, 1 if left
out, is ASCII digits with an optional minus sign.
"""
from __future__ import annotations

from typing import NamedTuple

from .coefficients import mod2_stem_units, reduce_integral_units
from .fields import FieldId, presentation, rho_power_times
from .groups import Monomial, d_shift, unit_word_degree


def d1_shifts(field: FieldId, integral: bool, k_odd: int, tau_mod4: int, units: tuple):
    """d1 of the E1(kq) classes of one signature (integral cell, k odd, j mod 4, word),
    as ((dh1, dv1, dtau, target word), ...): each component is a fixed shift."""
    if integral:
        units = reduce_integral_units(field, units)
        if units is None:
            return ()
    out = []
    if k_odd:
        out.append((3, -2, 1, units))
    if tau_mod4 in ((1, 2) if k_odd else (2, 3)):
        out.extend((1, 0, -1, u2) for u2 in rho_power_times(field, units, 2))
    if tau_mod4 == 3 and not integral:
        out.extend((-1, 2, -3, u4) for u4 in rho_power_times(field, units, 4))
    return tuple(out)


def d1_components(field: FieldId, mono: Monomial):
    """d1 of one E1(kq) basis monomial as target Monomials, each of order 2
    except the rho^4 component with a = 1, which hits integral 2-torsion."""
    assert mono.iota == 0 and mono.coeff2 == 0 and mono.tau >= 0
    a, e, j = mono.h1, mono.v1, mono.tau
    return [Monomial(h1=a + dh, v1=e + dv, tau=j + dt, units=word)
            for dh, dv, dt, word in d1_shifts(field, a == 0, e >> 1 & 1, j & 3, mono.units)]


def d1_matrix(field: FieldId, src_basis, tgt_basis, shifts: dict):
    """The first differential as a dense integer matrix between two tridegrees;
    shifts, kept by the caller, memoizes d1_shifts by signature for this field."""
    if not tgt_basis:
        return []
    index = {cs.gen.lead: t for t, cs in enumerate(tgt_basis)}
    rows = [[0] * len(src_basis) for _ in tgt_basis]
    for jcol, cs in enumerate(src_basis):
        coeff2, iota, a, e, j, units = cs.gen.lead
        assert iota == 0 and coeff2 == 0 and j >= 0
        signature = (a == 0, e >> 1 & 1, j & 3, units)
        moves = shifts.get(signature)
        if moves is None:
            moves = shifts[signature] = d1_shifts(field, *signature)
            d1_components(field, cs.gen.lead)  # the checks of its target Monomials
        for dh, dv, dt, word in moves:  # the key tuple equals the target Monomial
            t = index.get((0, 0, a + dh, e + dv, j + dt, word))
            order = tgt_basis[t].order if t is not None else 0
            if order:  # each component adds the element of order 2 of its target
                rows[t][jcol] = (rows[t][jcol] + (order >> 1)) % order
    return rows


class HigherRule(NamedTuple):
    page: int
    source: Monomial
    target: Monomial
    coefficient: int
    provenance: str


class RuleFileError(ValueError):
    pass


def _ascii_int(token: str, lineno: int) -> int:
    if not token.isascii():
        raise RuleFileError(f"line {lineno}: coefficient {token!r} is not ASCII digits")
    return int(token)


def _parse_monomial(text: str, lineno: int, field: FieldId) -> Monomial:
    """A monomial whose word is a basis word on its cell: a mod-2 word for h1 > 0;
    for h1 = 0 a reduction table key, or a mod-2 word that no key reduces to.
    The coefficient, h1, v1, tau and iota appear at most once, exponents are
    ASCII digits and v1's is even."""
    pres = presentation(field)
    kwargs = {}
    units = []
    for token in text.split():
        if token.isdecimal():
            n = _ascii_int(token, lineno)
            if n == 0 or n & (n - 1):
                raise RuleFileError(f"line {lineno}: coefficient {n} is not a power of 2")
            sym, exp = "coeff2", n.bit_length() - 1
        elif token == "iota":
            sym, exp = "iota", 1
        else:
            sym, caret, exp = token.partition("^")
            if caret and not (exp.isascii() and exp.isdecimal()):
                raise RuleFileError(f"line {lineno}: bad exponent in {token!r}")
            exp = int(exp) if caret else 1
            if sym not in ("h1", "v1", "tau"):
                if sym not in pres.alphabet:
                    raise RuleFileError(f"line {lineno}: unknown symbol {sym!r}")
                units.append((sym, exp))
                continue
        if sym in kwargs:
            name = "coefficient" if sym == "coeff2" else sym
            raise RuleFileError(f"line {lineno}: more than one {name} in {text.strip()!r}")
        kwargs[sym] = exp
    if kwargs.get("v1", 0) % 2:
        raise RuleFileError(f"line {lineno}: odd power of v1 in {text.strip()!r}")
    mono = Monomial(units=tuple(sorted(units)), **kwargs)
    word, reduction = mono.units, pres.reduction
    mod2 = word in mod2_stem_units(field, unit_word_degree(word)[0])
    ok = mod2 if mono.h1 else word in reduction or (mod2 and word not in reduction.values())
    if not ok:
        cell = "a mod-2" if mono.h1 else "an integral"
        raise RuleFileError(f"line {lineno}: {Monomial(units=word).text()} is no basis "
                            f"word of {field.text()} in {cell} cell")
    return mono


def parse_rule_file(field: FieldId, path: str):
    """Line format: d{r}: <source> -> <coeff> <target> # <provenance>."""
    rules = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise RuleFileError(f"line {lineno}: not UTF-8 text") from None
            if not line or line.startswith("#"):
                continue
            if "#" not in line:
                raise RuleFileError(f"line {lineno}: missing provenance comment")
            body, _, provenance = line.partition("#")
            provenance = provenance.strip()
            if not provenance:
                raise RuleFileError(f"line {lineno}: empty provenance")
            head, _, rest = body.partition(":")
            head = head.strip()
            if not head.startswith("d") or not (head[1:].isascii() and head[1:].isdecimal()):
                raise RuleFileError(f"line {lineno}: bad page marker {head!r}")
            page = int(head[1:])
            if page < 2:
                raise RuleFileError(f"line {lineno}: external rules start at d2")
            src, arrow, tgt = rest.partition("->")
            if not arrow:
                raise RuleFileError(f"line {lineno}: missing ->")
            if "if" in body.split():
                raise RuleFileError(f"line {lineno}: conditions ('if') are not supported")
            for side, text in (("source", src), ("target", tgt)):
                if not text.strip():
                    raise RuleFileError(f"line {lineno}: empty {side}")
            tgt_tokens = tgt.strip().split()
            coeff = 1
            if tgt_tokens[0].removeprefix("-").isdecimal():
                coeff = _ascii_int(tgt_tokens.pop(0), lineno)
            if coeff == 0:
                raise RuleFileError(f"line {lineno}: target coefficient 0")
            source = _parse_monomial(src, lineno, field)
            target = _parse_monomial(" ".join(tgt_tokens), lineno, field)
            if target.degree() != source.degree() + d_shift(page):
                raise RuleFileError(f"line {lineno}: the target is not at source + d_shift({page})")
            rules.append(HigherRule(page, source, target, coeff, provenance))
    return rules
