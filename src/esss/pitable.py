"""Assembly of homotopy groups from a collapsed page, with extensions.

The filtration column over a bidegree (s, w) splits as a direct sum except
where an explicit extension rule glues two layers into one larger cyclic
group.  Extensions are only ever applied from the shipped rule families,
each an instance of a printed relation; where the engine has no rule and
more than one torsion layer is present (the 2-adic rationals, the reals,
the rationals), the entry is marked unresolved rather than guessed.
Layers are PiEntry records: gluing puts a new record, of the product order,
in the lhs layer's place and drops the partner, and the h-torsion exponent
is read off the order.  assemble_pi gives every entry of a table a status.
"""
from __future__ import annotations

from typing import NamedTuple

from .engine import Page, PageWindow, WindowError, run
from .fields import FieldId, presentation
from .groups import Generator, Monomial, TriDegree
from .numthy import NU_INFINITY


class ExtensionRule(NamedTuple):
    """lhs * multiplier = rhs, gluing the lhs layer under the rhs layer.

    promote: name the glued group by the lhs monomial with one factor of 2
    stripped (the printed generator); otherwise keep the lhs name.
    """

    matches_lhs: object     # Monomial -> bool
    rhs_of: object          # Monomial -> Monomial
    promote: bool


def _strip_unit(units, sym):
    return tuple((u, e) for u, e in units if u != sym)


def extension_rules(field: FieldId, spectrum: str):
    rules = []
    if spectrum == "L" and field.kind in ("c", "fq", "qq", "q2"):
        # over the 2-adics the relation is pulled back from the closure,
        # where the glued class detects it
        def lhs_l(m: Monomial):
            return m.iota == 1 and m.h1 == 0 and m.v1 % 4 == 2 and m.coeff2 >= 1

        def rhs_l(m: Monomial):
            return Monomial(h1=3, v1=m.v1 - 2, tau=m.tau + 1, units=m.units)

        # 4 iota v1^(4k+2) tau^i = v1^4k h1^3 tau^(i+1), in all unit multiples
        rules.append(ExtensionRule(lhs_l, rhs_l, promote=True))
    if spectrum == "kq" and field.kind in ("fq", "qq"):
        x = field.x_symbol

        def lhs_kq(m: Monomial):
            return (m.iota == 0 and m.h1 == 0 and m.v1 % 4 == 2
                    and m.coeff2 >= 1 and dict(m.units).get(x) == 1)

        def rhs_kq(m: Monomial):
            return Monomial(h1=3, v1=m.v1 - 2, tau=m.tau + 2,
                            units=_strip_unit(m.units, x))

        # the hidden h: h * 2 x v1^(4k+2) tau^i = tau^(i+2) h1^3 v1^4k
        rules.append(ExtensionRule(lhs_kq, rhs_kq, promote=False))
    return rules


class PiEntry(NamedTuple):
    order: int              # 0 for Z (2-locally)
    gen: Generator
    filtration: int
    glued: bool = False

    @property
    def h_torsion(self):
        """The exponent of the order's 2-power, NU_INFINITY for Z."""
        return NU_INFINITY if self.order == 0 else self.order.bit_length() - 1

    @property
    def name(self) -> str:
        return self.gen.text()

    def group_text(self) -> str:
        return ("Z" if self.order == 0 else f"Z/{self.order}") + "{" + self.name + "}"


class PiTable(NamedTuple):
    field: FieldId
    spectrum: str
    entries: dict           # (s, w) -> list[PiEntry]
    status: dict            # (s, w) -> "resolved" | "unresolved: ..."

    def group_text(self, s: int, w: int) -> str:
        entry = self.entries.get((s, w), [])
        if not entry:
            return "0"
        text = " + ".join(pe.group_text() for pe in entry)
        note = self.status[(s, w)]
        if note != "resolved":
            text += f"  [{note}]"
        return text

    def orders(self, s: int, w: int):
        return sorted(pe.order for pe in self.entries.get((s, w), []))


def f_bound(field: FieldId, s: int) -> int:
    """The top filtration of a class in stem s: Monomial.degree gives f - s =
    2 (coefficient stem drop) + 2 iota - 2 v1, and a rho tower has no
    lowest coefficient stem."""
    pres = presentation(field)
    if pres.rho_tower:
        raise WindowError(
            f"pi assembly over {field.text()} has unbounded filtration columns")
    return s + 2 - 2 * min(pres.stems)


def assemble_pi(einf: Page, s_range, w_range) -> PiTable:
    """Resolve the filtration columns of a certified page into groups."""
    field = einf.field
    rules = extension_rules(field, einf.spectrum)
    entries = {}
    status = {}
    for s in range(s_range[0], s_range[1] + 1):
        if not (einf.window.s_min <= s <= einf.window.s_max):
            raise ValueError(f"stem {s} outside the certified window")
        if f_bound(field, s) > einf.window.f_max:
            raise ValueError(
                f"window filtration top {einf.window.f_max} cannot certify stem {s}")
        for w in range(w_range[0], w_range[1] + 1):
            column = _column(einf, s, w, f_bound(field, s))
            if not column:
                continue
            glued = _apply_extensions(column, rules)
            entries[(s, w)] = glued
            torsion = [pe for pe in glued if pe.order != 0]
            if field.kind in ("c", "fq", "qq") or len(torsion) <= 1:
                status[(s, w)] = "resolved"
            else:
                low = max(pe.order for pe in torsion)
                high = 1
                for pe in torsion:
                    high *= pe.order
                status[(s, w)] = (f"unresolved: order ambiguous between {low} and "
                                  f"{high} (layers shown split)")
    return PiTable(field, einf.spectrum, entries, status)


def _column(einf: Page, s: int, w: int, f_top: int):
    out = []
    for f in range(max(einf.window.f_min, 0), f_top + 1):
        if (s + f) % 2:
            continue
        for cs in einf.summands(TriDegree(s, f, w)):
            out.append(PiEntry(cs.order, cs.gen, f))
    return out


def compute_pi_group(field: FieldId, spectrum: str, s: int, w: int,
                     rules: list | None = None) -> PiTable:
    """Run the engine on an automatically chosen window covering (s, w).

    rules are passed to run.  Pages 3 to R + 1, turned by rules up to d_R,
    each shrink the window (PageWindow.shrink), so it is widened by all they
    take."""
    fb = f_bound(field, s)
    r = max((rule.page for rule in rules or ()), default=1)
    window = PageWindow(s - r - 1, s + r + 1, 0, max(fb, 0) + (r + 1) ** 2 - 1, w, w)
    res = run(field, spectrum, window, rules)
    return assemble_pi(res.einf, (s, s), (w, w))


def bernoulli_witness_order(field: FieldId, k: int) -> int:
    """Largest cyclic order among the degree-(4k-1, 2k) fiber classes.

    Runs the engine on a thin window around the interesting bidegree; the
    window is tall enough to carry the gluing partner of the top slice
    cell, whose filtration is 3.
    """
    s, w = 4 * k - 1, 2 * k
    window = PageWindow(s - 2, s + 2, 0, 8, w, w)
    res = run(field, "L", window)
    glued = _apply_extensions(_column(res.einf, s, w, 5), extension_rules(field, "L"))
    best = 0
    for pe in glued:
        if pe.order and pe.gen.is_single() and pe.gen.lead.iota:
            best = max(best, pe.order)
    return best


def _apply_extensions(column, rules):
    """The column's layers, sorted by filtration and name, with each layer a
    rule matches glued under its partner layer, which leaves the column.
    One pass suffices: a partner (h1^3) never matches a rule (h1 = 0), so
    gluing only takes partners away."""
    layers = list(column)
    for rule in rules:
        for i, pe in enumerate(layers):
            if pe is None or pe.order == 0 or pe.glued or not pe.gen.is_single():
                continue
            mono = pe.gen.lead
            if not rule.matches_lhs(mono):
                continue
            target = rule.rhs_of(mono.with_coeff2(0)).with_coeff2(0)
            j = next((j for j, other in enumerate(layers)
                      if j != i and other is not None and other.order and other.gen.is_single()
                      and other.gen.lead.with_coeff2(0) == target), None)
            if j is None:
                continue
            gen = Generator.of(mono.with_coeff2(mono.coeff2 - 1)) if rule.promote else pe.gen
            layers[i] = PiEntry(pe.order * layers[j].order, gen, pe.filtration, True)
            layers[j] = None
    return sorted(filter(None, layers), key=lambda pe: (pe.filtration, pe.gen.sort_key()))
