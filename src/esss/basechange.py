"""Comparison maps between first and second pages over different bases.

Each supported extension or completion pair acts on generator names by a
symbol substitution (an F2 combination of target symbols).  The maps over
the rationals carry each place-indexed block to its designated completion:
the [p]/a_p block to the p-adic page, the pi block to the 2-adic page, the
rho block to the real page.  Those identifications are what the engine
verifies: injectivity per tridegree where claimed, and commutation with
the first differential.

The maps commute with psi^3 - 1 (they preserve integral cells and the
multiplier depends only on the slice), so on the L pages they are the maps
engine._L_map induces on the kernel and cokernel parts.

Comparison matrices are built from per-column images of the kq basis, and
compare_e2 solves each (degree, target) against one factorisation.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .engine import Page, _is_L, _kq_degree, _L_map, page1_basis, page1_d1
from .fields import FieldId
from .groups import TriDegree, d_shift
from .homalg import StructuredGroup, express_in_group, is_injective, mat_mul, mat_vec


def _unit_image(src: FieldId, dst: FieldId, units):
    """Image of a unit word as an F2 list of target unit words, or []."""
    pair = (src.kind, dst.kind)
    if pair in (("fq", "c"), ("qq", "c"), ("r", "c")):
        return [()] if units == () else []
    if pair == ("q", "r"):
        if units == ():
            return [()]
        if len(units) != 1:
            return []
        (sym, exp) = units[0]
        if sym == "rho":
            return [(("rho", exp),)]
        return []
    if pair == ("q", "q2"):
        if units == ():
            return [()]
        syms = dict(units)
        if set(syms) == {"rho"}:
            e = syms["rho"]
            return [(("rho", e),)] if e <= 2 else []
        if set(syms) in ({"pi"}, {"[2]"}):
            return [(("pi", 1),)]
        if len(syms) == 1:
            (sym,) = syms
            if sym.startswith("[") and sym != "[2]":
                p = int(sym[1:-1])
                return {1: [], 3: [(("rho", 1),), (("u", 1),)],
                        5: [(("u", 1),)], 7: [(("rho", 1),)]}[p % 8]
            if sym.startswith("a_"):
                return [(("rho", 2),)]
        return []
    if pair == ("q", "qq"):
        p = dst.q
        x = dst.x_symbol
        if units == ():
            return [()]
        syms = dict(units)
        if set(syms) == {"rho"}:
            if p % 4 == 3 and syms["rho"] == 1:
                return [(("rho", 1),)]
            return []
        if set(syms) == {f"[{p}]"}:
            return [(("pi", 1),)]
        if set(syms) == {f"a_{p}"}:
            return [tuple(sorted(((x, 1), ("pi", 1))))]
        if set(syms) in ({f"[{p}]", "u"}, {f"[{p}]", "rho"}):
            return [tuple(sorted(((x, 1), ("pi", 1))))]
        return []
    raise ValueError(f"unsupported base change {src.text()} -> {dst.text()}")


def _kq_images(src: FieldId, dst: FieldId, deg: TriDegree):
    """Per source kq column at deg, {target kq index: coefficient} of its image.

    Words are matched on lead[1:], the lead monomial without its coefficient.
    """
    index = {cs.gen.lead[1:]: i for i, cs in enumerate(_kq_degree(dst, deg))}
    cols = []
    for cs in _kq_degree(src, deg):
        lead = cs.gen.lead
        col = {}
        for units in _unit_image(src, dst, lead.units):
            t = index.get(lead[1:5] + (units,))
            if t is not None:
                col[t] = col.get(t, 0) + (1 << lead.coeff2)
        cols.append(col)
    return cols


def _kq_map_matrix(src: FieldId, dst: FieldId, deg: TriDegree):
    M = [[0] * len(_kq_degree(src, deg)) for _ in _kq_degree(dst, deg)]
    for j, col in enumerate(_kq_images(src, dst, deg)):
        for t, c in col.items():
            M[t][j] = c
    return M


def page1_map_matrix(src, dst, spectrum, deg):
    """The first-page comparison matrix at deg, in the bases of page1_basis."""
    if _is_L(spectrum):
        return _L_map(src, dst, deg, deg, partial(_kq_images, src, dst))
    return _kq_map_matrix(src, dst, deg)


@dataclass
class ComparisonReport:
    src: FieldId
    spectrum: str
    page: int
    injective: dict        # deg -> bool (product map per tridegree)
    commutes: dict         # (dst text, deg) -> bool
    excluded: dict         # dst text -> sources _leaks kept out of `commutes`

    @property
    def all_injective(self):
        return all(self.injective.values())

    @property
    def all_commute(self):
        return all(self.commutes.values())


def compare_e1(src: FieldId, dst_list, spectrum: str, degrees) -> ComparisonReport:
    """Injectivity of the product comparison map and d1-commutation on E1."""
    injective = {}
    commutes = {}
    excluded = {dst.text(): 0 for dst in dst_list}
    for deg in degrees:
        src_basis = page1_basis(src, spectrum, deg)
        stacked = []
        tgt_orders = []
        for dst in dst_list:
            M = page1_map_matrix(src, dst, spectrum, deg)
            stacked.extend(M)
            tgt_orders.extend(cs.order for cs in page1_basis(dst, spectrum, deg))
            checked = [j for j, scs in enumerate(src_basis)
                       if not (scs.gen.is_single() and _leaks(src, dst, scs.gen.lead))]
            excluded[dst.text()] += len(src_basis) - len(checked)
            commutes[(dst.text(), deg)] = _commutes_with_d1(
                src, dst, spectrum, deg, checked, M,
                page1_map_matrix(src, dst, spectrum, deg + d_shift(1)))
        injective[deg] = is_injective(stacked, [cs.order for cs in src_basis], tgt_orders)
    return ComparisonReport(src, spectrum, 1, injective, commutes, excluded)


def _leaks(src: FieldId, dst: FieldId, mono) -> bool:
    """Sources excluded from the commutation check for this pair.

    Each block over the rationals commutes into its designated completion:
    the odd-prime blocks into their own q-adic pages, the real block's free
    integral part into the real page (its targets survive dyadically while
    the sources vanish there).  The dyadic check therefore covers exactly
    the pi/[2]/rho classes that the designated map carries.
    """
    if src.kind == "q" and dst.kind in ("qq", "q2"):
        if mono.h1 == 0 and mono.units == () and mono.tau >= 1:
            return True
        if dst.kind == "q2":
            for sym, _ in mono.units:
                if sym.startswith("a_") or (sym.startswith("[") and sym != "[2]"):
                    return True
    return False


def _commutes_with_d1(src, dst, spectrum, deg, checked, M_here, M_tgt) -> bool:
    """M_tgt d1 = d1 M_here modulo the target orders, on the checked sources.

    M_here and M_tgt are the comparison matrices at deg and deg + d_shift(1).
    """
    tgt_basis = page1_basis(dst, spectrum, deg + d_shift(1))
    lhs = mat_mul(M_tgt, page1_d1(src, spectrum, deg))
    rhs = mat_mul(page1_d1(dst, spectrum, deg), M_here)
    # a row is empty where an inner dimension is 0: the product is zero there
    for cs, l_row, r_row in zip(tgt_basis, lhs, rhs):
        for j in checked:
            diff = (l_row[j] if l_row else 0) - (r_row[j] if r_row else 0)
            if (diff % cs.order if cs.order else diff) != 0:
                return False
    return True


def compare_e2(src: FieldId, dst_list, spectrum: str,
               src_page: Page, dst_pages, degrees) -> ComparisonReport:
    """Injectivity of the product comparison map on second pages.

    Per target, every source class is solved against one factorisation.
    """
    injective = {}
    for deg in degrees:
        dd = src_page.data.get(deg)
        if dd is None or not dd.summands:
            injective[deg] = True
            continue
        stacked = []
        tgt_orders_all = []
        for dst, dpage in zip(dst_list, dst_pages):
            M = page1_map_matrix(src, dst, spectrum, deg)
            tdd = dpage.data.get(deg)
            group = StructuredGroup([cs.order for cs in tdd.summands] if tdd else [],
                                    tdd.history if tdd else ())
            # quotient by the image of d1 from deg - d_shift(1)
            dmat = page1_d1(dst, spectrum, TriDegree(deg.s + 1, deg.f - 3, deg.w))
            b_cols = [list(col) for col in zip(*dmat)]
            amb_orders = [cs.order for cs in page1_basis(dst, spectrum, deg)]
            imgs = [mat_vec(M, hist) for hist in dd.history]
            cols = express_in_group(group, amb_orders, imgs, modulo_cols=b_cols)
            assert None not in cols, (src.text(), dst.text(), deg)
            stacked.extend(map(list, zip(*cols)))
            tgt_orders_all.extend(group.orders)
        injective[deg] = is_injective(stacked, [cs.order for cs in dd.summands], tgt_orders_all)
    return ComparisonReport(src, spectrum, 2, injective, {}, {})
