"""Comparison maps between first and second pages over different bases.

Each supported extension or completion pair acts on generator names by a
symbol substitution (an F2 combination of target symbols).  The maps over
the rationals carry each place-indexed block to its designated completion:
the [p]/a_p block to the p-adic page, the pi block to the 2-adic page, the
rho block to the real page.  Those identifications are what the engine
verifies: injectivity per tridegree where claimed, and commutation with
the first differential.

The maps commute with psi^3 - 1 (they preserve integral cells and the
multiplier depends only on the slice), so they act on the kernel and
cokernel parts of the L pages block by block.
"""
from __future__ import annotations

from dataclasses import dataclass

from .engine import Page, _d1_kq, _d1_L, _kq_degree, _L_degree
from .fields import FieldId
from .groups import Monomial, TriDegree, d_shift
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


def monomial_image(src: FieldId, dst: FieldId, mono: Monomial):
    out = []
    for units in _unit_image(src, dst, mono.units):
        out.append(Monomial(coeff2=mono.coeff2, iota=mono.iota, h1=mono.h1,
                            v1=mono.v1, tau=mono.tau, units=units))
    return out


def _kq_map_matrix(src: FieldId, dst: FieldId, deg: TriDegree):
    src_basis = list(_kq_degree(src, deg))
    tgt_basis = list(_kq_degree(dst, deg))
    index = {cs.gen.lead.with_coeff2(0): i for i, cs in enumerate(tgt_basis)}
    M = [[0] * len(src_basis) for _ in range(len(tgt_basis))]
    for j, cs in enumerate(src_basis):
        for img in monomial_image(src, dst, cs.gen.lead):
            t = index.get(img.with_coeff2(0))
            if t is not None:
                M[t][j] += 1 << img.coeff2
    return M


def _L_map_matrix(src: FieldId, dst: FieldId, deg: TriDegree):
    """The induced map on kernel-plus-shifted-cokernel generators.

    The splitting is componentwise over the ambient kq classes, so the
    coordinates are plain 2-power shifts and reductions.
    """
    s_sum, s_part, s_vec = _L_degree(src, deg)
    t_sum, t_part, t_vec = _L_degree(dst, deg)
    M = [[0] * len(s_sum) for _ in range(len(t_sum))]
    if not s_sum or not t_sum:
        return M
    up = TriDegree(deg.s + 1, deg.f - 1, deg.w)
    for part, amb_deg in (("K", deg), ("C", up)):
        rows = {t_vec[i][0]: i for i, p in enumerate(t_part) if p == part}
        cols = [j for j, p in enumerate(s_part) if p == part]
        if not rows or not cols:
            continue
        kq_map = _kq_map_matrix(src, dst, amb_deg)
        amb_orders = [cs.order for cs in _kq_degree(dst, amb_deg)]
        for j in cols:
            sidx, mult = s_vec[j]
            for amb, i in rows.items():
                v = kq_map[amb][sidx] * mult
                if amb_orders[amb]:
                    v %= amb_orders[amb]
                if v == 0:
                    continue
                if part == "K":
                    shift = t_vec[i][1].bit_length() - 1
                    assert v % (1 << shift) == 0, (src, dst, deg)
                    c = v >> shift
                else:
                    c = v
                if t_sum[i].order:
                    c %= t_sum[i].order
                M[i][j] = c
    return M


def page1_map_matrix(src, dst, spectrum, deg):
    return (_kq_map_matrix if spectrum == "kq" else _L_map_matrix)(src, dst, deg)


def _page1_basis(field, spectrum, deg):
    if spectrum == "kq":
        return list(_kq_degree(field, deg))
    return list(_L_degree(field, deg)[0])


def _d1(field, spectrum, deg):
    return (_d1_kq if spectrum == "kq" else _d1_L)(field, deg)


@dataclass
class ComparisonReport:
    src: FieldId
    spectrum: str
    page: int
    injective: dict        # deg -> bool (product map per tridegree)
    commutes: dict         # (dst text, deg) -> bool

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
    for deg in degrees:
        src_basis = _page1_basis(src, spectrum, deg)
        stacked = []
        tgt_orders = []
        for dst in dst_list:
            M = page1_map_matrix(src, dst, spectrum, deg)
            stacked.extend(M)
            tgt_orders.extend(cs.order for cs in _page1_basis(dst, spectrum, deg))
            commutes[(dst.text(), deg)] = _commutes_with_d1(src, dst, spectrum, deg,
                                                            src_basis, M)
        if not src_basis:
            injective[deg] = True
            continue
        if not stacked:
            stacked = [[0] * len(src_basis)]
            tgt_orders = [2]
        injective[deg] = is_injective(stacked, [cs.order for cs in src_basis], tgt_orders)
    return ComparisonReport(src, spectrum, 1, injective, commutes)


def _entry(M, i, j):
    if i < len(M) and j < len(M[i]):
        return M[i][j]
    return 0


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


def _commutes_with_d1(src, dst, spectrum, deg, src_basis, M_here) -> bool:
    """M_tgt d1 = d1 M_here modulo the target orders, off the _leaks sources.

    src_basis and M_here are the source basis and the comparison matrix at deg.
    """
    tgt_deg = deg + d_shift(1)
    M_tgt = page1_map_matrix(src, dst, spectrum, tgt_deg)
    tgt_basis = _page1_basis(dst, spectrum, tgt_deg)
    lhs = mat_mul(M_tgt, _d1(src, spectrum, deg))
    rhs = mat_mul(_d1(dst, spectrum, deg), M_here)
    checked = [j for j, scs in enumerate(src_basis)
               if not (scs.gen.is_single() and _leaks(src, dst, scs.gen.lead))]
    for i, cs in enumerate(tgt_basis):
        for j in checked:
            diff = _entry(lhs, i, j) - _entry(rhs, i, j)
            if (diff % cs.order if cs.order else diff) != 0:
                return False
    return True


def compare_e2(src: FieldId, dst_list, spectrum: str,
               src_page: Page, dst_pages, degrees) -> ComparisonReport:
    """Injectivity of the product comparison map on second pages."""
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
            t_orders = [cs.order for cs in tdd.summands] if tdd else []
            t_vectors = [list(v) for v in tdd.history] if tdd else []
            boundary_deg = TriDegree(deg.s + 1, deg.f - 3, deg.w)
            dmat = _d1(dst, spectrum, boundary_deg)
            b_cols = [[dmat[row][col] for row in range(len(dmat))]
                      for col in range(len(dmat[0]) if dmat else 0)]
            amb_orders = [cs.order for cs in _page1_basis(dst, spectrum, deg)]
            group = StructuredGroup(t_orders, t_vectors)
            rows = [[0] * len(dd.summands) for _ in range(len(t_orders))]
            for j, hist in enumerate(dd.history):
                img = mat_vec(M, list(hist))
                coords = express_in_group(group, amb_orders, img, modulo_cols=b_cols)
                assert coords is not None, (src.text(), dst.text(), deg)
                for i, c in enumerate(coords):
                    rows[i][j] = c
            stacked.extend(rows)
            tgt_orders_all.extend(t_orders)
        src_orders = [cs.order for cs in dd.summands]
        if not stacked:
            stacked = [[0] * len(dd.summands)]
            tgt_orders_all = [2]
        injective[deg] = is_injective(stacked, src_orders, tgt_orders_all)
    return ComparisonReport(src, spectrum, 2, injective, {})
