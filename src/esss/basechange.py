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

Every first-page map is read from one table, engine's _images, keyed by
(source field, target field, tridegree): per source kq generator, the
sparse column ((target kq index, coefficient), ...) of its image, held as
exact tuples of ints.  Equal pairs and columns are interned in engine's
_pairs, so the collector stops tracking a new entry at the first collection
it survives; table and interning go with engine's first-page tables.
engine._L_map reads its entries for L; the commutation check and compare_e2
apply the columns directly.  Both comparisons decide injectivity with
homalg.is_injective on the stacked rows of all targets: on first pages a
map of groups, decided by two ranks; on second pages first-page cycles read
modulo each target's boundaries, decided by the kernel lattice, so no
target's second page is presented.
"""
from __future__ import annotations

from typing import NamedTuple

from .engine import (Page, _images, _is_L, _kq_degree, _L_map, _pairs, page1_basis,
                     page1_d1)
from .fields import FieldId
from .groups import TriDegree, d_shift
from .homalg import composite_failure, is_injective


def _unit_image(src: FieldId, dst: FieldId, units):
    """Image of a unit word as an F2 list of target unit words, or []."""
    pair = (src.kind, dst.kind)
    if pair not in (("fq", "c"), ("qq", "c"), ("r", "c"), ("q", "r"), ("q", "q2"), ("q", "qq")):
        raise ValueError(f"unsupported base change {src.text()} -> {dst.text()}")
    if units == ():
        return [()]
    syms = dict(units)
    if pair == ("q", "r"):
        return [units] if set(syms) == {"rho"} else []
    if pair == ("q", "q2"):
        if set(syms) == {"rho"}:
            return [units] if syms["rho"] <= 2 else []
        if set(syms) in ({"pi"}, {"[2]"}):
            return [(("pi", 1),)]
        if len(syms) == 1:
            (sym,) = syms
            if sym.startswith("[") and sym != "[2]":
                return {1: [], 3: [(("rho", 1),), (("u", 1),)],
                        5: [(("u", 1),)], 7: [(("rho", 1),)]}[int(sym[1:-1]) % 8]
            if sym.startswith("a_"):
                return [(("rho", 2),)]
    if pair == ("q", "qq"):
        p = dst.q
        if set(syms) == {"rho"}:
            return [units] if p % 4 == 3 and syms["rho"] == 1 else []
        if set(syms) == {f"[{p}]"}:
            return [(("pi", 1),)]
        if set(syms) in ({f"a_{p}"}, {f"[{p}]", "u"}, {f"[{p}]", "rho"}):
            return [tuple(sorted(((dst.x_symbol, 1), ("pi", 1))))]
    # over the closures only the empty word survives
    return []


def _kq_images(src: FieldId, dst: FieldId, deg: TriDegree):
    """Per source kq column at deg, ((target kq index, coefficient), ...) of its image.

    Words are matched on lead[1:], the lead monomial without its coefficient.
    """
    key = (src, dst, deg)
    hit = _images.get(key)
    if hit is None:
        index = {cs.gen.lead[1:]: i for i, cs in enumerate(_kq_degree(dst, deg))}
        cols = []
        for cs in _kq_degree(src, deg):
            lead = cs.gen.lead
            targets = (index.get(lead[1:5] + (units,)) for units in _unit_image(src, dst, lead.units))
            pairs = [(t, 1 << lead.coeff2) for t in targets if t is not None]
            col = tuple(_pairs.setdefault(p, p) for p in pairs)
            cols.append(_pairs.setdefault(col, col))
        # stored after the reads above, which empty _images when a ninth field arrives
        hit = _images[key] = tuple(cols)
    return hit


def _map_columns(src, dst, spectrum, deg):
    """The first-page comparison map at deg as sparse columns."""
    if not _is_L(spectrum):
        return _kq_images(src, dst, deg)
    def kq_entries(d):
        return ((t, j, c) for j, col in enumerate(_kq_images(src, dst, d)) for t, c in col)
    cols = [[] for _ in page1_basis(src, spectrum, deg)]
    for i, j, x in _L_map(src, dst, deg, deg, kq_entries):
        cols[j].append((i, x))
    return cols


def _row_dicts(cols, n_rows):
    """The rows {column: nonzero entry} of the n_rows-row matrix with sparse columns cols."""
    rows = [{} for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i, x in col:
            if x:
                rows[i][j] = x
    return rows


class ComparisonReport(NamedTuple):
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
    injective, commutes = {}, {}
    names = [dst.text() for dst in dst_list]
    excluded = dict.fromkeys(names, 0)
    for deg in degrees:
        src_basis = page1_basis(src, spectrum, deg)
        # _leaks only ever excludes a single-term source
        leads = [scs.gen.lead if scs.gen.is_single() else None for scs in src_basis]
        stacked, tgt_orders = [], []
        for dst, name in zip(dst_list, names):
            here = _map_columns(src, dst, spectrum, deg)
            tgt_basis = page1_basis(dst, spectrum, deg)
            stacked.extend(_row_dicts(here, len(tgt_basis)))
            tgt_orders.extend(cs.order for cs in tgt_basis)
            checked = [j for j, lead in enumerate(leads)
                       if lead is None or not _leaks(src, dst, lead)]
            excluded[name] += len(src_basis) - len(checked)
            commutes[(name, deg)] = _commutes_with_d1(
                src, dst, spectrum, deg, checked, here,
                _map_columns(src, dst, spectrum, deg + d_shift(1)))
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


def _commutes_with_d1(src, dst, spectrum, deg, checked, here, up) -> bool:
    """up d1 = d1 here modulo the target orders, on the checked sources.

    here and up are the sparse columns of the comparison map at deg and
    deg + d_shift(1); both sides are summed entry by entry into one
    {(target, source): difference} table.
    """
    orders = [cs.order for cs in page1_basis(dst, spectrum, deg + d_shift(1))]
    diff = {}
    for k, row in enumerate(page1_d1(src, spectrum, deg)):
        for i, x in up[k]:
            for j in checked:
                if row[j]:
                    diff[i, j] = diff.get((i, j), 0) + x * row[j]
    d_dst = page1_d1(dst, spectrum, deg)
    for j in checked:
        for t, x in here[j]:
            for i, row in enumerate(d_dst):
                if row[t]:
                    diff[i, j] = diff.get((i, j), 0) - row[t] * x
    return not any(v % orders[i] if orders[i] else v for (i, _), v in diff.items())


def compare_e2(src: FieldId, dst_list, spectrum: str,
               src_page: Page, dst_pages, degrees) -> ComparisonReport:
    """Injectivity of the product comparison map on second pages.

    A combination of source classes dies exactly when its first-page image
    is a boundary in every target, so per degree one is_injective call
    reads the stacked rows [image of each class | incoming d1] of all
    targets, the d1 columns as sources of order 1.  A target whose second
    page is zero at the degree adds no condition.  Raises ValueError where
    an image is not a cycle: then the map is not one of second pages.
    """
    injective = {}
    for deg in degrees:
        dd = src_page.data.get(deg)
        if dd is None or not dd.summands:
            injective[deg] = True
            continue
        src_orders = [cs.order for cs in dd.summands]
        stacked, tgt_orders = [], []
        back = TriDegree(deg.s + 1, deg.f - 3, deg.w)  # deg - d_shift(1)
        for dst, dpage in zip(dst_list, dst_pages):
            if deg not in dpage.data:
                continue
            cols = _map_columns(src, dst, spectrum, deg)
            images = [{} for _ in dd.history]
            for img, hist in zip(images, dd.history):
                for col, h in zip(cols, hist):
                    for t, c in col if h else ():
                        img[t] = img.get(t, 0) + c * h
            basis = page1_basis(dst, spectrum, deg)
            rows = _row_dicts([img.items() for img in images], len(basis))
            d_out = [{j: x for j, x in enumerate(r) if x} for r in page1_d1(dst, spectrum, deg)]
            up = [cs.order for cs in page1_basis(dst, spectrum, deg + d_shift(1))]
            if composite_failure(rows, d_out, up) is not None:
                raise ValueError(f"{src.text()} -> {dst.text()} sends a second-page class "
                                 f"off the cycles at {deg}")
            # the incoming d1's columns follow the sources stacked so far
            for row, d_row in zip(rows, page1_d1(dst, spectrum, back)):
                row.update((j, x) for j, x in enumerate(d_row, len(src_orders)) if x)
            src_orders += [1] * len(page1_basis(dst, spectrum, back))
            stacked.extend(rows)
            tgt_orders.extend(cs.order for cs in basis)
        injective[deg] = is_injective(stacked, src_orders, tgt_orders)
    return ComparisonReport(src, spectrum, 2, injective, {}, {})
