"""Page turning, collapse certification, homotopy assembly, base change.

Pages are stored per tridegree; the weight is preserved by every
differential, so all computations slice cleanly over w.  The first page of
L is built from the first page of kq as kernel plus shifted cokernel of
psi^3 - 1; test_dual_construction_of_L_first_page checks it against the
direct slice-by-slice construction of tests/reference.slices_L.  Every
map on it is the one _L_map induces from a kq map (restriction to the
kernel, induced map on the cokernel): its differential from the kq
differential, and the comparison maps of basechange from the kq
comparison maps.

First-page entries are computed once and held in one table per field, a
tuple of four dicts keyed by degree, for at most eight fields, and the kq
comparison images of basechange in _images.  Equal degrees, summands,
pairs and image columns are one object across fields: one intern dict per
record type, as groups forbids mixing record and tuple keys.  A ninth field
empties every table and intern dict together, so no first-page data and no
interning outlives the fields it serves.

The first page is generated from closed formulas, so build_page1 pads the
requested window by one differential's reach and the second page is exact
on the full request.  Further pages shrink the window: page r+1 loses one
stem on each side and 2r+1 rows of filtration.

Turning a page splits each degree's summands into blocks, two summands
sharing a block when a source or a target of the differentials touches
both.  Where every block is one summand the homology is closed form; ties
between equal orders and larger blocks go to homalg.homology_group.  Either
way the result is homology_group's, generator vectors and their order
included.
"""
from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple

from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from .homalg import StructuredGroup, check_complex, homology_group
from .numthy import nu2
from .rules import d1_matrix, dense_rows, parse_rule_file
from .slices import e1_kq_basis, psi3_entries


class PageWindow(NamedTuple):
    s_min: int
    s_max: int
    f_min: int
    f_max: int
    w_min: int
    w_max: int

    def degrees(self):
        for w in range(self.w_min, self.w_max + 1):
            for s in range(self.s_min, self.s_max + 1):
                f0 = self.f_min + ((self.f_min + s) % 2)
                for f in range(f0, self.f_max + 1, 2):
                    if s + f >= 0 and (s + f) // 2 >= w:
                        yield TriDegree(s, f, w)

    def __contains__(self, deg):
        return (self.s_min <= deg.s <= self.s_max
                and self.f_min <= deg.f <= self.f_max
                and self.w_min <= deg.w <= self.w_max)

    def pad(self, ds, df):
        # pages carry data down to the structural floor f = 0, so incoming
        # differentials from below are never silently missing
        return PageWindow(self.s_min - ds, self.s_max + ds, 0,
                          self.f_max + df, self.w_min, self.w_max)

    def shrink(self, r):
        return PageWindow(self.s_min + 1, self.s_max - 1, self.f_min,
                          self.f_max - (2 * r + 1), self.w_min, self.w_max)

    def empty(self):
        return self.f_max < self.f_min or self.s_max < self.s_min


class WindowError(ValueError):
    """A window is not closed under the differentials a caller needs."""


class DegreeData(NamedTuple):
    summands: list  # page 1 shares the cached tuples of page1_basis: read only
    # page >= 2: expressions of the new generators over the previous page; page 1: ()
    history: list
    diff: list | None  # rows of rules.dense_rows, shared across degrees: read only


class Page(NamedTuple):
    field: FieldId
    spectrum: str
    r: int
    window: PageWindow
    data: dict

    def summands(self, deg: TriDegree):
        dd = self.data.get(deg)
        return dd.summands if dd else []

    def orders(self, deg: TriDegree):
        return sorted(cs.order for cs in self.summands(deg))


def _name_from_vector(vec, basis) -> Generator:
    terms = set()
    for c, cs in zip(vec, basis):
        if c == 0:
            continue
        m = nu2(abs(c))
        for t in cs.gen:
            terms ^= {t.with_coeff2(t.coeff2 + m)}
    if not terms:
        for c, cs in zip(vec, basis):
            if c:
                terms |= {t.with_coeff2(t.coeff2 + nu2(abs(c))) for t in cs.gen}
    assert terms, "empty generator expression"
    return Generator.of(*terms)


_MAX_FIELDS = 8
_tables = {}
_degrees, _summands, _pairs, _images = {}, {}, {}, {}


def _per_field(slot: int):
    """Computes each (field, deg) entry once, into dict `slot` of the field's
    table under the interned degree; past _MAX_FIELDS every table goes."""
    def cached(build):
        def entry(field: FieldId, deg: TriDegree):
            table = _tables.get(field)
            if table is None:
                if len(_tables) == _MAX_FIELDS:
                    for held in (_tables, _degrees, _summands, _pairs, _images):
                        held.clear()
                table = _tables[field] = ({}, {}, {}, {})
            hit = table[slot].get(deg)
            if hit is None:
                deg = _degrees.setdefault(deg, deg)
                hit = table[slot][deg] = build(field, deg)
            return hit
        return entry
    return cached


@_per_field(0)
def _kq_degree(field: FieldId, deg: TriDegree):
    return tuple(_summands.setdefault(cs, cs) for cs in e1_kq_basis(field, deg))


@_per_field(1)
def _L_degree(field: FieldId, deg: TriDegree):
    """Kernel and shifted-cokernel classes of psi^3 - 1 at one tridegree.

    psi^3 - 1 is diagonal on the first page of kq, each entry d a 2-power
    or 0, so the splitting is summand by summand in closed form: on Z/o
    (o = 0 for Z) the kernel is Z/gcd(d, o), generated by o / gcd(d, o)
    times the kq class (none on Z unless d = 0), the cokernel Z/gcd(d, o).
    """
    kq_here = _kq_degree(field, deg)
    kq_up = _kq_degree(field, TriDegree(deg.s + 1, deg.f - 1, deg.w))
    summands, parts, vectors = [], [], []
    for i, (cs, d) in enumerate(zip(kq_here, psi3_entries(field, kq_here))):
        if cs.order == 0 and d:
            continue
        order = gcd(d, cs.order)
        mult = cs.order // order if order else 1
        if mult > 1:  # else the kernel is the whole kq summand
            mono = cs.gen.lead.with_coeff2(cs.gen.lead.coeff2 + mult.bit_length() - 1)
            cs = CyclicSummand(order, Generator.of(mono), deg)
        summands.append(cs)
        parts.append("K")
        vectors.append(_pairs.setdefault((i, mult), (i, mult)))
    for i, (cs, d) in enumerate(zip(kq_up, psi3_entries(field, kq_up))):
        t = cs.gen.lead
        mono = Monomial(coeff2=t.coeff2, iota=1, h1=t.h1, v1=t.v1,
                        tau=t.tau, units=t.units)
        summands.append(CyclicSummand(gcd(d, cs.order), Generator.of(mono), deg))
        parts.append("C")
        vectors.append(_pairs.setdefault((i, 1), (i, 1)))
    # kernel classes first; vectors are sparse: (ambient kq index, multiplier)
    return tuple(_summands.setdefault(cs, cs) for cs in summands), tuple(parts), tuple(vectors)


@_per_field(2)
def _d1_kq(field: FieldId, deg: TriDegree):
    return d1_matrix(field, _kq_degree(field, deg), _kq_degree(field, deg + d_shift(1)))


def _L_map(src: FieldId, dst: FieldId, deg: TriDegree, tgt: TriDegree, kq_entries):
    """The map a kq map induces on L's first page, from (src, deg) to (dst, tgt).

    kq_entries(d) gives the nonzero entries of the kq map from src at d to
    dst at d + (tgt - deg), as (target kq index, source kq index, value).
    Yields the map's entries in that order, as (row, column, value) over the
    L classes of dst at tgt and of src at deg.  Kernel classes read the map
    at deg, cokernel classes one stem up; with a diagonal psi^3 - 1 both are
    componentwise 2-power shifts, and a kernel class must land in the kernel.
    """
    s_sum, s_part, s_vec = _L_degree(src, deg)
    t_sum, t_part, t_vec = _L_degree(dst, tgt)
    if not s_sum or not t_sum:
        return
    sk, tk = s_part.count("K"), t_part.count("K")
    for s_deg, t_deg, js, t_idx in (
            (deg, tgt, range(sk), range(tk)),
            (TriDegree(deg.s + 1, deg.f - 1, deg.w), TriDegree(tgt.s + 1, tgt.f - 1, tgt.w),
             range(sk, len(s_sum)), range(tk, len(t_sum)))):
        if not js or not _kq_degree(dst, t_deg):
            continue
        # a kernel class is m times its kq class (m = 1 for C) and m divides the
        # kq order, so v / m modulo the class's own order is the exact coordinate
        rows = {t_vec[i][0]: (i, t_vec[i][1]) for i in t_idx}
        cols = {s_vec[j][0]: (j, s_vec[j][1]) for j in js}
        for amb, idx, v in kq_entries(s_deg):
            j, mult = cols.get(idx, (None, 0))
            if j is None:  # a free kq class with no kernel class: psi^3 - 1 is injective
                continue
            i, m = rows.get(amb, (None, 1))
            v *= mult
            assert i is not None and v % m == 0, \
                f"kq map left the kernel: {src.text()} {deg} -> {dst.text()} {tgt}"
            o = t_sum[i].order
            yield i, j, (v // m % o if o else v // m)


@_per_field(3)
def _d1_L(field: FieldId, deg: TriDegree):
    """The page-1 differential of L at deg, in the K/C generator bases: the
    map _L_map induces from the entries of the kq d1 at deg and a stem up,
    read off its rows in place."""
    def kq_entries(d):
        return ((a, j, x) for a, row in enumerate(_d1_kq(field, d)) for j, x in enumerate(row) if x)
    tgt = deg + d_shift(1)
    rows = [{} for _ in _L_degree(field, tgt)[0]]
    for i, j, x in _L_map(field, field, deg, tgt, kq_entries):
        if x:
            rows[i][j] = x
    return dense_rows(len(_L_degree(field, deg)[0]), rows)


def _is_L(spectrum: str) -> bool:
    """True for L, False for kq; the one place that rejects other names."""
    if spectrum not in ("kq", "L"):
        raise ValueError(f"unknown spectrum {spectrum!r}")
    return spectrum == "L"


def page1_basis(field: FieldId, spectrum: str, deg: TriDegree):
    """First-page summands at deg: the kq classes, or the K and C classes of L."""
    if _is_L(spectrum):
        return _L_degree(field, deg)[0]
    return _kq_degree(field, deg)


def page1_d1(field: FieldId, spectrum: str, deg: TriDegree):
    """The first differential at deg, in the bases of page1_basis."""
    if _is_L(spectrum):
        return _d1_L(field, deg)
    return _d1_kq(field, deg)


def build_page1(field: FieldId, spectrum: str, window: PageWindow) -> Page:
    """The first page on a padded window, with its differential attached."""
    is_L = _is_L(spectrum)
    d1 = _d1_L if is_L else _d1_kq
    padded = window.pad(1, 3)
    data = {}
    for deg in padded.degrees():
        summands = _L_degree(field, deg)[0] if is_L else _kq_degree(field, deg)
        if summands:
            data[deg] = DegreeData(summands, (), d1(field, deg))
    return Page(field, spectrum, 1, padded, data)


def _homology(in_m, src_orders, diff, mid_orders, tgt_orders):
    """homology_group of the dense maps in_m and diff, read as rows of dicts.

    With one summand k per block and every entry 1, the kernel at k is
    generated by c e_k, c the lcm of the orders of k's targets (0 when one
    is free: no kernel); with g the gcd of k's order and entries the image
    is g Z, and the summand is Z/(lcm(c, g) / c).  The SNF lists summands
    by ascending order, free last, so only ties need its pivots.
    """
    a_rows = [{j: x for j, x in enumerate(row) if x} for row in in_m]
    b_rows = [{k: x for k, x in enumerate(row) if x} for row in diff]
    sources = [j for row in a_rows for j in row]
    if (len(sources) == len(set(sources)) and all(len(row) <= 1 for row in b_rows)
            and all(x == 1 for row in a_rows + b_rows for x in row.values())):
        check_complex(a_rows, b_rows, tgt_orders)
        c = [1] * len(mid_orders)
        for o, row in zip(tgt_orders, b_rows):
            for k in row:
                c[k] = lcm(c[k], o)
        order = {k: lcm(ck, gcd(mid_orders[k], *a_rows[k].values())) // ck
                 for k, ck in enumerate(c) if ck}
        gens = sorted((k for k, o in order.items() if o != 1),
                      key=lambda k: (order[k] == 0, order[k]))
        if len({order[k] for k in gens}) == len(gens):
            return StructuredGroup([order[k] for k in gens],
                                   [[c[k] * (a == k) for a in range(len(c))] for k in gens])
    return homology_group(a_rows, src_orders, b_rows, mid_orders, tgt_orders)


def turn_page(page: Page, higher_rules=()) -> Page:
    """Homology with respect to the page's differential; names carried over.

    The new page is built whole: first every degree's summands and history,
    then every degree's differential from the rules of higher_rules for it.
    """
    r = page.r
    shift = d_shift(r)
    new_window = page.window.shrink(r)
    if new_window.empty():
        raise WindowError(f"window exhausted turning page {r}")
    summands, history = {}, {}
    for deg in new_window.degrees():
        dd = page.data.get(deg)
        if dd is None:
            continue
        if dd.diff is None:
            raise WindowError(f"window not d-closed at {deg}")
        mid_orders = [cs.order for cs in dd.summands]
        tgt_orders = [cs.order for cs in page.summands(deg + shift)]
        src_deg = TriDegree(deg.s + 1, deg.f - (2 * r + 1), deg.w)
        src = page.data.get(src_deg)
        if src is not None and src.diff is None:
            raise WindowError(f"window not d-closed at {src_deg}")
        in_m = src.diff if src is not None else [[] for _ in dd.summands]
        src_orders = [cs.order for cs in src.summands] if src is not None else []
        H = _homology(in_m, src_orders, dd.diff, mid_orders, tgt_orders)
        if H.orders:
            summands[deg] = [CyclicSummand(order, _name_from_vector(vec, dd.summands), deg)
                             for order, vec in zip(H.orders, H.gens)]
            history[deg] = [tuple(vec) for vec in H.gens]
    rules = [rule for rule in higher_rules if rule.page == r + 1]
    data = {deg: DegreeData(summ, history[deg], _rule_diff(new_window, r + 1, rules, summands, deg))
            for deg, summ in summands.items()}
    return Page(page.field, page.spectrum, r + 1, new_window, data)


def _rule_diff(window: PageWindow, r: int, rules, summands: dict, deg: TriDegree):
    """The page-r differential at deg from explicit rules, as rules.dense_rows;
    None where its target leaves the window."""
    tgt = deg + d_shift(r)
    if tgt.f > window.f_max or tgt.s < window.s_min:
        return None
    tgt_sum = summands.get(tgt, ())
    rows = [{} for _ in tgt_sum]
    if rules and tgt_sum:
        index = {cs.gen.lead.with_coeff2(0): i for i, cs in enumerate(tgt_sum)}
        for j, cs in enumerate(summands[deg]):
            for rule in rules:
                if cs.gen.lead.with_coeff2(0) != rule.source.with_coeff2(0):
                    continue
                t = index.get(rule.target.with_coeff2(0))
                if t is not None:
                    order, x = tgt_sum[t].order, rows[t].get(j, 0) + rule.coefficient
                    rows[t][j] = x % order if order else x
    return dense_rows(len(summands[deg]), rows)


class CollapseCertificate(NamedTuple):
    field: FieldId
    spectrum: str
    kind: str  # "degree-vanishing" | "cited"
    detail: str


# one citation per pair whose collapse the source cites; certificates
# print this wording
_CITED_COLLAPSE = {
    ("q2", "kq"): "no room for further differentials over the 2-adic rationals",
    ("q2", "L"): "comparison with the eta-inverted computation over the 2-adic rationals",
    ("c", "kq"): "collapse at the second page over algebraically closed fields",
    ("c", "L"): "collapse at the second page over algebraically closed fields",
    ("fq", "kq"): "collapse for degree reasons at the second page over finite fields",
    ("fq", "L"): "no room for higher differentials over finite fields",
    ("qq", "kq"): "the finite-field collapse carried along the pi classes",
    ("qq", "L"): "the finite-field collapse carried along the pi classes",
    ("q", "kq"): "no room for longer differentials over the rationals",
}


def degree_vanishing(page: Page) -> bool:
    """No differential of any later page has nonzero source and target in
    the page's window."""
    max_r = (page.window.f_max - page.window.f_min) // 2 + 1
    nonzero = set(page.data)
    for deg in nonzero:
        for r in range(page.r, max_r + 1):
            if deg + d_shift(r) in nonzero:
                return False
    return True


class RunResult(NamedTuple):
    pages: list
    einf: Page | None
    certificate: CollapseCertificate | None
    status: str  # "Einf" | "E{r} only"


def run(field: FieldId, spectrum: str, window: PageWindow,
        rule_file: str | None = None, want_einf: bool = True) -> RunResult:
    """Iterate pages until a collapse certificate holds or data runs out.

    Only pairs of _CITED_COLLAPSE collapse.  Over the 2-adic rationals the
    citation decides at once; the other pairs try computed degree vanishing
    first and fall back on their citation.  A rule file drops every
    citation.  Degree vanishing sees only the window, so uncited pairs
    ((R, kq), (R, L), (Q, L)) stop where their rules end, and with
    want_einf=False every pair also stops at the last page its window holds.
    """
    key = (field.kind, spectrum)
    rules = () if rule_file is None else parse_rule_file(field, rule_file)
    citation = _CITED_COLLAPSE.get(key) if rule_file is None else None
    e1 = build_page1(field, spectrum, window)
    e2 = turn_page(e1, rules)
    pages = [e1, e2]
    current = e2
    while True:
        cert = None
        if field.kind == "q2" and citation is not None:
            cert = CollapseCertificate(field, spectrum, "cited", citation)
        elif key in _CITED_COLLAPSE and degree_vanishing(current):
            cert = CollapseCertificate(field, spectrum, "degree-vanishing",
                                       f"computed for pages r >= {current.r} in window")
        elif citation is not None:
            cert = CollapseCertificate(field, spectrum, "cited", citation)
        if cert is not None:
            return RunResult(pages, current, cert, "Einf")
        remaining = [rule for rule in rules if rule.page >= current.r]
        if not remaining or (not want_einf and current.window.shrink(current.r).empty()):
            status = f"E{current.r} only"
            if want_einf:
                raise WindowError(
                    f"higher differentials for {field.text()} {spectrum} beyond page "
                    f"{current.r} are external data; supply a rule file")
            return RunResult(pages, None, None, status)
        nxt = turn_page(current, rules)
        pages.append(nxt)
        current = nxt
