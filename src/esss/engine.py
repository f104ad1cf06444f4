"""Page turning, collapse certification, homotopy assembly, base change.

Pages are stored per tridegree; the weight is preserved by every
differential, so all computations slice cleanly over w.  The first page of
L is built from the first page of kq as kernel plus shifted cokernel of
psi^3 - 1, kept as a self-test against the direct slice-by-slice
construction.  Every map on it is the one _L_map induces from a kq map
(restriction to the kernel, induced map on the cokernel): its differential
from the kq differential, and the comparison maps of basechange from the
kq comparison maps.

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

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from .homalg import StructuredGroup, check_complex, homology_group
from .numthy import nu2
from .rules import d1_matrix, higher_ruleset
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


class WindowError(ValueError):
    """A window is not closed under the differentials a caller needs."""


class DegreeData:
    __slots__ = ("summands", "history", "diff")

    def __init__(self, summands: list, history: list | None = None, diff: list | None = None):
        self.summands = summands  # page 1 shares the cached tuples of page1_basis: read only
        # page >= 2: expressions of the new generators over the previous page
        self.history = [] if history is None else history
        self.diff = diff


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
        for t in cs.gen.terms:
            terms ^= {t.with_coeff2(t.coeff2 + m)}
    if not terms:
        for c, cs in zip(vec, basis):
            if c:
                terms |= {t.with_coeff2(t.coeff2 + nu2(abs(c))) for t in cs.gen.terms}
    assert terms, "empty generator expression"
    return Generator.of(*terms)


@lru_cache(maxsize=None)
def _kq_degree(field: FieldId, deg: TriDegree):
    return tuple(e1_kq_basis(field, deg.s, deg.f, deg.w))


@lru_cache(maxsize=None)
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
        vectors.append((i, mult))
    for i, (cs, d) in enumerate(zip(kq_up, psi3_entries(field, kq_up))):
        t = cs.gen.lead
        mono = Monomial(coeff2=t.coeff2, iota=1, h1=t.h1, v1=t.v1,
                        tau=t.tau, units=t.units)
        summands.append(CyclicSummand(gcd(d, cs.order), Generator.of(mono), deg))
        parts.append("C")
        vectors.append((i, 1))
    # kernel classes first; vectors are sparse: (ambient kq index, multiplier)
    return tuple(summands), tuple(parts), tuple(vectors)


@lru_cache(maxsize=None)
def _d1_kq(field: FieldId, deg: TriDegree):
    return d1_matrix(field, _kq_degree(field, deg), _kq_degree(field, deg + d_shift(1)))


def _L_map(src: FieldId, dst: FieldId, deg: TriDegree, tgt: TriDegree, kq_col):
    """The map a kq map induces on L's first page, from (src, deg) to (dst, tgt).

    kq_col(d) gives, per kq class of src at d, its image under the kq map
    as ((index among the kq classes of dst at d + (tgt - deg), coefficient),
    ...).  Yields the map's entries column by column, as (row, column,
    value) over the L classes of dst at tgt and of src at deg.  Kernel
    classes read the map at deg, cokernel classes one stem up; with a
    diagonal psi^3 - 1 both are componentwise 2-power shifts, and a kernel
    class must land in the kernel.
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
        images = kq_col(s_deg)
        for j in js:
            idx, mult = s_vec[j]
            for amb, v in images[idx]:
                i, m = rows.get(amb, (None, 1))
                v *= mult
                assert i is not None and v % m == 0, \
                    f"kq map left the kernel: {src.text()} {deg} -> {dst.text()} {tgt}"
                o = t_sum[i].order
                yield i, j, (v // m % o if o else v // m)


@lru_cache(maxsize=None)
def _d1_L(field: FieldId, deg: TriDegree):
    """The page-1 differential of L at deg, in the K/C generator bases."""
    def kq_col(d):
        return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*_d1_kq(field, d))]
    tgt = deg + d_shift(1)
    M = [[0] * len(_L_degree(field, deg)[0]) for _ in _L_degree(field, tgt)[0]]
    for i, j, x in _L_map(field, field, deg, tgt, kq_col):
        M[i][j] = x
    return M


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
    _is_L(spectrum)
    padded = window.pad(1, 3)
    data = {}
    for deg in padded.degrees():
        summands = page1_basis(field, spectrum, deg)
        if summands:
            data[deg] = DegreeData(summands, diff=page1_d1(field, spectrum, deg))
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
    """Homology with respect to the page's differential; names carried over."""
    r = page.r
    shift = d_shift(r)
    new_window = page.window.shrink(r)
    if new_window.f_max < new_window.f_min or new_window.s_max < new_window.s_min:
        raise WindowError(f"window exhausted turning page {r}")
    data = {}
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
            data[deg] = DegreeData([CyclicSummand(order, _name_from_vector(vec, dd.summands), deg)
                                    for order, vec in zip(H.orders, H.gens)],
                                   history=[tuple(vec) for vec in H.gens])
    new_page = Page(page.field, page.spectrum, r + 1, new_window, data)
    _attach_higher_diff(new_page, higher_rules)
    return new_page


def _attach_higher_diff(page: Page, higher_rules):
    """Differential matrices on a page r >= 2 from explicit rules."""
    shift = d_shift(page.r)
    applicable = [rule for rule in higher_rules if rule.page == page.r]
    for deg, dd in page.data.items():
        tgt = deg + shift
        if tgt.f > page.window.f_max or tgt.s < page.window.s_min:
            dd.diff = None
            continue
        tgt_sum = page.summands(tgt)
        M = [[0] * len(dd.summands) for _ in range(len(tgt_sum))]
        if applicable and tgt_sum:
            index = {cs.gen.lead.with_coeff2(0): i for i, cs in enumerate(tgt_sum)}
            for j, cs in enumerate(dd.summands):
                for rule in applicable:
                    if cs.gen.lead.with_coeff2(0) != rule.source.with_coeff2(0):
                        continue
                    t = index.get(rule.target.with_coeff2(0))
                    if t is not None:
                        M[t][j] += rule.coefficient
                        if tgt_sum[t].order:
                            M[t][j] %= tgt_sum[t].order
        dd.diff = M


class CollapseCertificate(NamedTuple):
    field: FieldId
    spectrum: str
    kind: str  # "degree-vanishing" | "cited"
    detail: str


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

    2-adic collapse is certified by citation (criterion of the worked
    examples); everywhere else the engine certifies by computed degree
    vanishing first and only falls back to a citation.
    """
    hr = higher_ruleset(field, spectrum, rule_file)
    e1 = build_page1(field, spectrum, window)
    e2 = turn_page(e1, hr.rules)
    pages = [e1, e2]
    current = e2
    while True:
        cert = None
        if field.kind == "q2" and hr.certificate is not None:
            cert = CollapseCertificate(field, spectrum, "cited", hr.certificate)
        elif degree_vanishing(current):
            cert = CollapseCertificate(field, spectrum, "degree-vanishing",
                                       f"computed for pages r >= {current.r} in window")
        elif hr.certificate is not None:
            cert = CollapseCertificate(field, spectrum, "cited", hr.certificate)
        if cert is not None:
            return RunResult(pages, current, cert, "Einf")
        remaining = [rule for rule in hr.rules if rule.page >= current.r]
        if not remaining:
            status = f"E{current.r} only"
            if want_einf:
                raise WindowError(
                    f"higher differentials for {field.text()} {spectrum} beyond page "
                    f"{current.r} are external data; supply a rule file")
            return RunResult(pages, None, None, status)
        nxt = turn_page(current, hr.rules)
        pages.append(nxt)
        current = nxt
