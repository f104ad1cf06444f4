"""First pages, page turning and collapse certification.

Pages are stored per tridegree; the weight is preserved by every
differential, so all computations slice cleanly over w.  The first page of
L is built from the first page of kq as kernel plus shifted cokernel of
psi^3 - 1; test_dual_construction_of_L_first_page checks it against the
direct slice-by-slice construction of tests/reference.slices_L.  Every
map on it is the one _L_map induces from a kq map (restriction to the
kernel, induced map on the cokernel): its differential from the kq
differential, and the comparison maps of basechange from the kq
comparison maps.

First-page entries are computed once and held in one table per field for
at most eight fields: five dicts, four keyed by degree and the memo of
rules.d1_shifts by signature; basechange's comparison columns are in
_images.  Equal degrees, summands, tuples, rows and matrices are one object
across fields: one intern dict per record type, as groups forbids mixing
record and tuple keys; _d1_L induces each L differential once per distinct
input.  A ninth field empties every table, intern dict and memo (_clear).

The first page is generated from closed formulas, so build_page1 pads the
requested window by one differential's reach and the second page is exact
on the full request.  Further pages shrink the window: page r+1 loses one
stem on each side and 2r+1 rows of filtration.  So every degree of a page
has its target, and the source that hits it, on the page it was turned from,
and every differential is a list of rows, empty where the target is zero.

Turning a page takes homalg.homology_group of each distinct complex once.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from .homalg import homology_group
from .numthy import nu2
from .rules import d1_matrix
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
                f0 = max(self.f_min + (self.f_min + s) % 2, max(0, 2 * w) - s)  # s + f >= 0, 2w
                for f in range(f0, self.f_max + 1, 2):
                    yield tuple.__new__(TriDegree, (s, f, w))  # as TriDegree(s, f, w)

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
    """A window or a run holds less than the caller asks of it."""


class DegreeData(NamedTuple):
    summands: list  # page 1 shares the cached tuples of page1_basis: read only
    # page >= 2: expressions of the new generators over the previous page; page 1: ()
    history: list
    # int rows interned in _rows, the list in _matrices, shared: read only;
    # one row per summand of the target, which shrink keeps in the window
    diff: list


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
_tables, _degrees, _summands, _pairs, _images, _rows, _matrices, _induced = ({} for _ in range(8))


def _clear():
    """Empties every table, intern dict and memo together: no id key outlives its object."""
    for held in (_tables, _degrees, _summands, _pairs, _images, _rows, _matrices, _induced):
        held.clear()


def _table(field: FieldId):
    """The field's table, made on first use; past _MAX_FIELDS every table goes."""
    if field not in _tables and len(_tables) == _MAX_FIELDS:
        _clear()
    return _tables.setdefault(field, ({}, {}, {}, {}, {}))


def _per_field(slot: int):
    """Computes each (field, deg) entry once, into dict `slot` of the field's
    table under the interned degree.  Callers that already hold the table read
    its dicts and call the entry only on a miss."""
    def cached(build):
        def entry(field: FieldId, deg: TriDegree):
            held = (_tables.get(field) or _table(field))[slot]
            hit = held.get(deg)
            if hit is None:
                deg = _degrees.setdefault(deg, deg)
                hit = held[deg] = build(field, deg)
            return hit
        return entry
    return cached


def _shared(rows):
    """The one list in _matrices of the matrix's content, its rows in _rows."""
    rows = [_rows.setdefault(tuple(row), row) for row in rows]
    return _matrices.setdefault(tuple(map(id, rows)), rows)


@_per_field(0)
def _kq_degree(field: FieldId, deg: TriDegree):
    basis = e1_kq_basis(field, deg)
    return tuple(map(_summands.setdefault, basis, basis))


@_per_field(1)
def _L_degree(field: FieldId, deg: TriDegree):
    """Kernel and shifted-cokernel classes of psi^3 - 1 at one tridegree.

    psi^3 - 1 is diagonal on the first page of kq, each entry d a 2-power
    or 0, so the splitting is summand by summand in closed form: on Z/o
    (o = 0 for Z) the kernel is Z/gcd(d, o), generated by o / gcd(d, o)
    times the kq class (none on Z unless d = 0), the cokernel Z/gcd(d, o).
    """
    kq, up = _tables[field][0], tuple.__new__(TriDegree, (deg.s + 1, deg.f - 1, deg.w))
    kq_here = kq[deg] if deg in kq else _kq_degree(field, deg)
    kq_up = kq[up] if up in kq else _kq_degree(field, up)
    if not kq_here and not kq_up:
        return (), (), ()  # a constant: every such entry is this one tuple
    summands, vectors = [], []
    for i, (cs, d) in enumerate(zip(kq_here, psi3_entries(field, kq_here))):
        if cs.order == 0 and d:
            continue
        order = gcd(d, cs.order)
        mult = cs.order // order if order else 1
        if mult > 1:  # else the kernel is the whole kq summand, interned already
            mono = cs.gen.lead.with_coeff2(cs.gen.lead.coeff2 + mult.bit_length() - 1)
            cs = CyclicSummand(order, Generator.of(mono), deg)
            cs = _summands.setdefault(cs, cs)
        summands.append(cs)
        vectors.append(_pairs.setdefault((i, mult), (i, mult)))
    for i, (cs, d) in enumerate(zip(kq_up, psi3_entries(field, kq_up))):
        lead = cs.gen[0]  # the iota class, built as with_coeff2 and Generator.of do
        gen = tuple.__new__(Generator, (tuple.__new__(Monomial, (lead[0], 1) + lead[2:]),))
        cs = CyclicSummand(gcd(d, cs.order), gen, deg)
        summands.append(_summands.setdefault(cs, cs))
        vectors.append(_pairs.setdefault((i, 1), (i, 1)))
    # kernel classes first; vectors are sparse: (ambient kq index, multiplier)
    parts = ("K",) * (len(summands) - len(kq_up)) + ("C",) * len(kq_up)
    vectors = tuple(vectors)
    return tuple(summands), _pairs.setdefault(parts, parts), _pairs.setdefault(vectors, vectors)


@_per_field(2)
def _d1_kq(field: FieldId, deg: TriDegree):
    kq, tgt = _tables[field][0], tuple.__new__(TriDegree, (deg.s - 1, deg.f + 3, deg.w))
    return _shared(d1_matrix(field, kq.get(deg) or _kq_degree(field, deg),
                             kq.get(tgt) or _kq_degree(field, tgt), _tables[field][4]))


def _L_map(src, dst, deg, tgt, kq_entries, source, target):
    """The map a kq map induces on L's first page, from (src, deg) to (dst, tgt),
    whose _L_degree entries are source and target.

    kq_entries(d) gives the nonzero entries of the kq map from src at d to
    dst at d + (tgt - deg), as (target kq index, source kq index, value).
    Yields the map's entries in that order, as (row, column, value) over the
    L classes of dst at tgt and of src at deg.  Kernel classes read the map
    at deg, cokernel classes one stem up; with a diagonal psi^3 - 1 both are
    componentwise 2-power shifts, and a kernel class must land in the kernel.
    """
    (s_sum, s_part, s_vec), (t_sum, t_part, t_vec) = source, target
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
    """L's page-1 differential at deg in the K/C bases, induced by _L_map from the
    kq d1s it reads (at deg, a stem up) once per _induced key: ids, target orders."""
    (kq, L, d1), (s, f, w) = _tables[field][:3], deg  # neighbours skip TriDegree's frame
    tgt = tuple.__new__(TriDegree, (s - 1, f + 3, w))
    up = tuple.__new__(TriDegree, (s + 1, f - 1, w))
    source, target = L.get(deg) or _L_degree(field, deg), L.get(tgt) or _L_degree(field, tgt)
    # `or` calls an entry on a miss or for an empty kq basis; a kq d1 _L_map reads is nonempty
    here = "K" in source[1] and (kq.get(tgt) or _kq_degree(field, tgt)) and (
        d1.get(deg) or _d1_kq(field, deg))
    there = "C" in source[1] and "C" in target[1] and (d1.get(up) or _d1_kq(field, up))
    key = (id(source[1]), id(source[2]), id(target[1]), id(target[2]), id(here), id(there),
           *[cs.order for cs in target[0]])
    if key not in _induced:
        def kq_entries(d):
            return ((a, j, x) for a, row in enumerate(here if d == deg else there)
                    for j, x in enumerate(row) if x)
        rows = [[0] * len(source[0]) for _ in target[0]]
        for i, j, x in _L_map(field, field, deg, tgt, kq_entries, source, target):
            rows[i][j] = x
        _induced[key] = _shared(rows)
    return _induced[key]


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
    is_L, table = _is_L(spectrum), _table(field)
    bases, basis, d1s, d1 = ((table[1], _L_degree, table[3], _d1_L) if is_L
                             else (table[0], _kq_degree, table[2], _d1_kq))
    padded = window.pad(1, 3)
    data = {}
    for deg in padded.degrees():
        summands = bases[deg] if deg in bases else basis(field, deg)
        if is_L:
            summands = summands[0]
        if summands:
            data[deg] = DegreeData(summands, (), d1s[deg] if deg in d1s else d1(field, deg))
    return Page(field, spectrum, 1, padded, data)


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
    summands, history, turned = {}, {}, {}
    for deg in new_window.degrees():
        dd = page.data.get(deg)
        if dd is None:
            continue
        src = page.data.get(TriDegree(deg.s + 1, deg.f - (2 * r + 1), deg.w))
        in_m = src.diff if src else [()] * len(dd.summands)
        orders = [tuple(cs.order for cs in summ) for summ in (
            src.summands if src else (), dd.summands, page.summands(deg + shift))]
        # interned matrices: equal complexes have equal ids (no source: the orders)
        key = (src and id(in_m), id(dd.diff), *orders)
        H = turned[key] = turned.get(key) or homology_group(
            [{j: x for j, x in enumerate(row) if x} for row in in_m], orders[0],
            [{k: x for k, x in enumerate(row) if x} for row in dd.diff], *orders[1:])
        if H.orders:
            summands[deg] = [CyclicSummand(order, _name_from_vector(vec, dd.summands), deg)
                             for order, vec in zip(H.orders, H.gens)]
            history[deg] = [tuple(vec) for vec in H.gens]
    rules = [rule for rule in higher_rules if rule.page == r + 1]
    data = {deg: DegreeData(summ, history[deg], _rule_diff(r + 1, rules, summands, deg))
            for deg, summ in summands.items()}
    return Page(page.field, page.spectrum, r + 1, new_window, data)


def _rule_diff(r: int, rules, summands: dict, deg: TriDegree):
    """The page-r differential at deg from explicit rules, as dense rows
    interned in _rows: one row per summand at deg + d_shift(r), so none
    where that target leaves the window."""
    tgt_sum = summands.get(deg + d_shift(r), ())
    rows = [[0] * len(summands[deg]) for _ in tgt_sum]
    if rules and tgt_sum:
        index = {cs.gen.lead.with_coeff2(0): i for i, cs in enumerate(tgt_sum)}
        for j, cs in enumerate(summands[deg]):
            for rule in rules:
                if cs.gen.lead.with_coeff2(0) != rule.source.with_coeff2(0):
                    continue
                t = index.get(rule.target.with_coeff2(0))
                if t is not None:
                    order, x = tgt_sum[t].order, rows[t][j] + rule.coefficient
                    rows[t][j] = x % order if order else x
    return _shared(rows)


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
    the page's window.

    A d_r with r >= page.r runs from (s, f, w) to (s - 1, f + 2r + 1, w);
    f - s has one parity on the page, so such a pair exists exactly when
    the top nonzero f at (s - 1, w) is f + 2 page.r + 1 or more."""
    top = {}
    for deg in page.data:
        top[deg.s, deg.w] = max(deg.f, top.get((deg.s, deg.w), deg.f))
    return all(top.get((deg.s - 1, deg.w), deg.f) < deg.f + 2 * page.r + 1
               for deg in page.data)


class RunResult(NamedTuple):
    pages: list
    einf: Page | None
    certificate: CollapseCertificate | None
    status: str  # "Einf" | "E{r} only"


def run(field: FieldId, spectrum: str, window: PageWindow,
        rules: list | None = None, want_einf: bool = True) -> RunResult:
    """Iterate pages until a collapse certificate holds or data runs out.

    Only pairs of _CITED_COLLAPSE collapse.  Over the 2-adic rationals the
    citation decides at once; the other pairs try computed degree vanishing
    first and fall back on their citation.  rules are those of a parsed rule
    file (None: no file), and a rule file, even an empty one, drops every
    citation.  Degree vanishing sees only the window, so uncited pairs
    ((R, kq), (R, L), (Q, L)) stop where their rules end, and with
    want_einf=False every pair also stops at the last page its window holds.
    """
    key = (field.kind, spectrum)
    citation = _CITED_COLLAPSE.get(key) if rules is None else None
    rules = rules or ()
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
