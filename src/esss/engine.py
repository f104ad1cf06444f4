"""Page turning, collapse certification, homotopy assembly, base change.

Pages are stored per tridegree; the weight is preserved by every
differential, so all computations slice cleanly over w.  The first page of
L is built from the first page of kq as kernel plus shifted cokernel of
psi^3 - 1, and its differential is the restriction of the kq differential
to the kernel together with the induced map on the cokernel; this is a
permanent structural feature, kept as a self-test against the direct
slice-by-slice construction.

The first page is generated from closed formulas, so build_page1 pads the
requested window by one differential's reach and the second page is exact
on the full request.  Further pages shrink the window: page r+1 loses one
stem on each side and 2r+1 rows of filtration.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from .fields import FieldId
from .groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from .homalg import homology_group
from .numthy import nu2
from .rules import d1_matrix, higher_ruleset
from .slices import e1_kq_basis, psi3_entries


@dataclass(frozen=True)
class PageWindow:
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


@dataclass
class DegreeData:
    # page 1 shares the cached tuples of page1_basis: read only
    summands: list
    # page >= 2: expressions of the new generators over the previous page
    history: list = dc_field(default_factory=list)
    diff: list | None = None


@dataclass
class Page:
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


def _diag_kernel(basis, diag):
    """Per-summand kernels of a diagonal 2-power map: (index, order, shift)."""
    out = []
    for i, cs in enumerate(basis):
        d = diag[i]
        if d == 0:
            out.append((i, cs.order, 0))
            continue
        if cs.order == 0:
            continue  # multiplication by a 2-power is injective on Z
        e = cs.order.bit_length() - 1
        a = d.bit_length() - 1
        out.append((i, 1 << min(e, a), max(e - a, 0)))
    return out


def _diag_cokernel(basis, diag):
    """Per-summand cokernels of a diagonal 2-power map: (index, order)."""
    out = []
    for i, cs in enumerate(basis):
        d = diag[i]
        if d == 0:
            out.append((i, cs.order))
        elif cs.order == 0:
            out.append((i, d))
        else:
            e = cs.order.bit_length() - 1
            a = d.bit_length() - 1
            out.append((i, 1 << min(e, a)))
    return out


@lru_cache(maxsize=None)
def _L_degree(field: FieldId, deg: TriDegree):
    """Kernel and shifted-cokernel classes of psi^3 - 1 at one tridegree.

    psi^3 - 1 is diagonal on the first page of kq, so the splitting is
    summand by summand in closed form.
    """
    kq_here = _kq_degree(field, deg)
    kq_up = _kq_degree(field, TriDegree(deg.s + 1, deg.f - 1, deg.w))
    summands, parts, vectors = [], [], []
    if kq_here:
        diag = psi3_entries(field, kq_here)
        for i, order, shift in _diag_kernel(kq_here, diag):
            cs = kq_here[i]  # an unshifted kernel is the whole kq summand
            if shift:
                mono = cs.gen.lead.with_coeff2(cs.gen.lead.coeff2 + shift)
                cs = CyclicSummand(order, Generator.of(mono), deg)
            summands.append(cs)
            parts.append("K")
            vectors.append((i, 1 << shift))
    if kq_up:
        diag = psi3_entries(field, kq_up)
        for i, order in _diag_cokernel(kq_up, diag):
            t = kq_up[i].gen.lead
            mono = Monomial(coeff2=t.coeff2, iota=1, h1=t.h1, v1=t.v1,
                            tau=t.tau, units=t.units)
            summands.append(CyclicSummand(order, Generator.of(mono), deg))
            parts.append("C")
            vectors.append((i, 1))
    # vectors are sparse: (ambient kq index, multiplier)
    return tuple(summands), tuple(parts), tuple(vectors)


@lru_cache(maxsize=None)
def _d1_kq(field: FieldId, deg: TriDegree):
    return d1_matrix(field, _kq_degree(field, deg), _kq_degree(field, deg + d_shift(1)))


@lru_cache(maxsize=None)
def _d1_L(field: FieldId, deg: TriDegree):
    """The page-1 differential of L at deg, in the K/C generator bases.

    The kernel block is the restriction of the kq differential, the
    cokernel block the induced map; with a diagonal psi^3 - 1 both reduce
    to componentwise 2-power shifts.
    """
    tgt_deg = deg + d_shift(1)
    s_sum, s_part, s_vec = _L_degree(field, deg)
    t_sum, t_part, t_vec = _L_degree(field, tgt_deg)
    M = [[0] * len(s_sum) for _ in range(len(t_sum))]
    if not s_sum or not t_sum:
        return M
    kq_tgt = _kq_degree(field, tgt_deg)
    dk = _d1_kq(field, deg)
    t_orders = [cs.order for cs in kq_tgt]
    k_rows = {}
    for i, p in enumerate(t_part):
        if p == "K":
            amb, mult = t_vec[i]
            k_rows[amb] = (i, mult.bit_length() - 1)
    if k_rows:
        for j, (p, vec) in enumerate(zip(s_part, s_vec)):
            if p != "K":
                continue
            src, mult = vec
            for amb in range(len(kq_tgt)):
                v = dk[amb][src] * mult
                if t_orders[amb]:
                    v %= t_orders[amb]
                if v == 0:
                    continue
                row = k_rows.get(amb)
                assert row is not None and v % (1 << row[1]) == 0, \
                    "kq differential left the kernel"
                i, shift = row
                c = v >> shift
                if t_sum[i].order:
                    c %= t_sum[i].order
                M[i][j] = c
    up = TriDegree(deg.s + 1, deg.f - 1, deg.w)
    c_rows = {t_vec[i][0]: i for i, p in enumerate(t_part) if p == "C"}
    if c_rows and any(p == "C" for p in s_part):
        dk_up = _d1_kq(field, up)
        for j, (p, vec) in enumerate(zip(s_part, s_vec)):
            if p != "C":
                continue
            src = vec[0]
            for amb, i in c_rows.items():
                v = dk_up[amb][src]
                if t_sum[i].order:
                    v %= t_sum[i].order
                M[i][j] = v
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
        H = homology_group(in_m, src_orders, dd.diff, mid_orders, tgt_orders)
        if not H.orders:
            continue
        summands, history = [], []
        for order, vec in zip(H.orders, H.gens):
            gen = _name_from_vector(vec, dd.summands)
            summands.append(CyclicSummand(order, gen, deg))
            history.append(tuple(vec))
        data[deg] = DegreeData(summands, history=history)
    new_page = Page(page.field, page.spectrum, r + 1, new_window, data)
    _attach_higher_diff(new_page, higher_rules)
    return new_page


def _attach_higher_diff(page: Page, higher_rules):
    """Differential matrices on a page r >= 2 from explicit rule templates."""
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


@dataclass(frozen=True)
class CollapseCertificate:
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


@dataclass
class RunResult:
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
