import gc
import hashlib
import re
import subprocess
import sys

import pytest

from esss import basechange, engine, homalg
from esss.basechange import (_commutes_with_d1, _kq_images, _map_columns, _unit_image,
                             compare_e1, compare_e2)
from esss.engine import PageWindow, _d1_L, _kq_degree, _L_degree, page1_basis, page1_d1, run
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.groups import TriDegree, d_shift
from esss.verify import HASSE_DSTS, HASSE_SRC, hasse_reports as verify_hasse_reports
from reference import isomorphic_orders, page1_map_matrix


@pytest.fixture(scope="module")
def hasse_reports():
    """compare_e1 and compare_e2 of Q(2,3,5,7) into R, Q2 and Q_3, Q_5, Q_7,
    keyed by (page, spectrum)."""
    win = PageWindow(-3, 9, 0, 9, -3, 5)
    out = {}
    for spectrum in ("kq", "L"):
        out[1, spectrum], out[2, spectrum] = verify_hasse_reports(
            spectrum, list(PageWindow(-3, 8, 0, 8, -3, 8).degrees()), win)
    return out


def test_monomial_images():
    """A monomial maps to the monomials with the same non-unit part and the
    image words of its unit word."""
    field = Q((2, 3, 5))
    assert _unit_image(field, Qq(3), (("[3]", 1),)) == [(("pi", 1),)]
    assert _unit_image(field, Q2, (("[2]", 1),)) == [(("pi", 1),)]
    assert _unit_image(field, REALS, (("rho", 2),)) == [(("rho", 2),)]
    assert _unit_image(field, REALS, (("a_3", 1),)) == []
    assert _unit_image(Fq(5), ALG_CLOSED, (("u", 1),)) == []


def test_commutation_check_rejects_a_wrong_matrix():
    """Every report commutes, so check that the check can fail: with the
    comparison map one degree up replaced by zero it must."""
    src = Q((2, 3))
    for dst, spectrum, deg in ((Q2, "kq", TriDegree(1, 1, -2)),
                               (REALS, "L", TriDegree(-2, 2, -3))):
        cols = list(range(len(page1_basis(src, spectrum, deg))))
        here = _map_columns(src, dst, spectrum, deg)
        up = _map_columns(src, dst, spectrum, deg + d_shift(1))
        assert any(up)
        assert _commutes_with_d1(src, dst, spectrum, deg, cols, here, up)
        zero = [() for _ in up]
        assert not _commutes_with_d1(src, dst, spectrum, deg, cols, here, zero)


def test_hasse_injectivity_e1(hasse_reports):
    for spectrum in ("kq", "L"):
        rep = hasse_reports[1, spectrum]
        assert rep.all_injective
        assert rep.all_commute


def test_hasse_injectivity_e2(hasse_reports):
    for spectrum in ("kq", "L"):
        rep = hasse_reports[2, spectrum]
        assert rep.all_injective


def test_first_page_maps_are_decided_by_ranks(monkeypatch):
    """Every first-page comparison map of the hasse suite is a map of groups
    with 2-power orders, so homalg decides it by ranks and never builds a
    kernel lattice.  A map that stopped being one would still get the
    right verdict from the lattice, only slowly, so this test is the check."""
    lattice, calls = homalg._lattice, []
    monkeypatch.setattr(homalg, "_lattice", lambda *args: calls.append(args) or lattice(*args))
    for spectrum in ("kq", "L"):
        rep = compare_e1(HASSE_SRC, HASSE_DSTS, spectrum, PageWindow(-3, 9, 0, 9, -3, 9).degrees())
        assert len(rep.injective) == 499 and rep.all_injective
    assert calls == []


def test_single_target_e2_verdicts_are_pinned():
    """compare_e2 into one completion at a time, on the fixture's window:
    a class that only another completion detects is in the kernel, so many
    verdicts are False.  The digest was taken when each class was solved
    for coordinates in the target's second page."""
    win = PageWindow(-3, 9, 0, 9, -3, 5)
    verdicts = []
    for spectrum in ("kq", "L"):
        spage = run(HASSE_SRC, spectrum, win, want_einf=False).pages[1]
        for dst in HASSE_DSTS:
            dpage = run(dst, spectrum, win, want_einf=False).pages[1]
            rep = compare_e2(HASSE_SRC, [dst], spectrum, spage, [dpage], list(spage.data))
            verdicts.append((spectrum, dst.text(), sorted(rep.injective.items())))
    assert False in {v for *_, items in verdicts for _, v in items}
    digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
    assert digest == "79daa12bee013378c2e8713574f70a169f9d48396e507f84470e70da3e3a8d04"


def test_e2_images_must_be_cycles(monkeypatch):
    """A planted map that sends every kq class of Q(2,3) at one degree to
    the first real class, which supports a d1, takes second-page classes
    off the cycles; compare_e2 refuses it, naming the target and degree."""
    src, deg = Q((2, 3)), TriDegree(1, 3, -1)
    win = PageWindow(-2, 5, 0, 5, -2, 2)
    spage, *dpages = [run(f, "kq", win, want_einf=False).pages[1] for f in (src, Q2, REALS)]
    assert compare_e2(src, [Q2, REALS], "kq", spage, dpages, [deg]).all_injective
    real = basechange._map_columns

    def planted(s, d, spectrum, at):
        if (d, at) == (REALS, deg):
            return [((0, 1),) for _ in page1_basis(s, spectrum, at)]
        return real(s, d, spectrum, at)

    monkeypatch.setattr(basechange, "_map_columns", planted)
    with pytest.raises(ValueError, match=re.escape(f"-> R sends") + ".*" + re.escape(str(deg))):
        compare_e2(src, [Q2, REALS], "kq", spage, dpages, [deg])


def test_hasse_reports_are_pinned(hasse_reports):
    """Every per-tridegree verdict, not just the conjunction, is exactly the
    one computed before the comparison matrices and solves were shared."""
    h = hashlib.sha256()
    for spectrum in ("kq", "L"):
        for page in (1, 2):
            rep = hasse_reports[page, spectrum]
            h.update(repr((sorted(rep.injective.items()),
                           sorted(rep.commutes.items()))).encode())
    assert h.hexdigest() == "845c16469ae9c4735c8c9b86f2e3bcdff7d648832f865e4c78cfc85891d33640"


def test_L_maps_are_pinned():
    """The d1 of L and the first-page comparison matrices of kq and L are
    exactly the ones computed when each had its own loop over the kernel
    and cokernel classes."""
    degrees = list(PageWindow(-2, 8, 0, 8, -3, 4).pad(1, 3).degrees())
    closure = [(field, ALG_CLOSED) for field in (Fq(3), Fq(5), Qq(3), REALS)]
    h = hashlib.sha256()
    for field in (ALG_CLOSED, Fq(3), Fq(9), Qq(3), Q2, REALS, HASSE_SRC):
        for deg in degrees:
            h.update(repr(_d1_L(field, deg)).encode())
    for src, dst in [(HASSE_SRC, dst) for dst in HASSE_DSTS] + closure:
        for spectrum in ("kq", "L"):
            for deg in degrees:
                h.update(repr(page1_map_matrix(src, dst, spectrum, deg)).encode())
    assert h.hexdigest() == "c702f9a60e24bd87618d377ef2b21cb6cbbe693b8187c42edf44cf6dd8bb11f6"


def test_kq_d1_is_pinned():
    """The d1 of kq, every rho component and integral reduction included, is
    exactly the one computed when a per-field table gated the rho powers and
    the mod-2 basis had its own predicate."""
    degrees = list(PageWindow(-2, 8, 0, 8, -3, 4).pad(1, 3).degrees())
    h = hashlib.sha256()
    for field in (ALG_CLOSED, Fq(3), Fq(9), Qq(3), Q2, REALS, HASSE_SRC):
        for deg in degrees:
            h.update(repr(page1_d1(field, "kq", deg)).encode())
    assert h.hexdigest() == "89395af85214161dc91f88b482f32666ce41e00f85c078733ccea0385f50fd8a"


def test_d1_over_more_fields_is_pinned():
    """The first pages of kq and L, bases and d1, over a q-adic field with
    q = 1 (4), one with q = 3 (4) and a rational support with primes above
    7: fields and the spectrum L that the kq d1 pin leaves out."""
    degrees = list(PageWindow(-2, 8, 0, 8, -3, 4).pad(1, 3).degrees())
    h = hashlib.sha256()
    for field in (Qq(5), Qq(7), Q((2, 11, 13))):
        for spectrum in ("kq", "L"):
            for deg in degrees:
                h.update(repr((page1_basis(field, spectrum, deg),
                               page1_d1(field, spectrum, deg))).encode())
    assert h.hexdigest() == "29e15eef7d87c4f5e8eae2d51df46089a1cbb555e344c73817c43e19f5025fc3"


def test_L_map_keeps_kernel_classes_in_the_kernel(monkeypatch):
    """A kq map that sends a kernel class onto a class with no kernel
    summand (the free Z{[3] v1^2}, on which psi^3 - 1 is 8) is refused."""
    src, dst, deg = Q((2, 3)), Qq(3), TriDegree(3, 1, 1)
    _, parts, vectors = _L_degree(dst, deg)
    assert _kq_degree(dst, deg)[0].order == 0
    assert 0 not in [vec[0] for p, vec in zip(parts, vectors) if p == "K"]
    assert page1_map_matrix(src, dst, "L", deg) == [[1]]
    # the table is warm now: the L columns go, so that they are rebuilt, and
    # the patch replaces the kq table, not its entries
    del engine._images[src, dst, deg, "L"]
    calls = []

    def images(s, t, d):
        calls.append(d)
        return tuple(((0, 1),) for _ in _kq_degree(s, d))

    monkeypatch.setattr(basechange, "_kq_images", images)
    with pytest.raises(AssertionError, match="left the kernel"):
        page1_map_matrix(src, dst, "L", deg)
    assert calls


TABLE_SRC, TABLE_DSTS = Q((2, 3)), [REALS, Q2, Qq(3)]
TABLE_DEGREES = list(PageWindow(-2, 5, 0, 5, -2, 5).degrees())


def _table_reports(spectrum):
    """E1 over the whole window and per degree, then E2, for Q(2,3)."""
    whole = compare_e1(TABLE_SRC, TABLE_DSTS, spectrum, TABLE_DEGREES)
    single = [compare_e1(TABLE_SRC, TABLE_DSTS, spectrum, [deg]) for deg in TABLE_DEGREES]
    win = PageWindow(-2, 5, 0, 5, -2, 2)
    pages = [run(f, spectrum, win, want_einf=False).pages[1] for f in [TABLE_SRC] + TABLE_DSTS]
    e2 = compare_e2(TABLE_SRC, TABLE_DSTS, spectrum, pages[0], pages[1:], sorted(pages[0].data))
    return whole, single, e2


def _verdicts(rep):
    return rep.injective, rep.commutes, rep.excluded


def test_window_report_is_the_union_of_degree_reports():
    """The kq image table outlives a call, so a window and one call per
    degree must read the same maps and give the same verdicts."""
    for spectrum in ("kq", "L"):
        whole, single, _ = _table_reports(spectrum)
        assert len(whole.injective) == len(TABLE_DEGREES) == len(single)
        merged = ({}, {}, dict.fromkeys(whole.excluded, 0))
        for rep in single:
            merged[0].update(rep.injective)
            merged[1].update(rep.commutes)
            for k, v in rep.excluded.items():
                merged[2][k] += v
        assert _verdicts(whole) == merged
        assert whole.all_injective and whole.all_commute


def test_cold_and_warm_table_give_the_same_reports():
    """Reports from an empty image table equal reports read from a table
    warmed by other spectra, targets and degrees first; the table holds the
    L columns next to the kq images."""
    engine._images.clear()
    cold = {sp: _table_reports(sp) for sp in ("kq", "L")}
    assert {key[3:] for key in engine._images} == {(), ("L",)}
    compare_e1(TABLE_SRC, [Qq(3), REALS], "L", PageWindow(-3, 7, 0, 7, -3, 7).degrees())
    for spectrum in ("L", "kq"):
        warm = _table_reports(spectrum)
        assert [_verdicts(r) for r in (warm[0], *warm[1], warm[2])] == \
            [_verdicts(r) for r in (cold[spectrum][0], *cold[spectrum][1], cold[spectrum][2])]


def test_map_matrix_is_a_fresh_copy():
    """A caller may write into the matrix it gets; the table stays intact."""
    src, deg = Q((2, 3)), TriDegree(1, 1, -2)
    for dst, spectrum in ((Q2, "kq"), (REALS, "L"), (Qq(3), "kq")):
        first = page1_map_matrix(src, dst, spectrum, deg)
        assert any(any(row) for row in first)
        want = [list(row) for row in first]
        for row in first:
            row[:] = [7] * len(row)
        assert page1_map_matrix(src, dst, spectrum, deg) == want


def test_cached_images_are_untracked_by_the_collector():
    """The table holds exact tuples of ints only, which a full collection
    stops tracking: a warm table costs no later collection any work.  The
    kq check builds every key read below, the L check the rest of the
    table's entries.  Emptied tables first, as a ninth field leaves them,
    so that no ninth field arrives while the four fields here build."""
    for held in (engine._tables, engine._degrees, engine._summands, engine._pairs,
                 engine._images):
        held.clear()
    for spectrum in ("kq", "L"):
        compare_e1(TABLE_SRC, TABLE_DSTS, spectrum, TABLE_DEGREES)
    gc.collect()
    entries = len(engine._images)
    keys = [(TABLE_SRC, dst, d) for dst in TABLE_DSTS for deg in TABLE_DEGREES
            for d in (deg, deg + d_shift(1))]
    values = [_kq_images(*key) for key in keys]
    assert len(engine._images) == entries
    assert all(engine._images[key] is value for key, value in zip(keys, values))
    assert any(any(col) for col in values)
    assert [v for v in values if gc.is_tracked(v)] == []


def test_image_table_is_bounded_by_the_field_tables():
    """A process that compares Q(2,p) with R, Q2 and Q_p for twelve primes,
    kq and L, holds the images of at most eight fields: R, Q2 and three
    supports with their Q_p.  A ninth field empties the image table, kq
    images and L columns alike, with the first-page tables, so every entry's
    fields are held.  One support adds 723 kq and 798 L entries on this
    window; a table that outlived the field tables held 8,676 kq entries."""
    code = """if True:
        import esss.engine as engine
        from esss.basechange import compare_e1
        from esss.engine import PageWindow
        from esss.fields import Q2, REALS, Q, Qq
        degrees = list(PageWindow(-3, 5, 0, 5, -3, 5).degrees())
        sizes, orphans = [], 0
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
            for spectrum in ("kq", "L"):
                compare_e1(Q((2, p)), [REALS, Q2, Qq(p)], spectrum, degrees)
            sizes.append(len(engine._images))
            held_L = sum(key[3:] == ("L",) for key in engine._images)
            orphans += sum(src not in engine._tables or dst not in engine._tables
                           for src, dst, *_ in engine._images)
        print(*sizes, held_L, orphans)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *sizes, held_L, orphans = map(int, proc.stdout.split())
    assert 0 < max(sizes) <= 3 * sizes[0], sizes
    assert held_L > 0, "no L columns held"
    assert orphans == 0, f"{orphans} entries of fields no table holds"


def test_excluded_sources_are_counted(hasse_reports):
    assert hasse_reports[1, "kq"].excluded["Q2"] > 0
    assert hasse_reports[2, "kq"].excluded == {}
    rep = compare_e1(Fq(3), [ALG_CLOSED], "kq", PageWindow(-3, 7, 0, 7, -3, 7).degrees())
    assert rep.excluded == {"Fbar": 0}


def test_base_change_to_closure_commutes():
    degs = list(PageWindow(-3, 7, 0, 7, -3, 7).degrees())
    for field in (Fq(3), Fq(5), Qq(3), REALS):
        rep = compare_e1(field, [ALG_CLOSED], "kq", degs)
        assert rep.all_commute, field


def test_qq_pages_are_fq_tensor():
    """First and collapsed pages over Q_q match F_q ones tensored by pi."""
    win = PageWindow(-3, 10, 0, 12, -6, 6)
    for q in (3, 5):
        for spectrum in ("kq", "L"):
            res_q = run(Qq(q), spectrum, win)
            res_f = run(Fq(q), spectrum, win)
            for pq, pf in ((res_q.pages[0], res_f.pages[0]),
                           (res_q.einf, res_f.einf)):
                for deg in pq.window.degrees():
                    up = TriDegree(deg.s + 1, deg.f - 1, deg.w + 1)
                    if up not in pf.window:
                        continue
                    want = pf.orders(deg) + pf.orders(up)
                    assert isomorphic_orders(pq.orders(deg), want), \
                        (q, spectrum, pq.r, deg)
