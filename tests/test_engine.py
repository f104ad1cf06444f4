import collections
import itertools
import random
import subprocess
import sys
from operator import mul

import pytest

import esss.engine as engine
import esss.homalg as homalg
import reference
from esss.coefficients import coeff_classes
from esss.engine import (DegreeData, Page, PageWindow, WindowError, build_page1,
                         degree_vanishing, page1_basis, page1_d1, run, turn_page)
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from esss.rules import d1_components, parse_rule_file
from esss.verify import HASSE_DSTS, HASSE_SRC
from reference import isomorphic_orders, page1_map_matrix, slices_L


WIN = PageWindow(-3, 12, 0, 14, -6, 7)


def test_kq_closed_field_einf_spots():
    res = run(ALG_CLOSED, "kq", WIN)
    assert res.status == "Einf"
    assert res.certificate.kind == "degree-vanishing"
    e = res.einf
    assert [cs.text() for cs in e.summands(TriDegree(4, 0, 2))] == ["Z{2 v1^2}"]
    assert e.summands(TriDegree(3, 3, 2)) == []
    assert [cs.text() for cs in e.summands(TriDegree(3, 3, 3))] == ["Z/2{h1^3}"]
    assert [cs.text() for cs in e.summands(TriDegree(8, 0, 4))] == ["Z{v1^4}"]
    assert e.summands(TriDegree(5, 1, 3)) == []


def test_L_closed_field_e1_spots():
    page = build_page1(ALG_CLOSED, "L", WIN)
    assert [cs.text() for cs in page.summands(TriDegree(-1, 1, 0))] == ["Z{iota}"]
    assert [cs.text() for cs in page.summands(TriDegree(3, 1, 2))] == ["Z/8{iota v1^2}"]


def test_L_f3_e1_spot():
    page = build_page1(Fq(3), "L", WIN)
    assert [cs.text() for cs in page.summands(TriDegree(3, 1, 2))] == ["Z/8{iota v1^2}"]


def test_dual_construction_of_L_first_page():
    """Orders from the slice formula agree with kernel + shifted cokernel."""
    for field in (ALG_CLOSED, Fq(3), Fq(5), Qq(3), Q2):
        page = build_page1(field, "L", PageWindow(-2, 8, 0, 10, -5, 5))
        for deg in page.window.degrees():
            c = (deg.s + deg.f) // 2
            direct = []
            for cell in slices_L(c):
                for cs in coeff_classes(field, cell.modulus,
                                        deg.s - cell.stem, deg.w - c):
                    direct.append(cs.order)
            assert isomorphic_orders(page.orders(deg), direct), (field, deg)


def test_green_differential_firing_pattern():
    """The kernel-family differential fires exactly when s_q(i) <= nu2(k)+3."""
    from esss.engine import _d1_L, _L_degree
    from esss.numthy import nu2, s_q

    for q in (3, 5, 9):
        field = Fq(q)
        for k in (1, 2, 3):
            for i in range(0, 8):
                deg_mono_w = 2 * k - 1 - i
                deg = TriDegree(4 * k - 1, 1, deg_mono_w)
                summands, parts, _ = _L_degree(field, deg)
                idx = [t for t, cs in enumerate(summands)
                       if parts[t] == "K" and cs.gen.lead.units
                       and cs.gen.lead.tau == i]
                if not idx:
                    continue
                M = _d1_L(field, deg)
                fired = any(M[r][idx[0]] % 2 for r in range(len(M)))
                expected = (k % 2 == 1) and s_q(q, i) <= nu2(k) + 3
                assert fired == expected, (q, k, i)


def test_red_differential_always_fires_on_cokernel():
    from esss.engine import _d1_L, _L_degree
    field = Fq(3)
    for k in (1, 3):
        for i in range(0, 6):
            deg = TriDegree(4 * k - 2, 2, 2 * k - 1 - i)
            summands, parts, _ = _L_degree(field, deg)
            idx = [t for t, cs in enumerate(summands)
                   if parts[t] == "C" and cs.gen.lead.units and cs.gen.lead.v1 == 2 * k
                   and cs.gen.lead.tau == i]
            if not idx:
                continue
            M = _d1_L(field, deg)
            assert any(M[r][idx[0]] % 2 for r in range(len(M))), (k, i)


def test_q2_worked_positions_kq():
    res = run(Q2, "kq", PageWindow(-3, 8, 0, 12, -16, 4))
    assert res.certificate.kind == "cited"
    e2 = res.einf

    def tower(s, f):
        out = {}
        for w in range(-14, (s + f) // 2 + 1):
            cs = e2.summands(TriDegree(s, f, w))
            if cs:
                out[w] = sorted(c.text() for c in cs)
        return out

    t11 = tower(1, 1)
    assert sorted(t11) == [-12, -11, -8, -7, -4, -3, 0, 1]  # h1 tau^(4n), tau^(4n+1)
    t04 = tower(0, 4)
    assert sorted(t04) == [-12, -11, -8, -7, -4, -3, 0]  # rho^2 h1^2 tau^(4n),(4n+3)
    t22 = tower(2, 2)
    assert t22[-1] == ["Z/8{h1^2 tau^3 + rho^2 v1^2 tau}"]
    assert t22[-3] == ["Z/2{h1^2 tau^5}", "Z/8{2 rho^2 v1^2 tau^3}"]
    assert t22[-2] == ["Z/2{h1^2 tau^4}"]
    t33 = tower(3, 3)
    assert t33[1] == ["Z/2{h1^3 tau^2 + rho^2 v1^2 h1}"]
    assert t33[0] == ["Z/2{h1^3 tau^3 + rho^2 v1^2 h1 tau}"]


def test_q2_worked_positions_L():
    res = run(Q2, "L", PageWindow(-3, 8, 0, 12, -16, 4))
    assert res.certificate.kind == "cited"
    e2 = res.einf
    # the kernel part of (1,5) reduces to a tau^4-periodic order-2 pattern
    plain = {}
    for w in range(-14, 4):
        for cs in e2.summands(TriDegree(1, 5, w)):
            if cs.gen.is_single() and cs.gen.lead.units == (("rho", 2),):
                plain[w] = cs.text()
    assert sorted(plain) == [-11, -7, -3, 1]
    assert plain[1] == "Z/2{rho^2 h1^3}"
    # iota u survivors appear only at tau^0 and odd tau powers >= 3
    iu = sorted(w for w in range(-14, 4)
                for cs in e2.summands(TriDegree(1, 5, w))
                if cs.gen.is_single() and cs.gen.lead.iota
                and dict(cs.gen.lead.units).get("u"))
    assert iu == [-13, -11, -9, -7, -5, -3, -1, 2]


def test_turning_past_the_window_raises_window_exhausted():
    page = build_page1(ALG_CLOSED, "kq", PageWindow(0, 4, 0, 6, -2, 2))
    e2 = turn_page(page)
    with pytest.raises(WindowError, match="window exhausted turning page 3"):
        turn_page(turn_page(e2))  # exhausts the filtration headroom


def test_shrunk_windows_hold_every_target():
    """Every degree of shrink(r) has its page-r target in the window, so a
    turned page never reads a differential past the page it came from."""
    rng = random.Random(27)
    for _ in range(300):
        s0, f0, w0 = rng.randint(-6, 6), rng.randint(-2, 3), rng.randint(-6, 3)
        win = PageWindow(s0, s0 + rng.randint(0, 12), f0, f0 + rng.randint(0, 24),
                         w0, w0 + rng.randint(0, 4))
        for r in range(1, 5):
            for deg in win.shrink(r).degrees():
                assert deg + d_shift(r) in win, (win, r, deg)


@pytest.mark.parametrize("field, spectrum, lines", [
    (REALS, "L", ("d2: tau^4 -> 1 iota rho^2 h1^2 tau^4", "d3: h1 tau^4 -> 1 rho^4 h1^4 tau^3")),
    (Q2, "kq", ("d2: v1^2 -> 1 rho h1^4 tau", "d3: v1^2 tau^2 -> 1 rho^2 h1^5 tau^3")),
])
def test_turned_differentials_have_a_row_per_target_summand(tmp_path, field, spectrum, lines):
    """A differential is rows, never None: one per summand at its target,
    none where the target is zero or past the window.  Pages are turned
    until the window runs out, past any collapse."""
    path = tmp_path / "rules.rules"
    path.write_text("".join(f"{line}  # synthetic\n" for line in lines))
    rules = parse_rule_file(field, str(path))
    page, turned = build_page1(field, spectrum, PageWindow(-2, 8, 0, 16, -6, 3)), 0
    while not page.window.shrink(page.r).empty():
        page, turned = turn_page(page, rules), turned + 1
        for deg, dd in page.data.items():
            assert len(dd.diff) == len(page.summands(deg + d_shift(page.r))), (page.r, deg)
            assert all(len(row) == len(dd.summands) for row in dd.diff)
    assert turned == 3


def test_page1_d1_rows_are_shared():
    """Equal rows of the first-page differentials are one list, and so are
    equal differentials, so there are no more row or matrix objects than
    contents.  Emptied tables first, as a ninth field leaves them, so that
    no ninth field arrives while the two fields here build: rows and
    matrices built after that clear would be new lists."""
    engine._clear()
    by_content, ids, rows = {}, set(), 0
    by_matrix, matrix_ids, matrices = {}, set(), 0
    for field in (Fq(3), Q((2, 3, 5))):
        for spectrum in ("kq", "L"):
            for w in range(-3, 2):
                page = build_page1(field, spectrum, PageWindow(-4, 12, 0, 14, w, w))
                for row in (row for dd in page.data.values() for row in dd.diff):
                    assert by_content.setdefault(tuple(row), row) is row
                    ids.add(id(row))
                    rows += 1
                for diff in (dd.diff for dd in page.data.values()):
                    assert by_matrix.setdefault(tuple(map(tuple, diff)), diff) is diff
                    matrix_ids.add(id(diff))
                    matrices += 1
    assert len(ids) <= len(by_content) and rows > 10 * len(by_content)
    assert len(matrix_ids) <= len(by_matrix) and matrices > 3 * len(by_matrix)


def _kq_fill(field, src, tgt):
    """The kq first differential filled straight from rules.d1_components."""
    index = {cs.gen.lead: t for t, cs in enumerate(tgt)}
    rows = [[0] * len(src) for _ in tgt]
    for j, cs in enumerate(src):
        for target in d1_components(field, cs.gen.lead):
            t = index.get(target)
            order = tgt[t].order if t is not None else 0
            if order:
                rows[t][j] = (rows[t][j] + order // 2) % order
    return rows


def test_kq_d1_by_shifts_equals_a_fill_from_d1_components():
    """Every kq first differential of a window over eight fields, built from
    the memo of rules.d1_shifts that each field's table keeps, equals the fill
    from d1_components, class by class.  The memo starts empty and serves
    every class of a field whose signature it has seen, so a signature that
    leaves out what the rule reads (j mod 4, k mod 2, the cell or the word)
    hands some class the components of another."""
    engine._clear()
    window = PageWindow(-2, 12, 0, 14, -5, 2)
    compared = 0
    for field in (ALG_CLOSED, Fq(3), Fq(5), Qq(3), Qq(5), Q2, REALS, Q((2, 3, 5))):
        for deg in window.degrees():
            src, tgt = page1_basis(field, "kq", deg), page1_basis(field, "kq", deg + d_shift(1))
            diff = page1_d1(field, "kq", deg)
            assert diff == _kq_fill(field, src, tgt), (field.text(), deg)
            compared += sum(x != 0 for row in diff for x in row)
    assert compared > 1000, compared


def _L_fill(field, deg):
    """The L first differential at deg filled afresh from what _L_map induces."""
    tgt = deg + d_shift(1)
    source, target = engine._L_degree(field, deg), engine._L_degree(field, tgt)
    rows = [[0] * len(source[0]) for _ in target[0]]

    def kq_entries(d):
        return ((a, j, x) for a, row in enumerate(engine._d1_kq(field, d))
                for j, x in enumerate(row) if x)
    for i, j, x in engine._L_map(field, field, deg, tgt, kq_entries, source, target):
        rows[i][j] = x
    return rows


def test_induced_L_differentials_equal_a_direct_fill():
    """Every L first differential that _d1_L holds over Fq(3), Q2, R and
    Q(2,3,5) equals the map _L_map induces afresh, with the memo of induced
    maps emptied first: its key tells apart every input of the fill.  The
    four fields build right after a clear that follows builds over three
    others, so a memo that outlived the clear would keep matrices that no
    table holds, and answer for ids that may now name other objects."""
    window = PageWindow(-4, 12, 0, 14, -4, 3)
    for field in (Fq(5), Qq(3), Q((2, 3, 7))):
        build_page1(field, "L", window)
    engine._clear()
    fields = (Fq(3), Q2, REALS, Q((2, 3, 5)))
    for field in fields:
        build_page1(field, "L", window)
    assert set(engine._tables) == set(fields)
    held = {field: dict(engine._tables[field][3]) for field in fields}
    ids = {id(diff) for d1 in held.values() for diff in d1.values()}
    assert all(id(diff) in ids for diff in engine._induced.values())
    engine._induced.clear()
    compared = 0
    for field, d1 in held.items():
        for deg, diff in d1.items():
            assert diff == _L_fill(field, deg), (field.text(), deg)
            compared += any(map(any, diff))
    assert compared > 1000, compared


def test_induced_L_differentials_tell_target_orders_apart():
    """Two hand-made degrees of one field share every interned input of the
    L differential, a kernel class 2 times its kq class mapping by the kq
    d1 [[1]] onto a whole kq class, but that class is Z/2 at one and Z/4 at
    the other: the induced entries are 0 and 2.  On the fields of
    test_induced_L_differentials_equal_a_direct_fill a key without the
    target orders gives the same matrices, so this is the case that needs
    them in the memo's key."""
    engine._clear()
    field = Fq(3)
    kq, L, d1, _, _ = engine._tables.setdefault(field, ({}, {}, {}, {}, {}))
    parts, source, target = ("K",), ((0, 2),), ((0, 1),)
    matrix = engine._shared([[1]])
    for w, order in ((100, 2), (101, 4)):
        deg = TriDegree(0, 0, w)
        tgt = deg + d_shift(1)
        summand = CyclicSummand(order, Generator.of(Monomial(tau=w)), tgt)
        kq[tgt], d1[deg] = (summand,), matrix
        L[deg] = (CyclicSummand(4, Generator.of(Monomial(tau=w)), deg),), parts, source
        L[tgt] = (summand,), parts, target
    assert [page1_d1(field, "L", TriDegree(0, 0, w)) for w in (100, 101)] == [[[0]], [[2]]]
    engine._clear()


def test_statuses_for_pluggable_pairs():
    win = PageWindow(-2, 8, 0, 12, -6, 4)
    for field in (REALS, Q((2, 3, 5))):
        res = run(field, "L", win, want_einf=False)
        assert res.status == "E2 only"
        assert res.einf is None and res.certificate is None
        with pytest.raises(WindowError):
            run(field, "L", win, want_einf=True)


def test_unknown_spectrum_is_rejected():
    with pytest.raises(ValueError, match="unknown spectrum"):
        run(Fq(5), "knot", PageWindow(-2, 8, 0, 12, -4, 4))
    for page1 in (page1_basis, page1_d1):
        with pytest.raises(ValueError, match="unknown spectrum"):
            page1(Fq(5), "knot", TriDegree(4, 0, 2))
    with pytest.raises(ValueError, match="unknown spectrum"):
        page1_map_matrix(Fq(5), ALG_CLOSED, "knot", TriDegree(4, 0, 2))


def test_unknown_spectrum_is_rejected_on_an_empty_window():
    with pytest.raises(ValueError, match="unknown spectrum"):
        run(Fq(5), "knot", PageWindow(0, 4, 0, 4, 3, 2))


def test_empty_rule_file_refuses_certification(tmp_path):
    path = tmp_path / "empty.rules"
    path.write_text("# nothing here\n")
    res = run(REALS, "L", PageWindow(-2, 8, 0, 12, -6, 4),
              parse_rule_file(REALS, str(path)), want_einf=False)
    assert res.status == "E2 only"
    assert res.certificate is None


def test_run_decides_collapse_by_citation_then_degrees(tmp_path):
    """Which certificate run grants, pair by pair: a 2-adic citation wins
    over degree vanishing, other cited pairs try degree vanishing first, and
    a rule file, even one with no rules, drops every citation."""
    win = PageWindow(-2, 6, 0, 10, -3, 3)
    fields = {"Fbar": ALG_CLOSED, "F3": Fq(3), "Q3": Qq(3), "Q2": Q2, "R": REALS,
              "Q(2,3)": Q((2, 3))}
    vanishing = "Einf degree-vanishing"
    want = {
        None: {"Fbar kq": vanishing, "Fbar L": vanishing, "F3 kq": vanishing,
               "F3 L": vanishing, "Q3 kq": vanishing, "Q3 L": "Einf cited",
               "Q2 kq": "Einf cited", "Q2 L": "Einf cited", "R kq": "E2 only",
               "R L": "E2 only", "Q(2,3) kq": "Einf cited", "Q(2,3) L": "E2 only"},
        "empty": {"Fbar kq": vanishing, "Fbar L": vanishing, "F3 kq": vanishing,
                  "F3 L": vanishing, "Q3 kq": vanishing, "Q2 kq": vanishing},
    }
    path = tmp_path / "empty.rules"
    path.write_text("# comments only\n")
    for rule_file in (None, "empty"):
        got = {}
        for name, field in fields.items():
            for spectrum in ("kq", "L"):
                rules = None if rule_file is None else parse_rule_file(field, str(path))
                res = run(field, spectrum, win, rules, want_einf=False)
                cert = res.certificate
                assert (res.einf is not None) == (cert is not None) == (res.status == "Einf")
                got[f"{name} {spectrum}"] = res.status + (f" {cert.kind}" if cert else "")
        assert got == {k: want[rule_file].get(k, "E2 only") for k in got}, rule_file


def test_degree_vanishing_sees_the_longest_differential_the_window_holds():
    """The only blocking pair is a d4, the longest differential a window of
    rows 0..9 holds; shorter and passed differentials do not block."""
    def page(r, *degs):
        data = {deg: DegreeData([CyclicSummand(2, Generator.of(Monomial(h1=1)), deg)], [], [])
                for deg in degs}
        return Page(ALG_CLOSED, "kq", r, PageWindow(0, 4, 0, 9, 0, 0), data)

    src = TriDegree(2, 0, 0)
    for r in (2, 3, 4):
        assert not degree_vanishing(page(r, src, TriDegree(1, 9, 0)))
    assert degree_vanishing(page(5, src, TriDegree(1, 9, 0)))
    assert not degree_vanishing(page(2, src, TriDegree(1, 5, 0), TriDegree(3, 0, 0)))
    assert degree_vanishing(page(2, src, TriDegree(1, 3, 0), TriDegree(2, 8, 0)))


def test_loaded_rule_is_applied(tmp_path):
    # a synthetic second differential on the real L page, from the free
    # tau^4 onto the order-2 class two slices up: E3 loses the target and
    # keeps 2 tau^4; with no citation for (R, L) the run stops at E3
    path = tmp_path / "toy.rules"
    path.write_text("d2: tau^4 -> 1 iota rho^2 h1^2 tau^4  # synthetic\n")
    res = run(REALS, "L", PageWindow(-2, 6, 0, 10, -4, 3), parse_rule_file(REALS, str(path)),
              want_einf=False)
    src, tgt = TriDegree(0, 0, -4), TriDegree(-1, 5, -4)
    assert res.pages[1].data[src].diff == [[1]]
    assert [p.r for p in res.pages] == [1, 2, 3]
    assert res.status == "E3 only" and res.certificate is None
    assert res.pages[2].summands(tgt) == []
    assert [cs.text() for cs in res.pages[2].summands(src)] == ["Z{2 tau^4}"]


def test_page_orders_divide_previous():
    res = run(Fq(5), "kq", PageWindow(0, 10, 0, 12, -5, 5))
    e1, e2 = res.pages[0], res.pages[1]
    for deg in e2.window.degrees():
        o1 = e1.orders(deg)
        o2 = e2.orders(deg)
        rank1 = sum(1 for o in o1 if o == 0)
        rank2 = sum(1 for o in o2 if o == 0)
        assert rank2 <= rank1
        log1 = sum(o.bit_length() - 1 for o in o1 if o)
        log2 = sum(o.bit_length() - 1 for o in o2 if o)
        assert log2 + 2 * (rank1 - rank2) <= log1 + 2 * (rank1 - rank2) + 1
        assert len(o2) <= len(o1) + rank1


def _count_relation_snfs(monkeypatch):
    """The matrices homalg._eliminate is called on with W, as it is only by
    homology_group's relation SNF, listed as the calls come."""
    relations, eliminate = [], homalg._eliminate

    def counted(D, n, W=None, VT=None):
        relations.extend([D] if W is not None else [])
        return eliminate(D, n, W, VT)
    monkeypatch.setattr(homalg, "_eliminate", counted)
    return relations


def _assert_turned_as_by_the_whole_matrix_snf(pages):
    """Every degree of every page after the first equals what the dense
    homology_group of tests/reference.py gives on the previous page: the
    summand orders, generator names, summand order and history vectors."""
    for page, nxt in zip(pages, pages[1:]):
        for deg in nxt.window.degrees():
            dd = page.data.get(deg)
            got = nxt.data.get(deg)
            if dd is None:
                assert got is None, deg
                continue
            src = page.data.get(TriDegree(deg.s + 1, deg.f - (2 * page.r + 1), deg.w))
            H = reference.homology_group(
                src.diff if src else [[] for _ in dd.summands],
                [cs.order for cs in src.summands] if src else [], dd.diff,
                [cs.order for cs in dd.summands],
                [cs.order for cs in page.summands(deg + d_shift(page.r))])
            want = [CyclicSummand(order, engine._name_from_vector(vec, dd.summands), deg)
                    for order, vec in zip(H.orders, H.gens)]
            assert (got.summands if got else []) == want, (page.field, page.r, deg)
            assert (got.history if got else []) == [tuple(v) for v in H.gens], deg


@pytest.mark.parametrize("criterion", [4, 7, 10])
def test_turn_page_equals_the_whole_matrix_snf(criterion, monkeypatch):
    """The pages of acceptance criteria 4, 7 and 10, on their windows.  Over
    F_q every degree is closed form, ties included (criterion 7 has 1,134
    of them), so no page turn of criteria 4 and 7 runs a relation SNF."""
    relations = _count_relation_snfs(monkeypatch)
    if criterion == 4:
        runs = [run(Fq(q), "kq", PageWindow(0, 21, 0, 27, -10, 11)) for q in (3, 5, 7, 13)]
    elif criterion == 7:
        runs = [run(Fq(q), "L", PageWindow(-3, 25, 0, 30, -12, 13))
                for q in (3, 5, 7, 9, 13, 17)]
    else:
        runs = [run(field, spectrum, PageWindow(-3, 16, 0, 12, -4, 8), want_einf=False)
                for spectrum in ("kq", "L") for field in [HASSE_SRC] + HASSE_DSTS]
    assert (relations != []) == (criterion == 10), len(relations)
    for res in runs:
        _assert_turned_as_by_the_whole_matrix_snf(res.pages)


def _random_complex(rng):
    """A complex S -> M -> T of cyclic sums whose middle falls into blocks
    of one, two or three summands, in shuffled coordinates.  One-summand
    blocks carry entries 1 and orders from a short list, so that orders tie
    and free summands and free targets occur.  Half the larger blocks are
    Z/2 throughout with entries 1, their sources nonzero F2 kernel vectors
    of their targets: all of them (no homology) or some; the other half
    carry random entries, their sources drawn from the kernel of their
    targets."""
    orders = (0, 2, 2, 4, 8)
    mid, tgt, src, b_entries, a_entries = [], [], [], [], []
    for _ in range(rng.randrange(1, 7)):
        size = rng.choice((1, 1, 1, 2, 3))
        block = list(range(len(mid), len(mid) + size))
        if size == 1:
            mid.append(rng.choice(orders))
            side = rng.choice(("targets", "sources", "neither"))
            for _ in range(rng.randrange(1, 3) if side != "neither" else 0):
                if side == "targets":
                    b_entries.append({block[0]: 1})
                    tgt.append(rng.choice(orders))
                else:
                    a_entries.append({block[0]: 1})
                    src.append(rng.choice(orders))
            continue
        z2 = rng.random() < 0.5
        mid += [2 if z2 else rng.choice(orders) for _ in block]
        lo, hi = (0, 1) if z2 else (-3, 3)
        B = [[rng.randint(lo, hi) for _ in block] for _ in range(rng.randrange(0, 3))]
        t_orders = [2 if z2 else rng.choice(orders) for _ in B]
        for row, o in zip(B, t_orders):
            b_entries.append(dict(zip(block, row)))
            tgt.append(o)
        if z2:
            vectors = [v for v in itertools.product((0, 1), repeat=size)
                       if any(v) and all(sum(map(mul, row, v)) % 2 == 0 for row in B)]
            for v in rng.sample(vectors, len(vectors) if rng.random() < 0.5 else
                                rng.randrange(len(vectors) + 1)):
                a_entries.append(dict(zip(block, v)))
                src.append(rng.choice(orders))
            continue
        lattice = (reference._kernel_lattice(B, size, t_orders) if B
                   else [[int(a == i) for a in range(size)] for i in range(size)])
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randint(-1, 1) for _ in lattice]
            col = [sum(c * v[a] for c, v in zip(coeffs, lattice)) for a in range(size)]
            a_entries.append(dict(zip(block, col)))
            src.append(rng.choice(orders))
    perm = list(range(len(mid)))
    rng.shuffle(perm)
    t_perm = list(range(len(tgt)))
    rng.shuffle(t_perm)
    B = [[b_entries[t].get(perm[k], 0) for k in range(len(mid))] for t in t_perm]
    A = [[a_entries[j].get(perm[k], 0) for j in range(len(src))] for k in range(len(mid))]
    return A, src, B, [mid[p] for p in perm], [tgt[t] for t in t_perm]


def test_block_split_equals_the_whole_matrix_snf_on_random_complexes(monkeypatch):
    relations, lattices, lattice = _count_relation_snfs(monkeypatch), [], homalg._lattice
    monkeypatch.setattr(homalg, "_lattice", lambda *a: lattices.append(a) or lattice(*a))
    rng = random.Random(7)

    def result(f, *args):
        try:
            H = f(*args)
            return H.orders, H.gens
        except ValueError as exc:
            return str(exc)

    paths = collections.Counter()
    for trial in range(600):
        A, src, B, mid, tgt = _random_complex(rng)
        if trial % 5 == 0 and B and A and src:
            # a 1 added anywhere in A: mostly no longer a complex
            A[rng.randrange(len(mid))][rng.randrange(len(src))] += 1
        want = result(reference.homology_group, A, src, B, mid, tgt)
        seen = len(lattices), len(relations)
        a_rows, b_rows = ([{j: x for j, x in enumerate(row) if x} for row in M] for M in (A, B))
        assert result(homalg.homology_group, a_rows, src, b_rows, mid, tgt) == want, \
            (A, src, B, mid, tgt)
        # the path taken: the SNF runs _lattice, and its relation SNF unless the
        # kernel is zero; the closed form runs _lattice only to replay a tie
        lattice_calls, relation_calls = len(lattices) - seen[0], len(relations) - seen[1]
        if isinstance(want, str):
            ones = all(x == 1 for row in a_rows + b_rows for x in row.values())
            paths["not a complex, entries 1" if ones else "not a complex"] += 1
        elif relation_calls or (lattice_calls and not want[0]):
            paths["snf"] += 1
        elif lattice_calls:
            paths["tie"] += 1
            # a tie replayed next to a Z/2 block without homology
            paths["tie, shared"] += any(sum(map(bool, v)) > 1 for v in B + list(zip(*A)))
        else:
            paths["closed"] += 1
    # every path ran: the closed form with and without ties and Z/2 blocks,
    # the SNF, and the complex check on complexes bound for either
    assert paths["closed"] + paths["tie"] > 100 and paths["snf"] > 100, paths
    assert paths["tie"] > 40 and paths["tie, shared"] > 10, paths
    broken = paths["not a complex"], paths["not a complex, entries 1"]
    assert sum(broken) > 20 and min(broken) > 5, paths
    with pytest.raises(ValueError, match="not a complex"):
        homalg.homology_group([{0: 1}], [2], [{0: 1}], [2], [2])


def test_turn_page_turns_each_complex_once_and_tells_target_orders_apart(monkeypatch):
    """Three degrees of a hand-made first page share one matrix object [[1]],
    as a page shares its interned matrices, from Z: into Z/2 at two of them,
    into Z/4 at the third.  turn_page computes the two equal complexes once,
    and the third as its own: Z generated by 4, not the 2 of the others."""
    calls, homology = [], engine.homology_group
    monkeypatch.setattr(engine, "homology_group", lambda *a: calls.append(a) or homology(*a))
    matrix = [[1]]

    def degree(s, f, order, diff):
        deg = TriDegree(s, f, 0)
        return deg, DegreeData([CyclicSummand(order, Generator.of(Monomial(tau=f)), deg)], (), diff)

    page = Page(ALG_CLOSED, "kq", 1, PageWindow(0, 4, 0, 6, 0, 0), dict([
        degree(1, 1, 0, matrix), degree(0, 4, 2, []),
        degree(3, 1, 0, matrix), degree(2, 4, 4, []),
        degree(3, 3, 0, matrix), degree(2, 6, 2, [])]))
    nxt = turn_page(page)
    assert len(calls) == 2
    assert [nxt.data[TriDegree(s, f, 0)].history for s, f in ((1, 1), (3, 1), (3, 3))] == \
        [[(2,)], [(4,)], [(2,)]]
    _assert_turned_as_by_the_whole_matrix_snf([page, nxt])


def test_records_keep_their_behaviour():
    """The value records compare and hash as tuples, PageWindow keeps its
    own `in`, and gluing returns a new record and leaves its inputs as they were."""
    from esss.groups import Generator, Monomial
    from esss.pitable import PiEntry, _apply_extensions, extension_rules

    dd = engine.DegreeData([], [(1,)], [[1]])
    assert dd == ([], [(1,)], [[1]]) and dd.history == [(1,)] and dd.diff == [[1]]
    with pytest.raises(AttributeError):
        dd.diff = None
    w = PageWindow(0, 4, 0, 6, -1, 1)
    assert w == PageWindow(0, 4, 0, 6, -1, 1) and len({w, PageWindow(0, 4, 0, 6, -1, 1)}) == 1
    assert TriDegree(2, 3, 1) in w and TriDegree(5, 3, 1) not in w and TriDegree(0, 0, 2) not in w
    # 4 iota v1^2 glues over 2 h1^3 tau (the closed-field L relation)
    pe = PiEntry(4, Generator.of(Monomial(coeff2=2, iota=1, v1=2)), 0)
    partner = PiEntry(2, Generator.of(Monomial(h1=3, tau=1)), 3)
    column = [pe, partner]
    [glued] = _apply_extensions(column, extension_rules(ALG_CLOSED, "L"))
    assert (glued.order, glued.gen.text(), glued.h_torsion, glued.glued) == (8, "2 iota v1^2", 3, True)
    assert glued.filtration == 0 and column == [pe, partner]
    assert (pe.order, pe.gen.text(), pe.h_torsion, pe.glued) == (4, "4 iota v1^2", 2, False)
    assert (partner.order, partner.h_torsion, partner.glued) == (2, 1, False)


def test_equal_first_page_values_are_one_object():
    """The first-page tables keep one copy of each equal summand and of each
    equal (index, multiplier) pair of _L_degree, across fields."""
    # empty tables: a ninth field, as earlier tests build, empties the intern dicts
    engine._clear()
    window = PageWindow(-2, 8, 0, 8, -3, 4)
    first, seen, across = {}, {}, 0
    for field in (ALG_CLOSED, Fq(3)):
        for spectrum in ("kq", "L"):
            page = build_page1(field, spectrum, window)
            values = [cs for dd in page.data.values() for cs in dd.summands]
            if spectrum == "L":
                values += [pair for deg in page.data for pair in engine._L_degree(field, deg)[2]]
            for value in values:
                held = first.setdefault(value, value)
                assert held is value, (field.text(), value)
                across += seen.setdefault(value, field) != field
    assert across > 100


def test_row_table_is_bounded_by_the_field_tables():
    """A process that builds kq and L first pages over twelve fields interns
    only the d1 rows of the tables it holds: from the ninth field on, every
    row of engine._rows is, by identity, a row of a kq or L differential in
    engine._tables, and so is every matrix of engine._matrices and every L
    differential induced in engine._induced.  The rows of the eight fields
    before are mostly not rows of the four after, so a row table that
    outlived the field tables would keep 485 rows no table holds."""
    code = """if True:
        import esss.engine as engine
        from esss.engine import PageWindow, build_page1
        from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
        window = PageWindow(-3, 9, 0, 10, -4, 5)
        fields = [Q((2, 3, 5)), Q((2, 3, 7)), Q((2, 3, 5, 7)), REALS, Q2, Qq(3), Qq(5),
                  Q((2, 3)), Fq(3), Fq(5), Fq(7), ALG_CLOSED]
        orphans, rows, lost, matrices = 0, 0, 0, 0
        for n, field in enumerate(fields):
            for spectrum in ("kq", "L"):
                build_page1(field, spectrum, window)
            if n >= 8:
                diffs = [diff for table in engine._tables.values() for d1 in table[2:4]
                         for diff in d1.values()]
                held = {id(row) for diff in diffs for row in diff}
                orphans += sum(id(row) not in held for row in engine._rows.values())
                rows = max(rows, len(engine._rows))
                held = set(map(id, diffs))
                kept = [*engine._matrices.values(), *engine._induced.values()]
                lost += sum(id(diff) not in held for diff in kept)
                matrices = max(matrices, len(kept))
        print(len(fields), orphans, rows, lost, matrices)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    fields, orphans, rows, lost, matrices = map(int, proc.stdout.split())
    assert fields == 12 and rows > 0 and matrices > 0, (fields, rows, matrices)
    assert orphans == 0, f"{orphans} interned rows of fields no table holds"
    assert lost == 0, f"{lost} interned or induced matrices of fields no table holds"


def test_field_tables_are_bounded():
    """A process that builds first pages over 24 fields holds the tables of
    at most eight: a ninth field empties every table and intern dict, so the
    interning never outlives its tables and equal summands of the held
    tables stay one object.  Eight fields on this window hold 27,408 entries
    (884 of them d1 shifts by signature) and at most 10,583 interned values;
    without the bound the entries grow by about 3,400 per field."""
    code = """if True:
        import esss.engine as engine
        from esss.engine import PageWindow, build_page1
        from esss.fields import Fq, Q
        window = PageWindow(-3, 9, 0, 10, -4, 5)
        most = (0, 0, 0, 0)
        fields = [field for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
                  for field in (Q((2, p)), Fq(p))]
        for n, field in enumerate(fields):
            for spectrum in ("kq", "L"):
                build_page1(field, spectrum, window)
                if n == 8 and spectrum == "kq":
                    ninth = len(engine._tables)
            held = sum(len(entries) for table in engine._tables.values() for entries in table)
            interned = len(engine._degrees) + len(engine._summands) + len(engine._pairs)
            summands = [cs for kq, L, *_ in engine._tables.values()
                        for basis in (*kq.values(), *(entry[0] for entry in L.values()))
                        for cs in basis]
            copies = len(set(map(id, summands))) - len(set(summands))
            most = [max(pair) for pair in
                    zip(most, (len(engine._tables), held, interned, copies))]
        print(*most, ninth)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    tables, held, interned, copies, ninth = map(int, proc.stdout.split())
    assert tables == 8 and held <= 30_000 and interned <= 12_000, (tables, held, interned)
    assert copies == 0, f"{copies} second copies of kept summands"
    assert ninth == 1, f"{ninth} tables right after the ninth field's first build"
