import random
import subprocess
import sys

import pytest

import esss.engine as engine
import reference
from esss.coefficients import coeff_classes
from esss.engine import (DegreeData, Page, PageWindow, WindowError, build_page1,
                         degree_vanishing, page1_basis, page1_d1, run, turn_page)
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.groups import CyclicSummand, Generator, Monomial, TriDegree, d_shift
from esss.rules import parse_rule_file
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
    """Equal rows of the first-page differentials are one list, so there are
    no more row objects than row contents.  Emptied tables first, as a ninth
    field leaves them, so that no ninth field arrives while the two fields
    here build: rows built after that clear would be new lists."""
    for held in (engine._tables, engine._degrees, engine._summands, engine._pairs,
                 engine._images, engine._rows):
        held.clear()
    by_content, ids, rows = {}, set(), 0
    for field in (Fq(3), Q((2, 3, 5))):
        for spectrum in ("kq", "L"):
            for w in range(-3, 2):
                page = build_page1(field, spectrum, PageWindow(-4, 12, 0, 14, w, w))
                for row in (row for dd in page.data.values() for row in dd.diff):
                    assert by_content.setdefault(tuple(row), row) is row
                    ids.add(id(row))
                    rows += 1
    assert len(ids) <= len(by_content) and rows > 10 * len(by_content)


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
def test_turn_page_equals_the_whole_matrix_snf(criterion):
    """The pages of acceptance criteria 4, 7 and 10, on their windows."""
    if criterion == 4:
        runs = [run(Fq(q), "kq", PageWindow(0, 21, 0, 27, -10, 11)) for q in (3, 5, 7, 13)]
    elif criterion == 7:
        runs = [run(Fq(q), "L", PageWindow(-3, 25, 0, 30, -12, 13))
                for q in (3, 5, 7, 9, 13, 17)]
    else:
        runs = [run(field, spectrum, PageWindow(-3, 16, 0, 12, -4, 8), want_einf=False)
                for spectrum in ("kq", "L") for field in [HASSE_SRC] + HASSE_DSTS]
    for res in runs:
        _assert_turned_as_by_the_whole_matrix_snf(res.pages)


def _random_complex(rng):
    """A complex S -> M -> T of cyclic sums whose middle falls into blocks
    of one, two or three summands, in shuffled coordinates.  One-summand
    blocks carry entries 1 and orders from a short list, so that orders tie
    and free summands and free targets occur; larger blocks carry random
    entries, their sources drawn from the kernel of their targets."""
    orders = (0, 2, 2, 4, 8)
    mid, tgt, src, b_entries, a_entries = [], [], [], [], []
    for _ in range(rng.randrange(1, 7)):
        size = rng.choice((1, 1, 1, 2, 3))
        block = list(range(len(mid), len(mid) + size))
        mid += [rng.choice(orders) for _ in block]
        if size == 1:
            side = rng.choice(("targets", "sources", "neither"))
            for _ in range(rng.randrange(1, 3) if side != "neither" else 0):
                if side == "targets":
                    b_entries.append({block[0]: 1})
                    tgt.append(rng.choice(orders))
                else:
                    a_entries.append({block[0]: 1})
                    src.append(rng.choice(orders))
            continue
        B = [[rng.randint(-3, 3) for _ in block] for _ in range(rng.randrange(0, 3))]
        t_orders = [rng.choice(orders) for _ in B]
        lattice = (reference._kernel_lattice(B, size, t_orders) if B
                   else [[int(a == i) for a in range(size)] for i in range(size)])
        for row, o in zip(B, t_orders):
            b_entries.append(dict(zip(block, row)))
            tgt.append(o)
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
    calls = []
    whole = engine.homology_group
    monkeypatch.setattr(engine, "homology_group", lambda *a: calls.append(a) or whole(*a))
    rng = random.Random(7)

    def result(f, *args):
        try:
            H = f(*args)
            return H.orders, H.gens
        except ValueError as exc:
            return str(exc)

    broken = 0
    for trial in range(600):
        A, src, B, mid, tgt = _random_complex(rng)
        if trial % 5 == 0 and B and A and src:
            # a 1 added anywhere in A: mostly no longer a complex
            A[rng.randrange(len(mid))][rng.randrange(len(src))] += 1
        want = result(reference.homology_group, A, src, B, mid, tgt)
        assert result(engine._homology, A, src, B, mid, tgt) == want, (A, src, B, mid, tgt)
        broken += isinstance(want, str)
    # every path ran: the closed form, homology_group, and both complex checks
    assert broken > 20 and 600 - len(calls) > 100 and len(calls) - broken > 100
    with pytest.raises(ValueError, match="not a complex"):
        engine._homology([[1]], [2], [[1]], [2], [2])


def test_records_keep_their_behaviour():
    """The value records compare and hash as tuples, PageWindow keeps its
    own `in`, and the records that change in place still take updates."""
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
    pe = PiEntry(4, Generator.of(Monomial(coeff2=2, iota=1, v1=2)), 2, 0)
    partner = PiEntry(2, Generator.of(Monomial(h1=3, tau=1)), 1, 3)
    assert _apply_extensions([pe, partner], extension_rules(ALG_CLOSED, "L")) == [pe]
    assert (pe.order, pe.gen.text(), pe.h_torsion, pe.glued) == (8, "2 iota v1^2", 3, True)


def test_equal_first_page_values_are_one_object(monkeypatch):
    """The first-page tables keep one copy of each equal summand and of each
    equal (index, multiplier) pair of _L_degree, across fields."""
    # empty tables: a ninth field, as earlier tests build, empties the intern dicts
    for name in ("_tables", "_degrees", "_summands", "_pairs"):
        monkeypatch.setattr(engine, name, {})
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
    engine._tables.  The rows of the eight fields before are mostly not rows
    of the four after, so a row table that outlived the field tables would
    keep 485 rows no table holds."""
    code = """if True:
        import esss.engine as engine
        from esss.engine import PageWindow, build_page1
        from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
        window = PageWindow(-3, 9, 0, 10, -4, 5)
        fields = [Q((2, 3, 5)), Q((2, 3, 7)), Q((2, 3, 5, 7)), REALS, Q2, Qq(3), Qq(5),
                  Q((2, 3)), Fq(3), Fq(5), Fq(7), ALG_CLOSED]
        orphans, rows = 0, 0
        for n, field in enumerate(fields):
            for spectrum in ("kq", "L"):
                build_page1(field, spectrum, window)
            if n >= 8:
                held = {id(row) for table in engine._tables.values() for d1 in table[2:]
                        for diff in d1.values() for row in diff}
                orphans += sum(id(row) not in held for row in engine._rows.values())
                rows = max(rows, len(engine._rows))
        print(len(fields), orphans, rows)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    fields, orphans, rows = map(int, proc.stdout.split())
    assert fields == 12 and rows > 0, (fields, rows)
    assert orphans == 0, f"{orphans} interned rows of fields no table holds"


def test_field_tables_are_bounded():
    """A process that builds first pages over 24 fields holds the tables of
    at most eight: a ninth field empties every table and intern dict, so the
    interning never outlives its tables and equal summands of the held
    tables stay one object.  Eight fields on this window hold 26,524 entries
    and at most 10,496 interned values; without the bound the entries grow
    by about 3,300 per field."""
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
            summands = [cs for kq, L, _, _ in engine._tables.values()
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
