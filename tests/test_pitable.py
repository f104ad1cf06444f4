"""Homotopy assembly against independently enumerated table rows."""
import pytest

from esss.engine import PageWindow, build_page1, run
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Qq
from esss.numthy import nu2, s_q
from esss.pitable import assemble_pi, compute_pi_group, f_bound
from reference import hermitian_kq_orders


def closed_field_rows(s_range, w_range):
    """Independent enumeration of the homotopy of L over a closed field.

    Rows: tau^i free at (0,-i); iota v1^4k h1^j tau^i at (8k+j-1, 4k+j-i)
    with j <= 2 for i > 0 (free for j = k = 0, order 2^(nu2(k)+4) for j = 0,
    k > 0, order 2 for j >= 1); iota v1^(4k+2) tau^i of order 8 at
    (8k+3, 4k+2-i); v1^4k h1^(j+1) tau^i of order 2 at (8k+j+1, 4k+j+1-i)
    with j <= 2 for i > 0, where the j = 2, i >= 1 rows are identified with
    four times the iota v1^(4k+2) generators and dropped.
    """
    rows = {}

    def add(s, w, order):
        if s_range[0] <= s <= s_range[1] and w_range[0] <= w <= w_range[1]:
            rows.setdefault((s, w), []).append(order)

    for i in range(0, 40):
        add(0, -i, 0)
    for k in range(0, 6):
        for j in range(0, 28):
            for i in range(0, 40):
                if i > 0 and j > 2:
                    continue
                if j == 0 and k == 0:
                    order = 0
                elif j == 0:
                    order = 1 << (nu2(k) + 4)
                else:
                    order = 2
                add(8 * k + j - 1, 4 * k + j - i, order)
    for k in range(0, 6):
        for i in range(0, 40):
            add(8 * k + 3, 4 * k + 2 - i, 8)
    for k in range(0, 6):
        for j in range(0, 28):
            for i in range(0, 40):
                if i > 0 and j > 2:
                    continue
                if j == 2 and i >= 1:
                    continue  # glued into the order-8 generators
                add(8 * k + j + 1, 4 * k + j + 1 - i, 2)
    return rows


def test_closed_field_pi_matches_row_enumeration():
    res = run(ALG_CLOSED, "L", PageWindow(-3, 13, 0, 16, -8, 8))
    table = assemble_pi(res.einf, (-2, 12), (-6, 7))
    rows = closed_field_rows((-2, 12), (-6, 7))
    keys = {k for k in rows} | set(table.entries)
    for key in sorted(keys):
        got = table.orders(*key)
        want = sorted(rows.get(key, []))
        assert got == want, (key, got, want)


def test_closed_field_pi_anchors():
    res = run(ALG_CLOSED, "L", PageWindow(-3, 10, 0, 14, -4, 6))
    table = assemble_pi(res.einf, (-2, 8), (-2, 5))
    assert table.group_text(0, 0) == "Z{1} + Z/2{iota h1 tau}"
    assert table.group_text(3, 2) == "Z/8{iota v1^2}"
    assert table.group_text(7, 4) == "Z/16{iota v1^4}"
    assert table.group_text(1, 1) == "Z/2{h1} + Z/2{iota h1^2 tau}"
    assert table.status[(3, 2)] == "resolved"


def fq_L_rows(q, s_range, w_range):
    """Independent enumeration of the x-indexed part of pi(L) over F_q.

    Exact bookkeeping, family by family: the kernel summand over v1^2k
    loses one torsion order when its differential fires (k odd and
    s_q(i) <= 3); the cokernel summand always loses one for k odd, and is
    glued under its surviving h1^3-partner exactly when s_q(i) > 3.
    """
    rows = {}

    def add(s, w, order):
        if order != 1 and s_range[0] <= s <= s_range[1] and w_range[0] <= w <= w_range[1]:
            rows.setdefault((s, w), []).append(order)

    imax = 40
    add(0, 0, 0)          # 1
    add(-1, 0, 0)         # iota
    for k in range(1, 8):
        add(4 * k - 1, 2 * k, 1 << (nu2(k) + 3))      # iota v1^2k, glued for odd k
    for i in range(imax):
        add(-1, -1 - i, 1 << s_q(q, i))               # x tau^i column
    for k in range(1, 8):                             # kernel families
        a = nu2(k) + 3
        for i in range(imax):
            e = s_q(q, i)
            if k % 2 == 1 and e <= a:
                order = 1 << (e - 1)                  # green fired
            else:
                order = 1 << min(e, a)
            add(4 * k - 1, 2 * k - 1 - i, order)
    for k in range(1, 8):                             # cokernel families
        a = nu2(k) + 3
        for i in range(imax):
            e = min(s_q(q, i), a)
            if k % 2 == 0:
                order = 1 << e                        # no differential, no glue
            elif s_q(q, i) > 3:
                order = 1 << e                        # red fired, then glued
            else:
                order = 1 << (e - 1)                  # red fired, partner dead
            add(4 * k - 2, 2 * k - 1 - i, order)
    return rows


def test_f5_pi_spot_anchors():
    table = compute_pi_group(Fq(5), "L", 3, 2)
    assert table.group_text(3, 2) == "Z/8{iota v1^2}"
    table = compute_pi_group(Fq(5), "L", -1, -1)
    # x tau^0 of order s_5(0) = 2 plus the iota u h1 tau class
    assert table.orders(-1, -1) == [2, 4]
    table = compute_pi_group(Fq(3), "L", 3, 1)
    # kernel family k=1, i=0: s_3(0)=1 <= 3, green fires, order drops to 1
    got = table.orders(3, 1)
    assert 4 not in got


def test_pi_table_repr_is_the_same_in_two_runs():
    """A table prints its records by value, so two equal tables print alike."""
    want = ("PiTable(field=F5, spectrum='L', entries={(3, 2): [PiEntry(order=8, "
            "gen=<iota v1^2>, filtration=1, glued=True)]}, status={(3, 2): 'resolved'})")
    assert [repr(compute_pi_group(Fq(5), "L", 3, 2)) for _ in range(2)] == [want, want]


def test_fq_L_families_match_enumeration():
    for q in (3, 5):
        res = run(Fq(q), "L", PageWindow(-3, 13, 0, 16, -10, 8))
        table = assemble_pi(res.einf, (-1, 11), (-8, 6))
        rows = fq_L_rows(q, (-1, 11), (-8, 6))
        for (s, w), want in sorted(rows.items()):
            got = table.orders(s, w)
            for order in want:
                assert order in got, (q, s, w, order, got)
                got.remove(order)


def test_kq_fq_hidden_extension():
    table = compute_pi_group(Fq(5), "kq", 3, 1)
    assert table.group_text(3, 1) == "Z/4{2 u v1^2}"
    table = compute_pi_group(Fq(5), "kq", 3, 0)
    assert table.group_text(3, 0) == "Z/8{2 u v1^2 tau}"
    # without the partner the q = 3 mod 4 instance is skipped quietly
    table = compute_pi_group(Fq(3), "kq", 3, 1)
    assert table.orders(3, 1) == [2]


def test_unresolved_marker_over_q2():
    table = compute_pi_group(Q2, "L", 2, 0)
    status = table.status[(2, 0)]
    assert status.startswith("unresolved") or status == "resolved"
    # at least one multi-layer 2-adic entry must carry the marker
    res = run(Q2, "L", PageWindow(-2, 6, 0, 11, -4, 3))
    table = assemble_pi(res.einf, (0, 4), (-3, 3))
    assert any(v.startswith("unresolved") for v in table.status.values())


def test_pi_below_the_first_page_is_zero():
    """No first-page class of kq or L lies below stem -2, so a stem whose
    filtration bound is negative still gets a window, and its group is 0."""
    for field, spectrum, s in ((ALG_CLOSED, "kq", -7), (Fq(3), "L", -9),
                               (Q2, "kq", -11), (Qq(3), "L", -40)):
        table = compute_pi_group(field, spectrum, s, s)
        assert table.group_text(s, s) == "0", (field.text(), spectrum, s)


def test_weight_zero_kq_matches_hermitian_k_theory():
    """pi_{n,0} kq over F_q and its closure against Friedlander's closed
    form in tests/reference.py, which shares no code with esss: orders of
    stems 0..63, over prime powers q of both residues mod 4 and over Fbar."""
    for q in (None, 3, 5, 7, 9, 11, 13, 17, 25):
        field = ALG_CLOSED if q is None else Fq(q)
        for n in range(64):
            got = compute_pi_group(field, "kq", n, 0).orders(n, 0)
            assert got == hermitian_kq_orders(q, n), (field.text(), n, got)


def test_f_bound_is_the_top_of_the_first_page():
    """The top f - s of L's first page is f_bound's, with no slack row; kq
    tops out 2 lower (no iota)."""
    for field in (ALG_CLOSED, Fq(3), Fq(5), Qq(3), Qq(5), Q2):
        page = {sp: build_page1(field, sp, PageWindow(-6, 14, 0, 22, -8, 7))
                for sp in ("kq", "L")}
        top = {sp: max(deg.f - deg.s for deg in p.data) for sp, p in page.items()}
        assert top == {"L": f_bound(field, 0), "kq": f_bound(field, 0) - 2}, field.text()
        assert all(f_bound(field, s) - s == top["L"] for s in range(-4, 8))


def test_pi_assembly_rejects_unbounded_fields():
    res = run(REALS, "kq", PageWindow(0, 4, 0, 8, -2, 2), want_einf=False)
    with pytest.raises(ValueError, match="unbounded filtration"):
        assemble_pi(res.pages[1], (0, 2), (0, 2))
