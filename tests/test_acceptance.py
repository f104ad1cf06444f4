"""Acceptance suite: one test per criterion, exact tolerances, timed.

Every criterion prints its own pass line; the whole module is the exit
gate of the build.  Windows are as stated; where a criterion says "all
reachable w", the weight range spans enough tau powers below every slice
line to exercise each congruence class mod 8 and dyadic valuations up to
four, which is where every branch of the order formulas lives.
"""
import time

import pytest

from esss.engine import PageWindow, WindowError, run, _L_degree
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.groups import TriDegree
from esss.numthy import bernoulli_denom_two_part, nu2, s_q
from esss.oracles import les_oracle, mass_hz2n_oracle
from esss.pitable import assemble_pi, bernoulli_witness_order
from esss.rules import parse_rule_file
from esss.verify import TEN_FIELDS, dd_failures, hasse_reports, oracle_mismatches
from reference import isomorphic_orders


def _announce(num, text, t0):
    print(f"criterion {num}: PASS ({text}; {time.time() - t0:.1f}s)")


def test_criterion_01_coefficient_oracles():
    t0 = time.time()
    for field in TEN_FIELDS:
        assert oracle_mismatches(mass_hz2n_oracle, field) == [], field
    for field in (ALG_CLOSED, REALS):
        assert oracle_mismatches(les_oracle, field) == [], field
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _announce(1, "tower and long-exact-sequence oracles match the closed forms "
                 "over all ten field instances", t0)


def test_criterion_02_d_after_d_vanishes():
    """Every rule coefficient has period four in the tau exponent and
    period two in the v1 exponent, and unit words shift the weight by at
    most two, so ten weights per slice line cover every branch; a strip
    reaching 32 tau powers deep exercises large dyadic valuations in the
    torsion orders as well."""
    t0 = time.time()
    degrees = []
    regions = (((-4, 32), (0, 40), 0, 10), ((-4, 8), (0, 12), 10, 32))
    for (s_lo, s_hi), (f_lo, f_hi), skip, depth in regions:
        for s in range(s_lo, s_hi + 1):
            for f in range(f_lo, f_hi + 1):
                if (s + f) % 2 or s + f < 0:
                    continue
                c = (s + f) // 2
                degrees.extend(TriDegree(s, f, w)
                               for w in range(c - depth + 1, c + 1 - skip))
    checked = 0
    for field in TEN_FIELDS:
        for spectrum in ("kq", "L"):
            n, failures = dd_failures(field, spectrum, degrees)
            assert failures == [], (field, spectrum, failures[:1])
            checked += n
    elapsed = time.time() - t0
    assert checked > 5000
    assert elapsed < 10.0
    _announce(2, f"d after d = 0 on {checked} composable differentials, "
                 "stems -4..32, filtration 0..40, 10 weights per slice line "
                 "plus a 32-deep strip", t0)


def test_criterion_03_kq_closed_field():
    t0 = time.time()
    res = run(ALG_CLOSED, "kq", PageWindow(0, 12, 0, 14, -8, 7))
    assert res.status == "Einf"
    assert res.certificate.kind == "degree-vanishing"
    e = res.einf
    assert [cs.text() for cs in e.summands(TriDegree(4, 0, 2))] == ["Z{2 v1^2}"]
    assert e.summands(TriDegree(3, 3, 2)) == []
    # the collapsed pattern on stems 0..12: towers on the Bott rows, torsion
    # eta classes at tau^0 above filtration two, nothing else
    for deg in e.window.degrees():
        if not (0 <= deg.s <= 12):
            continue
        for cs in e.summands(deg):
            mono = cs.gen.lead
            a, ev = mono.h1, mono.v1
            assert ev % 4 in (0, 2)
            if cs.order == 0:
                assert a == 0 and (ev % 4 == 0) == (mono.coeff2 == 0)
            elif a >= 3:
                assert mono.tau == 0 and cs.order == 2 and ev % 4 == 0
            else:
                assert a in (1, 2) and cs.order == 2 and ev % 4 == 0
    _announce(3, "kq over the closure collapses at page 2 with a computed "
                 "degree-vanishing certificate and the hand-checked pattern", t0)


def test_criterion_04_kq_finite_fields():
    t0 = time.time()
    for q in (3, 5, 7, 13):
        res = run(Fq(q), "kq", PageWindow(0, 21, 0, 27, -10, 11))
        assert res.status == "Einf"
        assert res.certificate.kind == "degree-vanishing"
        table = assemble_pi(res.einf, (0, 20), (-8, 10))
        for k in (0, 1, 2):
            s = 8 * k + 3
            if q % 4 == 1:
                # h-extension glues the x column under tau^(i+2) h1^3 v1^4k
                entry = table.entries.get((s, 4 * k + 1), [])
                assert (1 << s_q(q, 0)) in [pe.order for pe in entry], (q, k)
                assert any(pe.glued for pe in entry)
            else:
                # i = 0 has no kernel class; the partner stands alone, and
                # the i = 1 instance glues to order 2^(s_q(1))
                entry = table.entries.get((s, 4 * k + 1), [])
                assert 2 in [pe.order for pe in entry], (q, k)
                entry = table.entries.get((s, 4 * k), [])
                assert (1 << s_q(q, 1)) in [pe.order for pe in entry], (q, k)
                assert any(pe.glued for pe in entry)
        # legend shapes: free classes only on the Bott rows, torsion 2-power
        for deg in res.einf.window.degrees():
            if not (0 <= deg.s <= 16):
                continue
            for cs in res.einf.summands(deg):
                assert cs.order == 0 or cs.order & (cs.order - 1) == 0
                if cs.order == 0:
                    assert deg.f == 0 and deg.s % 4 == 0
    _announce(4, "kq over F3, F5, F7, F13 collapses with computed certificates; "
                 "hidden extensions glue the stated columns for k = 0, 1, 2", t0)


def test_criterion_05_L_closed_field_table():
    t0 = time.time()
    res = run(ALG_CLOSED, "L", PageWindow(-3, 25, 0, 28, -10, 13))
    table = assemble_pi(res.einf, (-2, 24), (-8, 12))
    assert table.group_text(0, 0) == "Z{1} + Z/2{iota h1 tau}"
    assert table.group_text(3, 2) == "Z/8{iota v1^2}"
    assert table.group_text(7, 4) == "Z/16{iota v1^4}"
    # full row enumeration on the window
    from test_pitable import closed_field_rows
    rows = closed_field_rows((-2, 24), (-8, 12))
    keys = set(rows) | set(table.entries)
    for key in sorted(keys):
        assert table.orders(*key) == sorted(rows.get(key, [])), key
    _announce(5, "the homotopy table of L over the closure equals the row "
                 "enumeration with its gluing relation on stems -2..24", t0)


def test_criterion_06_bernoulli_bound():
    t0 = time.time()
    for k in range(1, 65):
        bound = bernoulli_denom_two_part(k) if k <= 40 else None
        ref = 1 << (nu2(k) + 3)
        if bound is not None:
            assert bound == ref
        for field in (ALG_CLOSED, Fq(3), Fq(5), Q2):
            assert bernoulli_witness_order(field, k) >= ref, (field, k)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _announce(6, "pi_(4k-1, 2k) of the fiber contains a cyclic summand of "
                 "order at least the 2-part of denom(B_2k/4k), equal to "
                 "2^(nu2(k)+3), for k <= 64 over four fields", t0)


def test_criterion_07_L_finite_fields():
    t0 = time.time()
    from esss.engine import _d1_L
    from test_pitable import fq_L_rows
    for q in (3, 5, 7, 9, 13, 17):
        field = Fq(q)
        # green firing pattern on the stated window
        for k in (1, 2, 3, 4, 5):
            for i in range(0, 12):
                deg = TriDegree(4 * k - 1, 1, 2 * k - 1 - i)
                if not (-2 <= deg.s <= 24):
                    continue
                summands, parts, _ = _L_degree(field, deg)
                idx = [t for t, cs in enumerate(summands)
                       if parts[t] == "K" and cs.gen.lead.units
                       and cs.gen.lead.tau == i]
                if not idx:
                    continue
                M = _d1_L(field, deg)
                fired = any(M[r][idx[0]] % 2 for r in range(len(M)))
                assert fired == ((k % 2 == 1) and s_q(q, i) <= nu2(k) + 3), (q, k, i)
        res = run(field, "L", PageWindow(-3, 25, 0, 30, -12, 13))
        assert res.certificate is not None
        table = assemble_pi(res.einf, (-1, 24), (-10, 12))
        rows = fq_L_rows(q, (-1, 24), (-10, 12))
        for (s, w), want in sorted(rows.items()):
            got = table.orders(s, w)
            for order in want:
                assert order in got, (q, s, w, order, got)
                got.remove(order)
    _announce(7, "green differentials over six finite fields fire exactly on "
                 "the stated arithmetic condition and the assembled tables "
                 "contain every reconciled family row", t0)


def test_criterion_08_tensor_decomposition():
    t0 = time.time()
    win = PageWindow(-3, 16, 0, 18, -8, 9)
    for q in (3, 5):
        for spectrum in ("kq", "L"):
            res_q = run(Qq(q), spectrum, win)
            res_f = run(Fq(q), spectrum, win)
            for pq, pf in ((res_q.pages[0], res_f.pages[0]),
                           (res_q.einf, res_f.einf)):
                for deg in pq.window.degrees():
                    if not (-3 <= deg.s <= 16):
                        continue
                    up = TriDegree(deg.s + 1, deg.f - 1, deg.w + 1)
                    if up not in pf.window:
                        continue
                    want = pf.orders(deg) + pf.orders(up)
                    assert isomorphic_orders(pq.orders(deg), want), \
                        (q, spectrum, pq.r, deg)
    _announce(8, "first and collapsed pages over Q3, Q5 equal the finite-field "
                 "pages tensored with the pi classes on stems -3..16", t0)


def test_criterion_09_q2_collapse_and_patterns():
    t0 = time.time()
    win = PageWindow(-3, 8, 0, 12, -16, 4)
    res_kq = run(Q2, "kq", win)
    res_L = run(Q2, "L", win)
    assert res_kq.certificate.kind == "cited"
    assert res_L.certificate.kind == "cited"
    e2 = res_L.einf
    plain = sorted(w for w in range(-14, 4)
                   for cs in e2.summands(TriDegree(1, 5, w))
                   if cs.gen.is_single() and cs.gen.lead.units == (("rho", 2),))
    assert plain == [-11, -7, -3, 1]  # Z/2[tau^4]{rho^2 h1^3}
    k2 = res_kq.einf
    assert [cs.text() for cs in k2.summands(TriDegree(2, 2, -1))] == \
        ["Z/8{h1^2 tau^3 + rho^2 v1^2 tau}"]
    assert [cs.text() for cs in k2.summands(TriDegree(1, 1, 1))] == ["Z/2{h1}"]
    assert [cs.text() for cs in k2.summands(TriDegree(0, 4, 0))] == \
        ["Z/2{rho^2 h1^2}"]
    assert k2.summands(TriDegree(0, 4, -1)) == []  # tau^1 target is hit
    _announce(9, "both 2-adic spectral sequences collapse with cited "
                 "certificates and the worked second-page patterns match", t0)


def test_criterion_10_hasse_injectivity():
    t0 = time.time()
    degs = list(PageWindow(-3, 16, 0, 12, -4, 14).degrees())
    win = PageWindow(-3, 16, 0, 12, -4, 8)
    for spectrum in ("kq", "L"):
        rep, rep2 = hasse_reports(spectrum, degs, win)
        assert rep.all_injective
        assert rep.all_commute
        assert rep2.all_injective
    _announce(10, "the product comparison maps to the completions are "
                  "injective per tridegree on the first and second pages "
                  "for both spectra, support {3,5,7}", t0)


def test_criterion_11_deferred_higher_rules():
    t0 = time.time()
    win = PageWindow(-2, 8, 0, 12, -6, 4)
    for field in (REALS, Q((2, 3, 5))):
        res = run(field, "L", win, want_einf=False)
        assert res.status == "E2 only"
        assert res.einf is None and res.certificate is None
        with pytest.raises(WindowError):
            run(field, "L", win, want_einf=True)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".rules")
    os.close(fd)
    try:
        with open(path, "w") as fh:
            fh.write("# intentionally empty\n")
        res = run(REALS, "L", win, parse_rule_file(REALS, path), want_einf=False)
        assert res.status == "E2 only"
        assert res.certificate is None
    finally:
        os.unlink(path)
    _announce(11, "without higher-rule files the real and rational fiber "
                  "runs stop at page 2 and refuse certification, also with "
                  "an empty rule file", t0)


def test_criterion_12_determinism():
    t0 = time.time()
    from esss.serialize import document_json, page_document

    res1 = run(Fq(5), "L", PageWindow(-2, 8, 0, 12, -4, 4))
    res2 = run(Fq(5), "L", PageWindow(-2, 8, 0, 12, -4, 4))
    assert document_json(page_document(res1.einf, res1)) == \
        document_json(page_document(res2.einf, res2))
    from esss.charts import chart_svg
    assert chart_svg(res1.einf, (0, 8), (0, 8)) == chart_svg(res2.einf, (0, 8), (0, 8))
    _announce(12, "byte-stable outputs across repeated runs", t0)
