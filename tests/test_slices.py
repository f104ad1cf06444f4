import esss.engine as engine
import esss.slices as slices
from esss.coefficients import coeff_classes, coefficient_stems
from esss.engine import _L_degree
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.groups import Monomial, TriDegree
from esss.numthy import NU_INFINITY, nu2, s_q
from esss.pitable import compute_pi_group
from esss.slices import e1_kq_basis, psi3_entries
from reference import e1_kq_all_cells, slices_kq, slices_L

THIRTEEN_FIELDS = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(9), Fq(13), Qq(3), Qq(5), Qq(7), Q2,
                   REALS, Q((2,)), Q((2, 3, 5, 7))]


def cells(summands):
    return [(sl.stem, sl.weight,
             "Z" if sl.modulus is NU_INFINITY else 1 << sl.modulus)
            for sl in summands]


def test_slices_kq():
    assert slices_kq(-1) == ()
    assert cells(slices_kq(0)) == [(0, 0, "Z")]
    assert cells(slices_kq(2)) == [(2, 2, 2), (4, 2, "Z")]
    assert cells(slices_kq(3)) == [(3, 3, 2), (5, 3, 2)]


def test_slices_kq_weight_equals_slice_index():
    for c in range(0, 33):
        for sl in slices_kq(c):
            assert sl.weight == c
            assert sl.cell.h1 + sl.cell.v1 == c


def test_slices_L():
    assert slices_L(-2) == ()
    assert cells(slices_L(0)) == [(-1, 0, "Z"), (0, 0, "Z")]
    assert cells(slices_L(1)) == [(0, 1, 2), (1, 1, 2)]
    assert cells(slices_L(2)) == [(1, 2, 2), (2, 2, 2), (3, 2, 8)]
    # the displayed stem list: c+i for -1 <= i <= c-2, plus a top cell
    for c in range(1, 20):
        stems = sorted(sl.stem for sl in slices_L(c))
        assert stems == list(range(c - 1, 2 * c - 1)) + [2 * c - 1]


def test_e1_kq_spot_values():
    assert [cs.text() for cs in e1_kq_basis(ALG_CLOSED, TriDegree(1, 1, 1))] == ["Z/2{h1}"]
    assert [cs.text() for cs in e1_kq_basis(ALG_CLOSED, TriDegree(4, 0, 2))] == ["Z{v1^2}"]
    assert [cs.text() for cs in e1_kq_basis(Fq(3), TriDegree(3, 1, -2))] == ["Z/16{rho v1^2 tau^3}"]
    assert e1_kq_basis(ALG_CLOSED, TriDegree(1, 2, 1)) == []  # odd s+f
    assert e1_kq_basis(ALG_CLOSED, TriDegree(0, -2, 0)) == []


def test_kq_basis_holds_the_callers_degree():
    deg = TriDegree(3, 1, -2)
    basis = e1_kq_basis(Fq(3), deg)
    assert basis and all(cs.degree is deg and cs.gen == (cs.gen.lead,) for cs in basis)


def test_psi3_entries():
    basis = e1_kq_basis(Fq(3), TriDegree(4, 0, 2))
    assert psi3_entries(Fq(3), basis) == [8]
    basis = e1_kq_basis(Fq(3), TriDegree(8, 0, 4))
    assert psi3_entries(Fq(3), basis) == [16]
    basis = e1_kq_basis(Fq(3), TriDegree(3, 3, 1))  # mod-2 cell classes
    assert psi3_entries(Fq(3), basis) == [0] * len(basis)
    basis = e1_kq_basis(Fq(3), TriDegree(0, 0, 0))  # weight-0 slice
    assert psi3_entries(Fq(3), basis) == [0]


def kc_classes(field, mono):
    """Kernel and cokernel classes of psi^3 - 1 on the kq class named mono,
    as the first page of L carries them: the kernel class in the same
    tridegree, the cokernel (iota) class one stem lower."""
    deg = mono.degree()
    summands, parts, _ = _L_degree(field, deg)
    ker = [cs for cs, p in zip(summands, parts)
           if p == "K" and cs.gen.lead.with_coeff2(0) == mono]
    summands, parts, _ = _L_degree(field, TriDegree(deg.s - 1, deg.f + 1, deg.w))
    cok = [cs for cs, p in zip(summands, parts)
           if p == "C" and cs.gen.lead == mono._replace(iota=1)]
    return ker, cok


def test_kc_families_f3():
    (ker,), (cok,) = kc_classes(Fq(3), Monomial(v1=2, tau=3, units=(("rho", 1),)))
    # s_3(3) = 4 > nu2(1)+3: kernel generated by twice the class
    assert ker.text() == "Z/8{2 rho v1^2 tau^3}"
    assert cok.order == 8  # exact cokernel of *8 on Z/16
    assert cok.gen.text() == "iota rho v1^2 tau^3"


def test_kc_families_f5():
    (ker,), (cok,) = kc_classes(Fq(5), Monomial(v1=2, units=(("u", 1),)))
    assert ker.text() == "Z/4{u v1^2}"
    assert cok.text() == "Z/4{iota u v1^2}"


def test_kc_families_k0_full():
    # psi^3 - 1 vanishes on the weight-0 slice: kernel and cokernel are whole
    for i in range(8):
        (ker,), (cok,) = kc_classes(Fq(5), Monomial(tau=i, units=(("u", 1),)))
        assert ker.order == 1 << s_q(5, i)
        assert cok.order == 1 << s_q(5, i)


def test_kc_order_bookkeeping():
    # log ker + log coker = 2 min(s_q(i), nu2(k)+3) on every summand
    for q in (3, 5, 7, 9):
        x = Fq(q).x_symbol
        for k in (1, 2, 3, 4):
            for i in range(12):
                (ker,), (cok,) = kc_classes(Fq(q), Monomial(v1=2 * k, tau=i, units=((x, 1),)))
                lk = ker.order.bit_length() - 1
                lc = cok.order.bit_length() - 1
                assert lk + lc == 2 * min(s_q(q, i), nu2(k) + 3)


def test_kc_families_q2_underlined():
    # the free integral classes have no kernel; their cokernel has order 8
    for units, tau in (((("u", 1),), 0), ((("pi", 1),), 0), ((("u", 1),), 1)):
        ker, (cok,) = kc_classes(Q2, Monomial(v1=2, tau=tau, units=units))
        assert ker == [] and cok.order == 8
    (ker,), _ = kc_classes(Q2, Monomial(v1=2, tau=3, units=(("rho", 2),)))
    assert ker.text() == "Z/8{2 rho^2 v1^2 tau^3}"


def test_e1_window_parity_guard():
    # degrees with odd s+f carry no classes for either construction input
    for s in range(-2, 6):
        for f in range(0, 6):
            if (s + f) % 2:
                assert e1_kq_basis(Qq(3), TriDegree(s, f, 0)) == []


def test_groups_vanish_outside_the_coefficient_stems():
    """pi_{s,w}(HZ/2^n) = 0 off coefficient_stems(field, w), which
    e1_kq_basis reads to skip slice cells; where the band is not empty some
    modulus has a class at both of its ends."""
    groups = coeff_classes.__wrapped__  # uncached: this grid would flush the table
    grid = range(-40, 8)
    for field in THIRTEEN_FIELDS:
        for w in grid:
            band = coefficient_stems(field, w)
            nonzero = {s for s in grid for n in (1, 2, 3, 4, NU_INFINITY)
                       if groups(field, n, s, w)}
            assert nonzero <= set(band), (field, w, sorted(nonzero - set(band)))
            if band:
                assert {band[0], band[-1]} <= nonzero, (field, w)


def test_e1_kq_basis_equals_the_all_cells_enumeration():
    """Visiting only the cells whose coefficients can be nonzero gives the
    classes of every cell: on the e1_sweep window over thirteen fields, and
    at stems 127 and 255, where a slice has up to 130 cells."""
    degrees = [TriDegree(s, f, w) for s in range(-4, 19) for f in range(-1, 23)
               for w in range(-8, 12)]
    degrees += [TriDegree(s, f, w) for s in (127, 255) for f in range(0, 8)
                for w in range(-3, (s + f) // 2 + 2)]
    for field in THIRTEEN_FIELDS:
        for deg in degrees:
            assert e1_kq_basis(field, deg) == e1_kq_all_cells(field, deg), (field, deg)


def test_pi_columns_read_few_coefficient_groups(monkeypatch):
    """A pi window at stem 4k - 1 reads a few coefficient groups per degree,
    not one per cell of its slice, so the count does not grow with k
    (116,561 and 451,897 when every cell was read)."""
    engine._clear()
    calls = []

    def counted(*args):
        calls.append(args)
        return coeff_classes(*args)

    monkeypatch.setattr(slices, "coeff_classes", counted)
    for field, s, w in ((Fq(3), 255, 128), (ALG_CLOSED, 511, 256)):
        calls.clear()
        compute_pi_group(field, "L", s, w)
        assert len(calls) <= 2_000, (field.text(), len(calls))
