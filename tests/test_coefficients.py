"""Coefficient modules: spot values and the closed-form/oracle cross-checks."""
import hashlib

import pytest

from esss import oracles, verify
from esss.coefficients import coeff_classes, coeff_hz2
from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from esss.numthy import NU_INFINITY
from esss.oracles import les_oracle, mass_hz2n_oracle
from reference import isomorphic_orders

TEN_FIELDS = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(13), Qq(3), Qq(5), Q2, REALS,
              Q((2, 3, 5, 7))]


def coeff_hz(field, s, w):
    """pi_{s,w}(HZ), 2-locally: free summands have order 0."""
    return coeff_classes(field, NU_INFINITY, s, w)


def orders(classes):
    return sorted(cs.order for cs in classes)


def texts(classes):
    return sorted(cs.text() for cs in classes)


def test_hz2_spot_values():
    assert texts(coeff_hz2(ALG_CLOSED, 0, -3)) == ["Z/2{tau^3}"]
    assert texts(coeff_hz2(Fq(5), -1, -2)) == ["Z/2{u tau}"]
    assert texts(coeff_hz2(Q2, -2, -2)) == ["Z/2{rho^2}"]
    assert texts(coeff_hz2(REALS, -2, -5)) == ["Z/2{rho^2 tau^3}"]
    assert coeff_hz2(ALG_CLOSED, -1, -1) == []
    assert coeff_hz2(Fq(5), 0, 1) == []


def test_hz_spot_values():
    assert texts(coeff_hz(Fq(5), -1, -1)) == ["Z/4{u}"]
    assert texts(coeff_hz(REALS, 0, -2)) == ["Z{tau^2}"]
    got = texts(coeff_hz(Q((2, 3, 5)), -1, -1))
    assert got == sorted(["Z{[3]}", "Z{[5]}", "Z{pi}", "Z/2{rho}"])
    assert texts(coeff_hz(Q2, -1, -1)) == sorted(["Z{u}", "Z{pi}", "Z/2{rho}"])
    assert texts(coeff_hz(Q2, -1, -3)) == sorted(["Z{pi tau^2}", "Z/2{rho tau^2}"])
    assert texts(coeff_hz(Q2, -2, -3)) == ["Z/8{rho^2 tau}"]


def test_hz2n_spot_values():
    # finite field: i(1) = min(s_5(0), 3) = 2 at (0, -1)
    assert texts(coeff_classes(Fq(5), 3, 0, -1)) == ["Z/4{2 tau}"]
    assert texts(coeff_classes(ALG_CLOSED, 2, 0, -1)) == ["Z/4{tau}"]
    assert texts(coeff_classes(Q2, 1, -2, -3)) == ["Z/2{rho^2 tau}"]
    assert texts(coeff_classes(Fq(5), 2, 0, 0)) == ["Z/4{1}"]
    assert texts(coeff_classes(Fq(5), 2, -1, -1)) == ["Z/4{u}"]


def test_hz2n_modulus_one_is_mod2():
    windows = [(s, w) for s in range(-4, 1) for w in range(-9, 1)]
    for field in TEN_FIELDS:
        for s, w in windows:
            assert isomorphic_orders(
                orders(coeff_classes(field, 1, s, w)),
                orders(coeff_hz2(field, s, w)),
            ), (field, s, w)


def test_qq_is_fq_tensor():
    # Eqn-level tensor relation: Qq classes = Fq classes + pi-shifted copy
    for q in (3, 5):
        for s in range(-4, 1):
            for w in range(-9, 1):
                got = orders(coeff_hz(Qq(q), s, w))
                want = sorted(orders(coeff_hz(Fq(q), s, w))
                              + orders(coeff_hz(Fq(q), s + 1, w + 1)))
                assert got == want, (q, s, w)


def test_q_locality():
    # the [p]-decorated part matches the pi-divisible part over Q_p
    field = Q((2, 3, 5))
    for p in (3, 5):
        for s in range(-3, 0):
            for w in range(-8, 0):
                local = [cs for cs in coeff_hz(Qq(p), s, w)
                         if "pi" in dict(cs.gen.lead.units)]
                glob = [cs for cs in coeff_hz(field, s, w)
                        if f"[{p}]" in dict(cs.gen.lead.units)]
                assert isomorphic_orders(orders(local), orders(glob)), (p, s, w)


def test_modulus_surjection_order_nonincreasing():
    for field in TEN_FIELDS:
        for s in range(-3, 1):
            for w in range(-8, 1):
                for n in (1, 2, 3):
                    small = coeff_classes(field, n, s, w)
                    big = coeff_classes(field, n + 1, s, w)
                    total_small = sum(cs.order.bit_length() - 1 for cs in small)
                    total_big = sum(cs.order.bit_length() - 1 for cs in big)
                    assert total_small <= total_big, (field, n, s, w)


MODULI = [1, 2, 3, 4, NU_INFINITY]


@pytest.mark.parametrize("field", TEN_FIELDS, ids=lambda f: f.text())
def test_mass_oracle_matches_closed_form(field):
    for n in MODULI:
        for s in range(-4, 1):
            for w in range(-12, 1):
                got = orders(mass_hz2n_oracle(field, n, s, w))
                want = orders(coeff_classes(field, n, s, w))
                assert got == want, (field, n, s, w, got, want)


@pytest.mark.parametrize("field", [ALG_CLOSED, REALS], ids=lambda f: f.text())
def test_les_oracle_matches_closed_form(field):
    for n in MODULI:
        for s in range(-4, 1):
            for w in range(-12, 1):
                got = orders(les_oracle(field, n, s, w))
                want = orders(coeff_classes(field, n, s, w))
                assert got == want, (field, n, s, w, got, want)


def test_les_oracle_spot_names():
    assert texts(les_oracle(REALS, 1, -1, -1)) == ["Z/2{rho}"]
    assert texts(les_oracle(ALG_CLOSED, 3, 0, 0)) == ["Z/8{1}"]
    assert texts(les_oracle(REALS, 2, 0, -2)) == ["Z/4{tau^2}"]


def test_classes_and_oracle_outputs_are_pinned():
    """Closed-form and tower-oracle classes, names and order included, over
    the checked fields, n = 1..4 and infinity, stems -4..0, weights -12..0.
    The cross-checks above compare orders only; generator names feed the d1
    rules and the goldens, and the oracle's come from the homology
    generators of homalg.homology_group."""
    h = hashlib.sha256()
    for field in verify.TEN_FIELDS:
        for n in MODULI:
            for s in range(-4, 1):
                for w in range(-12, 1):
                    h.update(repr(coeff_classes(field, n, s, w)).encode())
                    h.update(repr(mass_hz2n_oracle(field, n, s, w)).encode())
    assert h.hexdigest() == "f56e9158eab4a23f2685d3c16d7607de1b4f40af335c27478c55e047eced2a79"


def test_mass_oracle_rejects_two_rules_with_one_target(monkeypatch):
    """The tower homology is read over Z_(2) only for rule tables that hit
    each class at most once; here u, pi and rho tau^2 over Q2 all hit
    rho^2 tau, so the oracle must refuse."""
    def rule(field, units, tau):
        if len(units) == 1 and units[0][1] == 1 and tau >= 1:
            return 1, (("rho", 2),)
        return None

    monkeypatch.setattr(oracles, "_adams_rule", rule)
    with pytest.raises(AssertionError, match="two rules hit"):
        mass_hz2n_oracle(Q2, 1, -1, -3)
