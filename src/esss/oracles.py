"""Independent oracles for the HZ/2^n coefficient modules.

mass_hz2n_oracle runs the mod-2-tower spectral sequence: the starting term
is the mod-2 coefficient module tensored with a truncated h0-polynomial
algebra and the differentials are the finite per-class rule table below.
The whole tower is a complex of modules over F2[[h0]] whose abutment is
the homology of that complex.  Each of its maps sends a class to at most
one class, times h0^page, and no class is hit twice, so the complex is a
sum of chains of cyclic modules and its homology depends only on the
valuations of the entries; homalg computes it over Z_(2) with h0 read as
2, and each invariant factor 2^v is the h0-tower of height v.

les_oracle computes the same modules for algebraically closed fields and
the reals from the multiplication-by-2^n long exact sequence instead.

Over Q the module splits into place-indexed blocks (a real block, a
2-adic block of pi classes, and one finite-field block per odd prime in
the support); the oracle runs each block and assembles the results.
"""
from __future__ import annotations

from .coefficients import coeff_classes, mod2_classes, _decorated, _summand
from .fields import FieldId, Fq
from .groups import CyclicSummand, Generator, Monomial
from .homalg import homology_group
from .numthy import NU_INFINITY, nu2, s_q


def _adams_rule(field: FieldId, units, tau):
    """The differential a mod-2 class supports: (page, target unit word).

    The target sits one stem and one tau power down; at most one rule
    applies to any class, and it has one target.
    """
    kind = field.kind
    if kind == "c":
        return None
    if kind == "fq":
        if units == () and tau >= 1:
            return s_q(field.q, tau - 1), ((field.x_symbol, 1),)
        return None
    if kind == "qq":
        x = field.x_symbol
        if units == () and tau >= 1:
            return s_q(field.q, tau - 1), ((x, 1),)
        if units == (("pi", 1),) and tau >= 1:
            return s_q(field.q, tau - 1), tuple(sorted(((x, 1), ("pi", 1))))
        return None
    if kind == "q2":
        if units == ():
            if tau % 2 == 1:
                return 1, (("rho", 1),)
            if tau >= 2:
                return 3 + nu2(tau // 2), (("pi", 1),)
            return None
        if units == (("u", 1),) and tau >= 2 and tau % 2 == 0:
            return 3 + nu2(tau // 2), (("rho", 2),)
        if units == (("rho", 1),) and tau % 2 == 1:
            return 1, (("rho", 2),)
        return None
    if kind == "r":
        if tau % 2 == 1:
            e = units[0][1] if units else 0
            return 1, (("rho", e + 1),)
        return None
    raise AssertionError(f"no direct rule table for {kind}")


def _rule_matrix(field, src_classes, tgt_classes):
    """The rule table from src_classes to tgt_classes, entry 2^page, as rows of dicts.

    Each column holds at most one entry, as each rule has one target; the
    assertion keeps each row to at most one as well.
    """
    index = {c: i for i, c in enumerate(tgt_classes)}
    M = [{} for _ in tgt_classes]
    for j, (units, tau) in enumerate(src_classes):
        rule = _adams_rule(field, units, tau)
        if rule is None:
            continue
        page, target = rule
        i = index.get((target, tau - 1))
        if i is not None:
            assert not M[i], f"two rules hit {target} tau^{tau - 1} over {field}"
            M[i][j] = 1 << page
    return M


def _mass_block(field: FieldId, n, s: int, w: int):
    """One bidegree of the tower homology for a single field block.

    Both rule matrices are partial monomial permutations (_rule_matrix),
    which is why reading the tower over Z_(2) with h0 = 2 is exact (module
    docstring); each generator is named by its classes of least 2-valuation.
    """
    o = 0 if n is NU_INFINITY else 1 << n
    up = mod2_classes(field, s + 1, w)
    mid = mod2_classes(field, s, w)
    down = mod2_classes(field, s - 1, w)
    if not mid:
        return []
    A = _rule_matrix(field, up, mid)
    B = _rule_matrix(field, mid, down)
    group = homology_group(A, [o] * len(up), B, [o] * len(mid), [o] * len(down))
    out = []
    for order, gvec in zip(group.orders, group.gens):
        lead = min(nu2(abs(c)) for c in gvec if c)
        monos = []
        for k, c in enumerate(gvec):
            if c and nu2(abs(c)) == lead:
                units, tau = mid[k]
                monos.append(Monomial(coeff2=lead, tau=tau, units=units))
        gen = Generator.of(*monos)
        out.append(CyclicSummand(order, gen, gen.degree()))
    return out


def mass_hz2n_oracle(field: FieldId, n, s: int, w: int):
    """pi_{s,w}(HZ/2^n) via the tower spectral sequence (exponent n or infinity)."""
    if field.kind == "q":
        out = []
        for cs in _mass_block(FieldId("q2"), n, s, w):
            if cs.gen.lead.units == (("pi", 1),):
                out.append(cs)
        out.extend(_mass_block(FieldId("r"), n, s, w))
        for p in field.odd_support():
            out.extend(_decorated(_mass_block(Fq(p), n, s + 1, w + 1), ((f"[{p}]", 1),)))
        return out
    return _mass_block(field, n, s, w)


def les_oracle(field: FieldId, n, s: int, w: int):
    """pi_{s,w}(HZ/2^n) from the times-2^n long exact sequence.

    Supported for algebraically closed fields and the reals, where the
    integral coefficient module is completely known: the answer is the
    cokernel of 2^n in this bidegree plus the kernel of 2^n one stem down.
    """
    if field.kind not in ("c", "r"):
        raise ValueError(f"les_oracle supports algebraically closed fields and R, not {field}")
    if n is NU_INFINITY:
        return list(coeff_classes(field, n, s, w))
    out = []
    for cs in coeff_classes(field, NU_INFINITY, s, w):
        mono = cs.gen.lead
        if cs.order == 0:
            out.append(_summand(1 << n, mono.units, mono.tau))
        else:
            e = cs.order.bit_length() - 1
            out.append(_summand(1 << min(e, n), mono.units, mono.tau,
                                coeff2=max(e - n, 0)))
    for cs in coeff_classes(field, NU_INFINITY, s - 1, w):
        if cs.order == 0:
            continue
        e = cs.order.bit_length() - 1
        mono = cs.gen.lead
        # the boundary preimage one stem up: over R this trades one rho for a tau
        rho_e = dict(mono.units).get("rho", 0)
        assert field.kind == "r" and rho_e >= 1, "unexpected integral torsion"
        units = (("rho", rho_e - 1),) if rho_e > 1 else ()
        out.append(_summand(1 << min(e, n), units, mono.tau + 1, coeff2=max(n - e, 0)))
    return out
