"""Exact linear algebra over F2[x] localized at x, for h0-tower complexes.

Polynomials over F2 are stored as Python ints (bit i = coefficient of x^i);
addition is xor and multiplication is carryless.  Every nonzero element is
a unit times a power of x, so Smith normal form needs no Euclidean loops:
the minimal-valuation pivot divides everything exactly.  Computations are
carried modulo x^P for a working precision P; cleared entries are exactly
zero, and callers assert that every extracted valuation stays well below P.
"""
from __future__ import annotations

from .homalg import identity


def clmul(a: int, b: int) -> int:
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def val(a: int) -> int:
    assert a != 0
    return (a & -a).bit_length() - 1


def trunc(a: int, P: int) -> int:
    return a & ((1 << P) - 1)


def sum_xor(items):
    r = 0
    for x in items:
        r ^= x
    return r


def unit_inv(u: int, P: int) -> int:
    """Inverse of u (constant term 1) modulo x^P, by Newton doubling.

    With uv = 1 + e the update v <- v(uv) squares the error term e.
    """
    assert u & 1
    v = 1
    prec = 1
    while prec < P:
        prec = min(2 * prec, P)
        uv = trunc(clmul(u, v), prec)
        v = trunc(clmul(v, uv), prec)
    return v


def div_exact(a: int, b: int, P: int) -> int:
    """a / b in F2[[x]] mod x^P, assuming val(a) >= val(b)."""
    if a == 0:
        return 0
    vb = val(b)
    assert val(a) >= vb
    return trunc(clmul(a >> vb, unit_inv(b >> vb, P)), P)


def snf_dvr(M, P):
    """(D, V, U^-1) with U M V = D diagonal over F2[[x]] mod x^P.

    Diagonal entries are normalized to pure powers of x (or 0); U and V are
    invertible over the local ring.  U is never built: each row operation
    on D is matched by the inverse column operation on U^-1, kept
    transposed as W so that those are row operations too.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D = [[trunc(v, P) for v in row] for row in M]
    W = identity(m)
    V = identity(n)
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] and (piv is None or val(D[i][j]) < piv[2]):
                    piv = (i, j, val(D[i][j]))
        if piv is None:
            break
        pi, pj, _ = piv
        if pi != t:
            D[t], D[pi] = D[pi], D[t]
            W[t], W[pi] = W[pi], W[t]
        if pj != t:
            for row in D:
                row[t], row[pj] = row[pj], row[t]
            for row in V:
                row[t], row[pj] = row[pj], row[t]
        p = D[t][t]
        for i in range(t + 1, m):
            if D[i][t]:
                # r_i ^= q r_t, so U^-1 gets c_t ^= q c_i
                q = div_exact(D[i][t], p, P)
                for j in range(n):
                    D[i][j] = trunc(D[i][j] ^ clmul(q, D[t][j]), P)
                for j in range(m):
                    W[t][j] = trunc(W[t][j] ^ clmul(q, W[i][j]), P)
        for j in range(t + 1, n):
            if D[t][j]:
                q = div_exact(D[t][j], p, P)
                for i in range(m):
                    D[i][j] = trunc(D[i][j] ^ clmul(q, D[i][t]), P)
                for i in range(n):
                    V[i][j] = trunc(V[i][j] ^ clmul(q, V[i][t]), P)
        # normalize the pivot to a pure power of x; U^-1 takes the unit
        u = p >> val(p)
        if u != 1:
            inv = unit_inv(u, P)
            for j in range(n):
                D[t][j] = trunc(clmul(D[t][j], inv), P)
            for j in range(m):
                W[t][j] = trunc(clmul(W[t][j], u), P)
        t += 1
    return D, V, [list(col) for col in zip(*W)]


def dvr_kernel(M, P):
    """Columns generating the kernel lattice of M over F2[[x]] (mod x^P)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    D, V, _ = snf_dvr(M, P)
    cols = []
    for j in range(n):
        d = D[j][j] if j < min(m, n) else 0
        if d == 0:
            cols.append([V[i][j] for i in range(n)])
    return cols


def dvr_presentation(gen_vectors, relation_matrix, P):
    """Decompose span(gens)/relations into cyclic x-power modules.

    Returns (torsion_vals, gens) where torsion_vals[i] is the x-valuation of
    the i-th invariant factor (None for a free summand) and gens[i] is the
    generator expressed in ambient coordinates (polynomial entries).
    """
    r = len(gen_vectors)
    if r == 0:
        return [], []
    amb = len(gen_vectors[0])
    rel = relation_matrix if relation_matrix and relation_matrix[0] else [[0] for _ in range(r)]
    if len(rel) != r:
        rel = [[0] for _ in range(r)]
    D, _, Uinv = snf_dvr(rel, P)
    ncols = len(rel[0])
    vals = []
    gens = []
    for i in range(r):
        d = D[i][i] if i < min(r, ncols) else 0
        if d != 0 and val(d) == 0:
            continue  # unit relation: trivial summand
        coeffs = [Uinv[k][i] for k in range(r)]
        vec = [trunc(sum_xor(clmul(coeffs[k], gen_vectors[k][a]) for k in range(r)), P)
               for a in range(amb)]
        if d == 0:
            vals.append(None)
        else:
            v = val(d)
            assert v < P - 8, "valuation hit the working precision"
            vals.append(v)
        gens.append(vec)
    return vals, gens


def dvr_homology(A, B, n_mid_orders, n_src, n_tgt_orders, P):
    """ker(B)/im(A) for R-module maps R^src -> R^mid -> R^tgt.

    Module truncations are passed as per-generator valuations (None = free,
    v = relation x^v).  Matrices have polynomial entries; B A must vanish
    modulo the target truncations.
    """
    n_mid = len(n_mid_orders)
    if n_mid == 0:
        return [], []
    m_tgt = len(n_tgt_orders)
    n_src_dim = n_src
    # sanity: B A = 0 mod target truncations
    for i in range(m_tgt):
        for j in range(n_src_dim):
            v = sum_xor(clmul(B[i][k], A[k][j]) for k in range(n_mid))
            v = trunc(v, P)
            o = n_tgt_orders[i]
            if o is not None:
                v &= (1 << o) - 1
            if v:
                raise ValueError("not a complex over F2[x]")
    if m_tgt:
        Mk = [[trunc(B[i][j], P) for j in range(n_mid)]
              + [(1 << n_tgt_orders[i]) if (k == i and n_tgt_orders[i] is not None) else 0
                 for k in range(m_tgt)]
              for i in range(m_tgt)]
        kcols = dvr_kernel(Mk, P)
        C = [col[:n_mid] for col in kcols]
    else:
        C = [[1 if a == i else 0 for a in range(n_mid)] for i in range(n_mid)]
    C = [c for c in C if any(c)]
    if not C:
        return [], []
    r = len(C)
    Mr = []
    for i in range(n_mid):
        row = [C[j][i] for j in range(r)]
        row += [A[i][j] for j in range(n_src_dim)]
        row += [(1 << n_mid_orders[i]) if (k == i and n_mid_orders[i] is not None) else 0
                for k in range(n_mid)]
        Mr.append(row)
    rcols = dvr_kernel(Mr, P)
    rel = [[col[j] for col in rcols] for j in range(r)] if rcols else [[0] for _ in range(r)]
    return dvr_presentation(C, rel, P)
