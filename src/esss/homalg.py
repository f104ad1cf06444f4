"""Exact integer linear algebra for finite direct sums of cyclic groups.

Groups are presented by an ordered list of cyclic orders: 0 means a free
summand (Z, read 2-locally), any other value is the actual order of a finite
cyclic summand (always a power of 2 in this engine; asserted by callers).
Maps are integer matrices in the generator bases, columns indexed by source
summands.  All computations go through Smith normal form; nothing is ever
done modulo a proxy prime, so free-rank information is never lost.  `snf`
builds only the transforms its caller reads and keeps U^-1 up to date as it
eliminates, so no second SNF inverts U; `is_injective` decides injectivity
without a cokernel or generator vectors; `express_in_group` solves a batch
of vectors against one factorisation.
"""
from __future__ import annotations


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """The product A B, read from the nonzero entries only."""
    rows = len(A)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(rows)]
    if not A or not B:
        return out
    n = len(B)
    assert all(len(row) == n for row in A), "shape mismatch"
    assert all(len(row) == cols for row in B), "shape mismatch"
    b_rows = [[(j, y) for j, y in enumerate(row) if y] for row in B]
    for row, out_row in zip(A, out):
        for x, b_row in zip(row, b_rows):
            if x:
                for j, y in b_row:
                    out_row[j] += x * y
    return out


def mat_vec(A, v):
    return [sum(a * b for a, b in zip(row, v)) for row in A]


def snf(M, u=True, v=True, u_inv=False):
    """Smith normal form with transforms: returns (U, D, V, U^-1), U M V = D.

    D is diagonal (same shape as M) with d1 | d2 | ... and nonnegative
    entries; U and V are unimodular.  Only the transforms asked for are
    built; the others come back as None.  With u_inv=True the inverse of U
    is kept up to date during the elimination, each row operation on U
    matched by the inverse column operation.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    D = [row[:] for row in M]
    U = identity(m) if u else None
    # U^-1 and V are kept transposed, so that their column operations are
    # row operations on W and VT
    W = identity(m) if u_inv else None
    VT = identity(n) if v else None
    left = [X for X in (D, U) if X is not None]
    swapped = [X for X in (D, U, W) if X is not None]

    def add_row(i, j, c):
        # r_i += c r_j, so U^-1 gets c_j -= c c_i
        for X in left:
            X[i] = [a + c * b for a, b in zip(X[i], X[j])]
        if W is not None:
            W[j] = [a - c * b for a, b in zip(W[j], W[i])]

    t = 0
    while t < min(m, n):
        # pivot: the first entry of least absolute value in row-major order,
        # so the first unit is the pivot
        best, pi, pj = 0, t, t
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                a = row[j]
                if a and (not best or abs(a) < best):
                    best, pi, pj = abs(a), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        j = pj
        for X in swapped:
            X[t], X[pi] = X[pi], X[t]
        # every restart below strictly shrinks |D[t][t]| or the remaining work
        while True:
            if j != t:
                for row in D:
                    row[t], row[j] = row[j], row[t]
                if VT is not None:
                    VT[t], VT[j] = VT[j], VT[t]
                j = t
            for i in range(t + 1, m):
                if D[i][t]:
                    add_row(i, t, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        for X in swapped:
                            X[t], X[i] = X[i], X[t]
                        break
            else:
                # column t is zero below the pivot, so a column operation
                # changes row t only, until a swap brings in another column
                row_t = D[t]
                d = row_t[t]
                for j in range(t + 1, n):
                    if row_t[j]:
                        q = row_t[j] // d
                        row_t[j] -= q * d
                        if VT is not None:
                            VT[j] = [a - q * b for a, b in zip(VT[j], VT[t])]
                        if row_t[j]:
                            break
                else:
                    rem = None if d in (1, -1) else next(
                        (i for i in range(t + 1, m) for x in D[i][t + 1:] if x % d), None)
                    if rem is None:
                        break
                    add_row(t, rem, 1)
                    j = t
        if D[t][t] < 0:
            # row t of D is zero off the diagonal; U and U^-1 flip with it
            D[t][t] = -D[t][t]
            for X in swapped[1:]:
                X[t] = [-x for x in X[t]]
        t += 1
    V = [list(col) for col in zip(*VT)] if v else None
    return U, D, V, [list(col) for col in zip(*W)] if u_inv else None


def integer_kernel(M):
    """Columns spanning the integer kernel of M (as a list of column vectors)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if n == 0:
        return []
    _, D, V, _ = snf(M, u=False)
    return [[V[i][j] for i in range(n)] for j in range(n) if j >= min(m, n) or D[j][j] == 0]


def lattice_saturation_solve(gens, targets):
    """Express each target as an integer combination of the column vectors gens.

    The matrix of gens is factored once and every target solved against the
    same U, D, V.  Returns one coefficient vector per target, or None for a
    target not in the lattice.
    """
    r = len(gens)
    if r == 0:
        return [[] if not any(t) else None for t in targets]
    n = len(gens[0])
    U, D, V, _ = snf([[g[i] for g in gens] for i in range(n)])
    # rhs = U target must be divisible by the diagonal, and 0 past it
    diag = [D[i][i] if i < r else 0 for i in range(n)]
    out = []
    for rhs in (mat_vec(U, t) for t in targets):
        if any(b % d if d else b for b, d in zip(rhs, diag)):
            out.append(None)
        else:
            # y is 0 past min(n, r); mat_vec reads only its first r entries
            y = [b // d if d else 0 for b, d in zip(rhs, diag)]
            out.append(mat_vec(V, y))
    return out


class StructuredGroup:
    """Cyclic decomposition with generator expressions in ambient coordinates.

    orders[i] is 0 for Z and the cyclic order otherwise; gens[i] is the
    generator as an integer vector in the coordinates of the ambient
    presentation the group was computed from.
    """

    __slots__ = ("orders", "gens")

    def __init__(self, orders, gens):
        self.orders = orders
        self.gens = gens

    def __repr__(self):
        return f"StructuredGroup(orders={self.orders})"


def _presentation_from_relations(gen_vectors, relation_matrix):
    """Decompose span(gen_vectors)/relations into cyclics.

    gen_vectors: columns (in ambient coordinates) generating the subgroup.
    relation_matrix: r x t integer matrix whose columns are relations among
    the generators.  Returns a StructuredGroup with generator expressions in
    ambient coordinates; order-1 summands are dropped.
    """
    r = len(gen_vectors)
    if r == 0:
        return StructuredGroup([], [])
    amb = len(gen_vectors[0])
    rel = relation_matrix if relation_matrix and relation_matrix[0] else [[0] for _ in range(r)]
    if len(rel) != r:
        rel = [[0] for _ in range(r)]
    _, D, _, Uinv = snf(rel, u=False, v=False, u_inv=True)
    orders = []
    gens = []
    ncols = len(rel[0])
    for i in range(r):
        d = D[i][i] if i < min(r, ncols) else 0
        if d == 1:
            continue
        coeffs = [Uinv[k][i] for k in range(r)]
        vec = [sum(coeffs[k] * gen_vectors[k][a] for k in range(r)) for a in range(amb)]
        orders.append(d)
        gens.append(vec)
    return StructuredGroup(orders, gens)


def _kernel_lattice(A, n, tgt_orders):
    """Nonzero columns spanning {x in Z^n : A x in im diag(tgt_orders)}.

    That is the integer kernel of [A | -diag(tgt)] projected to x.
    """
    m = len(tgt_orders)
    if m:
        Mk = [[A[i][j] for j in range(n)] + [-tgt_orders[i] if k == i else 0 for k in range(m)]
              for i in range(m)]
        C = [col[:n] for col in integer_kernel(Mk)]
    else:
        C = identity(n)
    return [c for c in C if any(x != 0 for x in c)]


def _subquotient(C, orders, A=None):
    """span(C) / (span(C) & (im A + im diag(orders))) as a StructuredGroup.

    C holds nonzero columns in the coordinates of the cyclic sum with the
    given orders; A, if given, is a matrix with one row per coordinate.
    """
    r = len(C)
    n = len(orders)
    # relations: v with C v in im(A) + im diag(orders)
    Mr = []
    for i in range(n):
        row = [c[i] for c in C]
        if A is not None:
            row += [-x for x in A[i]]
        row += [-orders[i] if k == i else 0 for k in range(n)]
        Mr.append(row)
    rcols = integer_kernel(Mr)
    rel = [[col[j] for col in rcols] for j in range(r)] if rcols else [[0] for _ in range(r)]
    return _presentation_from_relations(C, rel)


def is_injective(A, src_orders, tgt_orders):
    """Whether the map A of cyclic sums has zero kernel, cheaply.

    No cokernel, relation SNF or generator: the kernel is L / (L & S), L the
    kernel lattice and S = im diag(src_orders), so it is zero exactly when
    each spanning column of L lies in S.
    """
    n = len(src_orders)
    assert len(A) == len(tgt_orders) and all(len(row) == n for row in A), "shape mismatch"
    for c in _kernel_lattice(A, n, tgt_orders):
        for x, d in zip(c, src_orders):
            if (x % d if d else x) != 0:
                return False
    return True


def homology_group(A, src_orders, B, mid_orders, tgt_orders):
    """ker(B)/im(A) for composable maps A: S -> M, B: M -> T of cyclic sums.

    Raises ValueError (not a complex) if B A is nonzero modulo the target
    orders.  Generators of the result are vectors in M's coordinates.
    """
    n_mid = len(mid_orders)
    BA = mat_mul(B, A)
    for i, row in enumerate(BA):
        for j, v in enumerate(row):
            if (tgt_orders[i] and v % tgt_orders[i] != 0) or (not tgt_orders[i] and v != 0):
                raise ValueError(
                    f"not a complex: composite nonzero at target {i}, source generator {j}"
                )
    if n_mid == 0:
        return StructuredGroup([], [])
    C = _kernel_lattice(B, n_mid, tgt_orders)
    if not C:
        return StructuredGroup([], [])
    return _subquotient(C, mid_orders, A)


def express_in_group(group: StructuredGroup, ambient_orders, vecs, modulo_cols=()):
    """Coordinates of ambient vectors in a StructuredGroup's generators.

    Solves vec = sum c_i gens[i] modulo the ambient orders and the extra
    columns in modulo_cols (e.g. an image to quotient by), for every vec in
    vecs with one factorisation; returns one coefficient list per vec,
    reduced modulo the group's own orders, or None where there is none.
    """
    n = len(ambient_orders)
    ext = list(group.gens) + list(modulo_cols)
    ext += [[ambient_orders[i] if k == i else 0 for k in range(n)]
            for i in range(n) if ambient_orders[i]]
    return [None if sol is None else [c % d if d else c for c, d in zip(sol, group.orders)]
            for sol in lattice_saturation_solve(ext, vecs)]
