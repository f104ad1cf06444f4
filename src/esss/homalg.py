"""Exact integer linear algebra for finite direct sums of cyclic groups.

Groups are presented by an ordered list of cyclic orders: 0 means a free
summand (Z, read 2-locally), any other value is the actual order of a finite
cyclic summand (always a power of 2 in this engine; asserted by callers).
Maps are integer matrices in the generator bases, columns indexed by source
summands.  All computations go through Smith normal form; nothing is ever
done modulo a proxy prime, so free-rank information is never lost.  The
elimination runs on the nonzero entries, one dict per row, and keeps only
the transforms its caller reads, U^-1 included, so no second SNF inverts U;
`homology_group` works on such rows throughout, `is_injective` decides
injectivity without a cokernel or generator vectors, and
`express_in_group` solves a batch of vectors against one factorisation.
"""
from __future__ import annotations


def _rows(M):
    return [{j: a for j, a in enumerate(row) if a} for row in M]


def _add_scaled(x, c, y):
    """x += c y for rows held as dicts, keeping only nonzero entries."""
    for k, v in y.items():
        s = x.get(k, 0) + c * v
        if s:
            x[k] = s
        else:
            x.pop(k, None)


def _eliminate(D, n, U=None, W=None, VT=None):
    """Smith normal form elimination on D: m rows, each {column: entry}, n columns.

    The pivot is the first entry of least absolute value in row-major
    order; rows below it and columns right of it are cleared, and a
    remainder swaps it out and starts again.  U, W = (U^-1)^T and VT = V^T,
    rows of dicts, follow every step.  Column keys never change: a column
    swap moves pos and VT.  Returns the diagonal d1 | d2 | ..., positive.
    """
    m = len(D)
    pos, perm, diag = list(range(n)), list(range(n)), []
    left = [X for X in (D, U) if X is not None]
    swapped = left + [W] * (W is not None)

    def add_row(i, j, c):
        # r_i += c r_j, so U^-1 gets c_j -= c c_i
        for X in left:
            _add_scaled(X[i], c, X[j])
        if W is not None:
            _add_scaled(W[j], -c, W[i])

    for t in range(min(m, n)):
        best = 0
        for i in range(t, m):  # rows from t on are empty left of position t
            for j, a in D[i].items():
                if not best or abs(a) < best or (abs(a) == best and i == pi and pos[j] < pos[pj]):
                    best, pi, pj = abs(a), i, j
            if best == 1:
                break
        if not best:
            break
        # each pass swaps in row pi and column pj, then shrinks |pivot| or the work
        while True:
            for X in swapped:
                X[t], X[pi] = X[pi], X[t]
            p, q = pos[pj], perm[t]
            perm[t], perm[p], pos[pj], pos[q] = pj, q, t, p
            if VT is not None:
                VT[t], VT[p] = VT[p], VT[t]
            row_t, d, pi = D[t], D[t][pj], t
            for i in range(t + 1, m):
                if pj in D[i]:
                    add_row(i, t, -(D[i][pj] // d))
                    if pj in D[i]:
                        pi = i
                        break
            if pi != t:
                continue
            # column pj is zero below the pivot: column operations change row t only
            # after a unit pivot nothing is left over, so the order is moot
            cols = [j for j in row_t if j != pj]
            for j in cols if d in (1, -1) else sorted(cols, key=pos.__getitem__):
                q, row_t[j] = divmod(row_t[j], d)
                if VT is not None and q:
                    _add_scaled(VT[pos[j]], -q, VT[t])
                if row_t[j]:
                    pj = j
                    break
                del row_t[j]
            else:
                rem = None if d in (1, -1) else next(
                    (i for i in range(t + 1, m) if any(x % d for x in D[i].values())), None)
                if rem is None:
                    break
                add_row(t, rem, 1)
        if d < 0:
            # row t of D is its pivot alone; U and U^-1 flip with it
            for X in swapped[1:]:
                X[t] = {k: -x for k, x in X[t].items()}
        diag.append(abs(d))
    return diag


def _kernel_rows(D, n):
    """Columns of V spanning the kernel of D (rows of dicts, n columns), as dicts."""
    VT = [{j: 1} for j in range(n)]
    return VT[len(_eliminate(D, n, VT=VT)):]


def lattice_saturation_solve(gens, targets):
    """Express each target as an integer combination of the column vectors gens.

    The matrix M with columns gens is factored once, U M V = D, and every
    target solved against the same U, D, V.  Returns one coefficient vector
    per target, or None for a target not in the lattice.
    """
    r = len(gens)
    if r == 0:
        return [[] if not any(t) else None for t in targets]
    n = len(gens[0])
    U, VT = [{i: 1} for i in range(n)], [{j: 1} for j in range(r)]
    diag = _eliminate([{j: g[i] for j, g in enumerate(gens) if g[i]} for i in range(n)],
                      r, U, VT=VT)
    out = []
    for t in targets:
        # U t must be divisible by the diagonal, and 0 past it
        rhs = [sum(x * t[k] for k, x in row.items()) for row in U]
        if any(b % d for b, d in zip(rhs, diag)) or any(rhs[len(diag):]):
            out.append(None)
            continue
        sol = [0] * r
        for b, d, col in zip(rhs, diag, VT):  # V (D^-1 U t), column by column
            if b:
                for k, x in col.items():
                    sol[k] += b // d * x
        out.append(sol)
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


def _lattice(b_rows, n, tgt_orders):
    """Nonzero columns, as dicts, spanning {x in Z^n : B x in im diag(tgt)}.

    That is the integer kernel of [B | -diag(tgt)] cut to x; b_rows holds
    the rows of B as dicts.
    """
    rows = [dict(row) for row in b_rows]
    for t, o in enumerate(tgt_orders):
        if o:
            rows[t][n + t] = -o
    cols = ({k: x for k, x in col.items() if k < n} for col in _kernel_rows(rows, n + len(rows)))
    return [c for c in cols if c]


def is_injective(a_rows, src_orders, tgt_orders):
    """Whether the map A of cyclic sums, rows {column: entry}, has zero kernel, cheaply.

    No cokernel, relation SNF or generator: the kernel is L / (L & S), L the
    kernel lattice and S = im diag(src_orders), so it is zero exactly when
    each spanning column of L lies in S.
    """
    n = len(src_orders)
    assert len(a_rows) == len(tgt_orders) and all(j < n for r in a_rows for j in r), \
        "shape mismatch"
    for c in _lattice(a_rows, n, tgt_orders):
        for k, x in c.items():
            if x % src_orders[k] if src_orders[k] else x:
                return False
    return True


def composite_failure(a_rows, b_rows, tgt_orders):
    """The least (target, source) generator pair where B A is nonzero
    modulo the target orders, or None; a_rows and b_rows are the rows of A
    and B as dicts."""
    ba = {}
    for t, row in enumerate(b_rows):
        for k, b in row.items():
            for j, a in a_rows[k].items():
                ba[t, j] = ba.get((t, j), 0) + a * b
    bad = [(t, j) for (t, j), x in ba.items() if (x % tgt_orders[t] if tgt_orders[t] else x)]
    return min(bad) if bad else None


def check_complex(a_rows, b_rows, tgt_orders):
    """Raise ValueError (not a complex) where B A is nonzero modulo the
    target orders."""
    bad = composite_failure(a_rows, b_rows, tgt_orders)
    if bad:
        raise ValueError(f"not a complex: composite nonzero at target {bad[0]}, "
                         f"source generator {bad[1]}")


def homology_group(A, src_orders, B, mid_orders, tgt_orders):
    """ker(B)/im(A) for composable maps A: S -> M, B: M -> T of cyclic sums.

    Raises ValueError (not a complex) if B A is nonzero modulo the target
    orders.  Generators of the result are vectors in M's coordinates.
    """
    a_rows, b_rows = _rows(A), _rows(B)
    check_complex(a_rows, b_rows, tgt_orders)
    n = len(mid_orders)
    C = _lattice(b_rows, n, tgt_orders)
    r = len(C)
    if not r:
        return StructuredGroup([], [])
    # relations: v with C v in im A + im diag(mid_orders)
    rows = [{r + j: -a for j, a in row.items()} for row in a_rows]
    for i, c in enumerate(C):
        for k, x in c.items():
            rows[k][i] = x
    for k, o in enumerate(mid_orders):
        if o:
            rows[k][r + len(src_orders) + k] = -o
    relations = _kernel_rows(rows, r + len(src_orders) + n)
    rel = [{} for _ in C]
    for p, col in enumerate(relations):
        for i, x in col.items():
            if i < r:
                rel[i][p] = x
    # span(C) / relations: the generators are C U^-1, order-1 ones dropped
    W = [{i: 1} for i in range(r)]
    diag = _eliminate(rel, max(len(relations), 1), W=W)
    orders, gens = [], []
    for i, w in enumerate(W):
        d = diag[i] if i < len(diag) else 0
        if d != 1:
            vec = [0] * n
            for k, x in w.items():
                for a, y in C[k].items():
                    vec[a] += x * y
            orders.append(d)
            gens.append(vec)
    return StructuredGroup(orders, gens)


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
