"""Exact integer linear algebra for finite direct sums of cyclic groups.

Groups are presented by an ordered list of cyclic orders: 0 means a free
summand (Z, read 2-locally), any other value is the actual order of a finite
cyclic summand (always a power of 2 in this engine; asserted by callers).
Maps are rows {column: nonzero entry} in the generator bases, columns
indexed by source summands; nothing is done modulo a proxy prime.  Kernels
and homology go through Smith normal form on the nonzero entries, which
tracks only the transforms (U^-1 included, so no second SNF inverts U) and
the coordinates of V that its caller reads.  `homology_group` first tries a
closed form, for complexes whose entries are all 1 and whose summands that
share a source or a target are Z/2 without homology; it lists the summands
in the SNF's order, ties too.  `is_injective` decides a map of 2-groups
and Z's by two ranks and any other map by its kernel lattice.
"""
from __future__ import annotations

from math import gcd, inf, lcm
from typing import NamedTuple


def _add_scaled(x, c, y):
    """x += c y for rows held as dicts, keeping only nonzero entries."""
    for k, v in y.items():
        s = x.get(k, 0) + c * v
        if s:
            x[k] = s
        else:
            x.pop(k, None)


def _eliminate(D, n, W=None, VT=None):
    """Smith normal form elimination on D: m rows, each {column: entry}, n columns.

    The pivot is the first entry of least absolute value in row-major
    order; rows below it and columns right of it are cleared, and a
    remainder swaps it out and starts again.  W = (U^-1)^T and VT = V^T,
    rows of dicts, follow every step.  Column keys never change: a column
    swap moves pos and VT.  Returns the diagonal d1 | d2 | ..., positive.
    """
    m = len(D)
    pos, perm, diag = list(range(n)), list(range(n)), []
    swapped = [D] + [W] * (W is not None)

    def add_row(i, j, c):
        # r_i += c r_j, so U^-1 gets c_j -= c c_i
        _add_scaled(D[i], c, D[j])
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
        if d < 0 and W is not None:
            # row t of D is its pivot alone; U^-1 flips with it
            W[t] = {k: -x for k, x in W[t].items()}
        diag.append(abs(d))
    return diag


def _kernel_rows(D, n, keep):
    """Columns of V spanning the kernel of D (rows of dicts, n columns), as dicts
    cut to their first keep coordinates: V's other rows start empty."""
    VT = [{j: 1} if j < keep else {} for j in range(n)]
    return VT[len(_eliminate(D, n, VT=VT)):]


class StructuredGroup(NamedTuple):
    """Cyclic decomposition with generator expressions in ambient coordinates.

    orders[i] is 0 for Z and the cyclic order otherwise; gens[i] is the
    generator as an integer vector in the coordinates of the ambient
    presentation the group was computed from.
    """

    orders: list
    gens: list


def _lattice(b_rows, n, tgt_orders):
    """Nonzero columns, as dicts, spanning {x in Z^n : B x in im diag(tgt)}:
    the integer kernel of [B | -diag(tgt)] cut to x, B given by its rows."""
    rows = [{**row, n + t: -o} if o else dict(row)
            for t, (row, o) in enumerate(zip(b_rows, tgt_orders))]
    return [c for c in _kernel_rows(rows, n + len(rows), n) if c]


def _f2_rank(vectors):
    """The rank over F2 of vectors given as int bitmasks."""
    basis = []  # each later vector reduced by the earlier: their top bits stay apart
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        basis += [v] if v else []
    return len(basis)


def _socle_test(a_rows, src_orders, tgt_orders):
    """is_injective of a map of groups, sources of order 0 or 2^k > 1, else None.

    A map of groups has a s_j = 0 mod t_i (a = 0 if t_i = 0) at each entry a
    of source order s_j and target order t_i.  Its kernel is torsion iff the
    Z -> Z block has full column rank, and then, a finite 2-group, zero iff
    the images of the (s_j / 2) e_j (entries 0 or t_i / 2) are F2-independent.
    """
    if any(s == 1 or s & (s - 1) for s in src_orders):
        return None
    bits = [0] * len(src_orders)
    for i, (row, t) in enumerate(zip(a_rows, tgt_orders)):
        for j, a in row.items():
            s = src_orders[j]
            if s and (a * s % t if t else a):
                return None
            if s and t and a * (s >> 1) % t:
                bits[j] |= 1 << i
    socle = [v for s, v in zip(src_orders, bits) if s]
    if _f2_rank(socle) < len(socle):
        return False
    free = [dict(row) for row, t in zip(a_rows, tgt_orders) if not t]
    return len(_eliminate(free, len(src_orders))) == src_orders.count(0)


def is_injective(a_rows, src_orders, tgt_orders):
    """Whether the map A of cyclic sums, rows {column: entry}, has zero kernel, cheaply.

    _socle_test decides a map of groups.  Any other A (order-1 sources read
    as relations in the target, say) has kernel L / (L & S), L the kernel
    lattice and S = im diag(src_orders): zero iff each column of L is in S.
    """
    n = len(src_orders)
    assert len(a_rows) == len(tgt_orders) and all(j < n for r in a_rows for j in r), \
        "shape mismatch"
    decided = _socle_test(a_rows, src_orders, tgt_orders)
    return decided if decided is not None else not any(
        x % src_orders[k] if src_orders[k] else x
        for c in _lattice(a_rows, n, tgt_orders) for k, x in c.items())


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


def homology_group(a_rows, src_orders, b_rows, mid_orders, tgt_orders):
    """ker(B)/im(A) for composable maps A: S -> M, B: M -> T of cyclic sums,
    their rows given as dicts.

    Raises ValueError (not a complex) if B A is nonzero modulo the target
    orders.  Generators of the result are vectors in M's coordinates, listed
    by ascending order, free last, as the relation SNF lists them.

    Closed form where every entry is 1: a summand k that shares no source or
    target has its kernel generated by c e_k, c the lcm of the orders of k's
    targets (0 when one is free: no kernel); with g the gcd of k's order and
    entries the image is g Z, and the summand is Z/(lcm(c, g) / c).  Summands
    that share must be Z/2 into Z/2 with no homology (two F2 ranks); any
    other complex goes to the SNF.  Ties are ordered as the relation SNF
    orders them on _lattice's kernel vectors, a sharing summand's of order 1:
    _eliminate's pivot, the first least order, is swapped forward.
    """
    check_complex(a_rows, b_rows, tgt_orders)
    n = len(mid_orders)
    a_cols = [0] * len(src_orders)
    for k, row in enumerate(a_rows):
        for j in row:
            a_cols[j] |= 1 << k
    b_cols = [sum(1 << k for k in row) for row in b_rows]
    block = 0  # the summands that share a source or a target, as a bitmask
    for m in a_cols + b_cols:
        block |= m if m & (m - 1) else 0
    if all(x == 1 for row in a_rows + b_rows for x in row.values()) and (not block or (
            all(o == 2 for k, o in enumerate(mid_orders) if block >> k & 1)
            and all(o == 2 for o, m in zip(tgt_orders, b_cols) if m & block)
            and _f2_rank([m for m in a_cols if m & block] + [m << n for m in b_cols if m & block])
            == block.bit_count())):
        c = [1] * n
        for o, row in zip(tgt_orders, b_rows):
            for k in row:
                c[k] = lcm(c[k], o)
        order = {k: 1 if block >> k & 1 else lcm(ck, gcd(mid_orders[k], *a_rows[k].values())) // ck
                 for k, ck in enumerate(c) if ck}
        gens = sorted((k for k, o in order.items() if o != 1), key=lambda k: order[k] or inf)
        if len({order[k] for k in gens}) < len(gens):
            gens = [min(v) for v in _lattice(b_rows, n, tgt_orders)]
            for t in range(len(gens)):
                i = min(range(t, len(gens)), key=lambda i: order[gens[i]] or inf)
                gens[t], gens[i] = gens[i], gens[t]
            gens = [k for k in gens if order[k] != 1]
        return StructuredGroup([order[k] for k in gens],
                               [[c[k] * (a == k) for a in range(n)] for k in gens])
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
    relations = _kernel_rows(rows, r + len(src_orders) + n, r)
    rel = [{} for _ in C]
    for p, col in enumerate(relations):
        for i, x in col.items():
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
