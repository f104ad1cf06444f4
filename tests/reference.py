"""Reference implementations that only the tests compare against."""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from esss.basechange import _map_columns, _row_dicts
from esss.coefficients import coeff_classes
from esss.engine import page1_basis
from esss.groups import CyclicSummand, Generator, Monomial
from esss.homalg import StructuredGroup
from esss.numthy import NU_INFINITY, a_q, nu2


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


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# The dense elimination that esss.homalg._eliminate and homology_group
# repeat on the nonzero entries: the same pivots, transforms and generator
# vectors, which the page-turning and digest tests compare against.

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


def kernel_cokernel(A, src_orders, tgt_orders):
    """Kernel and cokernel of a map between direct sums of cyclics.

    A is the matrix of the map (rows = target summands, columns = source).
    Returns (kernel, cokernel) as StructuredGroups; kernel generators are
    vectors in source coordinates, cokernel generators in target coordinates.
    """
    n = len(src_orders)
    m = len(tgt_orders)
    assert len(A) == m and all(len(row) == n for row in A), "shape mismatch"

    # cokernel: Z^m / (im A + im diag(tgt_orders))
    R = [[A[i][j] for j in range(n)] + [tgt_orders[i] if k == i else 0 for k in range(m)]
         for i in range(m)]
    coker = _presentation_from_relations(identity(m), R) if m else StructuredGroup([], [])

    if n == 0:
        return StructuredGroup([], []), coker
    C = _kernel_lattice(A, n, tgt_orders)
    if not C:
        return StructuredGroup([], []), coker
    return _subquotient(C, src_orders), coker


def isomorphic_orders(a, b) -> bool:
    """Same multiset of cyclic orders (the additive isomorphism test)."""
    return sorted(a) == sorted(b)


def page1_map_matrix(src, dst, spectrum, deg):
    """The first-page comparison matrix at deg, in the bases of page1_basis."""
    cols = _map_columns(src, dst, spectrum, deg)
    return [[row.get(j, 0) for j in range(len(cols))]
            for row in _row_dicts(cols, len(page1_basis(dst, spectrum, deg)))]


class SliceSummand(NamedTuple):
    stem: int
    weight: int
    modulus: object  # exponent n >= 1, or NU_INFINITY for HZ
    cell: Monomial


@lru_cache(maxsize=None)
def slices_kq(c: int):
    """Cells of the c-th slice of kq; negative slices are empty."""
    if c < 0:
        return ()
    out = []
    for e in range(0, c + 1, 2):
        a = c - e
        cell = Monomial(h1=a, v1=e)
        out.append(SliceSummand(a + 2 * e, c, NU_INFINITY if a == 0 else 1, cell))
    return tuple(out)


def e1_kq_all_cells(field, deg):
    """E1 of kq at deg from every cell of its slice, each cell's coefficient
    group read whether or not it can be nonzero: esss.slices.e1_kq_basis
    visits only the cells in the coefficients' stem band."""
    s, f, w = deg
    if (s + f) % 2 or s + f < 0 or f < 0:
        return []
    c = (s + f) // 2
    out = []
    for sl in slices_kq(c):
        for order, gen, _ in coeff_classes(field, sl.modulus, s - sl.stem, w - c):
            t = gen.lead
            mono = Monomial(coeff2=t.coeff2, h1=sl.cell.h1, v1=sl.cell.v1, tau=t.tau,
                            units=t.units)
            assert mono.degree() == deg, (mono, deg)
            out.append(CyclicSummand(order, Generator.of(mono), deg))
    out.sort(key=lambda cs: cs.gen.sort_key())
    return out


@lru_cache(maxsize=None)
def slices_L(c: int):
    """Cells of the c-th slice of L; negative slices are empty."""
    if c < 0:
        return ()
    if c == 0:
        unit = Monomial()
        iota = Monomial(iota=1)
        return (SliceSummand(-1, 0, NU_INFINITY, iota),
                SliceSummand(0, 0, NU_INFINITY, unit))
    out = []
    for cell in slices_kq(c):
        if cell.modulus is NU_INFINITY:
            mono = Monomial(iota=1, v1=cell.cell.v1)
            out.append(SliceSummand(cell.stem - 1, c, a_q(c), mono))
        else:
            out.append(SliceSummand(cell.stem, c, 1, cell.cell))
            mono = Monomial(iota=1, h1=cell.cell.h1, v1=cell.cell.v1)
            out.append(SliceSummand(cell.stem - 1, c, 1, mono))
    return tuple(sorted(out, key=lambda sl: (sl.stem, sl.cell.sort_key())))


def _primes_up_to(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


def von_staudt_clausen_denom(k: int) -> int:
    """Denominator of B_{2k}: the product of primes p with (p-1) | 2k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = 1
    for p in _primes_up_to(2 * k + 1):
        if (2 * k) % (p - 1) == 0:
            d *= p
    return d


def bernoulli_denom_two_part_vsc(k: int) -> int:
    """2-part of denom(B_{2k}/4k) from the von Staudt-Clausen denominator.

    denom(B_{2k}) is squarefree and even, so the numerator of B_{2k} is odd
    and the 2-part of denom(B_{2k}/4k) is 2^(1 + nu2(4k)).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    assert von_staudt_clausen_denom(k) % 2 == 0
    return 1 << (1 + nu2(4 * k))


# Multiplication by rho from local symbols.  K^M_n(F)/2 = pi_{-n,-n}(HZ/2)
# is detected degree by degree by F2-valued invariants: square classes in
# degree 1, Hilbert symbols at the places in degree 2 (over Q, Tate's
# embedding of K2(Q)/2 into the sum over the places), and the real place
# alone in degree 3 and above.  Each symbol of the presentations is read as
# a number: rho as -1, [2] as 2, [p] as p, pi as the uniformizer and u as a
# nonsquare unit; a_p over Q is the K2 class that is nonzero at p and at 2
# only.  F_q and the local fields have no K2 invariants beyond their own
# place, and none at all in degree 3.

def _legendre_bit(a: int, p: int) -> int:
    """1 when the unit a is a nonsquare modulo the odd prime p."""
    return 0 if pow(a % p, (p - 1) // 2, p) == 1 else 1


def _split(a: int, p: int):
    """(v_p(a), a / p^v_p(a))."""
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hilbert_symbol_bit(a: int, b: int, place: int) -> int:
    """1 when the Hilbert symbol (a, b)_v is -1; place 0 is the real one.

    Serre, A Course in Arithmetic, III.1, Theorems 1 and 2.
    """
    if place == 0:
        return int(a < 0 and b < 0)
    alpha, u = _split(a, place)
    beta, v = _split(b, place)
    if place == 2:
        def eps(x):
            return (x - 1) // 2 % 2

        def omega(x):
            return (x * x - 1) // 8 % 2
        return (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2
    return (alpha * beta * ((place - 1) // 2) + beta * _legendre_bit(u, place)
            + alpha * _legendre_bit(v, place)) % 2


def _square_class(field, a):
    """The degree-1 invariants of the number a; None is a nonsquare of F_q."""
    if field.kind == "c":
        return ()
    if field.kind == "fq":
        p = next(d for d in range(3, field.q + 1, 2) if field.q % d == 0)
        return (1,) if a is None else (0 if pow(a % p, (field.q - 1) // 2, p) == 1 else 1,)
    if field.kind == "r":
        return (int(a < 0),)
    if field.kind == "qq":
        v, unit = _split(a, field.q)
        return (v % 2, _legendre_bit(unit, field.q))
    if field.kind == "q2":
        v, unit = _split(a, 2)
        return (v % 2, (unit - 1) // 2 % 2, (unit * unit - 1) // 8 % 2)
    return (int(a < 0),) + tuple(_split(a, p)[0] % 2 for p in field.support)


def _k2_places(field):
    if field.kind == "q":
        return (0,) + field.support
    return {"c": (), "fq": (), "r": (0,), "qq": (field.q,), "q2": (2,)}[field.kind]


def _symbol_bases(field, depth: int):
    """{n: [(word, invariants)]} for K_n / 2, n = 0..depth, and the numbers
    of the degree-1 words."""
    kind = field.kind
    if kind in ("fq", "qq"):
        # the unit class is rho when -1 is a nonsquare, else a nonsquare u
        if any(_square_class(field, -1)):
            numbers = [("rho", -1)]
        elif kind == "fq":
            numbers = [("u", None)]
        else:
            numbers = [("u", next(g for g in range(2, field.q) if _legendre_bit(g, field.q)))]
        if kind == "qq":
            numbers.append(("pi", field.q))
    elif kind == "q":
        numbers = [("rho", -1)] + [(f"[{p}]", p) for p in field.support]
    else:
        numbers = {"c": [], "r": [("rho", -1)], "q2": [("pi", 2), ("rho", -1), ("u", 5)]}[kind]
    places = _k2_places(field)
    bases = {0: [((), (1,))],
             1: [(((sym, 1),), _square_class(field, a)) for sym, a in numbers]}
    number = {((sym, 1),): a for sym, a in numbers}
    k2 = []
    if kind == "qq":
        (xs, xa), (ps, pa) = numbers
        k2.append((tuple(sorted(((xs, 1), (ps, 1)))),
                   tuple(hilbert_symbol_bit(xa, pa, v) for v in places)))
    elif places:
        k2.append(((("rho", 2),), tuple(hilbert_symbol_bit(-1, -1, v) for v in places)))
    if kind == "q":
        for p in field.odd_support():
            k2.append((((f"a_{p}", 1),), tuple(int(v in (2, p)) for v in places)))
    bases[2] = k2
    for n in range(3, depth + 1):
        bases[n] = [((("rho", n),), (1,))] if kind in ("r", "q") else []
    return bases, number


def _in_basis(vector, basis):
    """The words whose invariants sum to vector over F2 (a unique subset)."""
    hits = []
    for mask in range(1 << len(basis)):
        total = [0] * len(vector)
        for i, (_, inv) in enumerate(basis):
            if mask >> i & 1:
                total = [(a + b) % 2 for a, b in zip(total, inv)]
        if total == list(vector):
            hits.append(sorted(word for i, (word, _) in enumerate(basis) if mask >> i & 1))
    assert len(hits) == 1, f"{vector} is not uniquely in the span of {basis}"
    return hits[0]


def hilbert_rho_products(field, depth: int = 12):
    """{stem: {basis word: rho times it, as a sorted list of basis words}}
    for stems 0 down to -depth, computed from symbols alone."""
    bases, number = _symbol_bases(field, depth + 1)
    out = {}
    for n in range(depth + 1):
        products = {}
        for word, inv in bases[n]:
            if n == 0:
                vector = _square_class(field, -1)
            elif n == 1:
                vector = tuple(hilbert_symbol_bit(-1, number[word], v) for v in _k2_places(field))
            else:
                # degree 3 and above lives at the real place only
                vector = inv[:1] if field.kind in ("r", "q") else ()
            products[word] = _in_basis(vector, bases[n + 1])
        out[-n] = products
    return out


def rho_table_mismatches(field, depth: int = 12):
    """Where the field's presentation disagrees with hilbert_rho_products:
    a stem basis, a product, or a rho entry on a word of no basis."""
    from esss.coefficients import mod2_stem_units
    from esss.fields import presentation, rho_power_times

    table = hilbert_rho_products(field, depth)
    out = []
    for stem, products in table.items():
        if sorted(mod2_stem_units(field, stem)) != sorted(products):
            out.append(("basis", stem, sorted(products)))
        for word, want in products.items():
            got = rho_power_times(field, word, 1)
            if got != want:
                out.append((word, want, got))
    words = {word for products in table.values() for word in products}
    out.extend(("entry", word) for word in presentation(field).rho if word not in words)
    return out


# Weight-0 homotopy of kq from Hermitian K-theory.  Friedlander
# ("Computations of K-theories of finite fields", Topology 15, 1976) gives
# the 2-completed Hermitian K-theory of F_q as the fiber of psi^q - 1 on
# ko; over an algebraic closure the groups are those of ko (rigidity).
# Orders are 2-local, 0 for Z, and written from these statements alone.

_KO_ORDERS = ([0], [2], [2], [], [0], [], [], [])


def hermitian_kq_orders(q, n: int) -> list:
    """Sorted orders of pi_{n,0} kq, n >= 0, over F_q, or over its closure
    for q=None."""
    if q is None:
        return list(_KO_ORDERS[n % 8])
    if n == 0:
        return [0, 2]  # GW(F_q) = Z + Z/2
    if n % 8 in (3, 7):
        m = q ** ((n + 1) // 2) - 1
        return [m & -m]  # the 2-part of Z/(q^((n+1)/2) - 1)
    return {0: [2], 1: [2, 2], 2: [2]}.get(n % 8, [])
