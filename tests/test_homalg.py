import hashlib
import itertools
import random

import pytest

from esss.homalg import homology_group, is_injective
import reference
from reference import identity, kernel_cokernel, mat_mul
from sparse_snf import _rows, integer_kernel, snf


def brute_force_map(A, src_orders, tgt_orders):
    """Enumerate a map of finite cyclic sums; returns (elements, image, kernel)."""
    assert all(d > 0 for d in src_orders + tgt_orders)
    src = list(itertools.product(*[range(d) for d in src_orders]))
    image = set()
    kernel = []
    for x in src:
        y = tuple(sum(A[i][j] * x[j] for j in range(len(x))) % tgt_orders[i]
                  for i in range(len(tgt_orders)))
        image.add(y)
        if all(v == 0 for v in y):
            kernel.append(x)
    return src, image, kernel


def group_order(orders):
    n = 1
    for d in orders:
        n *= d
    return n


def test_snf_examples():
    for M in ([[2]], [[0]], [[2, 0], [0, 8]]):
        U, D, V, _ = snf(M)
        assert mat_mul(mat_mul(U, M), V) == D
    assert snf([[2]])[1] == [[2]]
    assert snf([[0]])[1] == [[0]]
    assert snf([[2, 0], [0, 8]])[1] == [[2, 0], [0, 8]]


def test_snf_random_reconstruction():
    rng = random.Random(20)
    for _ in range(60):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        M = [[rng.randrange(-64, 65) for _ in range(n)] for _ in range(m)]
        U, D, V, _ = snf(M)
        assert mat_mul(mat_mul(U, M), V) == D
        diag = [D[i][i] for i in range(min(m, n))]
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D[i][j] == 0
        # transforms are unimodular: U has the tracked inverse, and V has
        # invariant factors all 1
        assert mat_mul(U, snf(M, u_inv=True)[3]) == identity(m)
        assert snf(V, u=False, v=False)[1] == identity(n)


def test_snf_larger_random():
    rng = random.Random(99)
    for _ in range(10):
        m = rng.randrange(8, 13)
        n = rng.randrange(8, 13)
        M = [[rng.randrange(-64, 65) for _ in range(n)] for _ in range(m)]
        U, D, V, _ = snf(M)
        assert mat_mul(mat_mul(U, M), V) == D


def test_integer_kernel():
    cols = integer_kernel([[2, -4]])
    assert len(cols) == 1
    v = cols[0]
    assert 2 * v[0] - 4 * v[1] == 0 and v != [0, 0]


def test_kernel_cokernel_free_times_8():
    ker, coker = kernel_cokernel([[8]], [0], [0])
    assert ker.orders == []
    assert coker.orders == [8]


def test_kernel_cokernel_z16_times_8():
    # brute-force check on Z/16 --x8--> Z/16: kernel Z/8{2g}, cokernel Z/8{g}
    ker, coker = kernel_cokernel([[8]], [16], [16])
    assert ker.orders == [8]
    assert ker.gens[0][0] % 16 in (2, 14)
    assert coker.orders == [8]
    src, image, kernel = brute_force_map([[8]], [16], [16])
    assert len(kernel) == 8
    assert len(src) // len(image) == 8


def test_kernel_cokernel_zero_map():
    ker, coker = kernel_cokernel([[0]], [2], [2])
    assert ker.orders == [2]
    assert coker.orders == [2]


def test_kernel_cokernel_random_vs_bruteforce():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        src = [2 ** rng.randrange(1, 5) for _ in range(n)]
        tgt = [2 ** rng.randrange(1, 5) for _ in range(m)]
        # well-defined map: column j must be killed by src[j] in the target
        A = []
        for i in range(m):
            row = []
            for j in range(n):
                step = tgt[i] // min(tgt[i], src[j])
                row.append(step * rng.randrange(0, min(tgt[i], src[j])))
            A.append(row)
        ker, coker = kernel_cokernel(A, src, tgt)
        elems, image, kernel = brute_force_map(A, src, tgt)
        assert group_order(ker.orders) == len(kernel)
        assert group_order(coker.orders) == group_order(tgt) // len(image)
        # order bookkeeping: |src| = |ker| * |im|, |tgt| = |im| * |coker|
        assert group_order(src) == len(kernel) * len(image)


def test_kernel_generators_live_in_kernel():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        src = [2 ** rng.randrange(1, 5) for _ in range(n)]
        tgt = [2 ** rng.randrange(1, 5) for _ in range(m)]
        A = []
        for i in range(m):
            row = []
            for j in range(n):
                step = tgt[i] // min(tgt[i], src[j])
                row.append(step * rng.randrange(0, min(tgt[i], src[j])))
            A.append(row)
        ker, _ = kernel_cokernel(A, src, tgt)
        for g in ker.gens:
            img = [sum(A[i][j] * g[j] for j in range(n)) % tgt[i] for i in range(m)]
            assert all(v == 0 for v in img)


def test_homology_zero_maps_identity():
    # 0 -> G -> 0 returns G itself
    H = homology_group(_rows([[0]]), [2], _rows([[0]]), [4], [2])
    assert H.orders == [4]


def test_homology_z_times2_z():
    # Z --x2--> Z --0--> 0, homology at the middle is Z/2
    H = homology_group(_rows([[2]]), [0], [], [0], [])
    assert H.orders == [2]


def test_homology_kernel_of_onto_z2():
    # Z --(1)--> Z/2, homology at the source is Z{2v}
    H = homology_group([{}], [], _rows([[1]]), [0], [2])
    assert H.orders == [0]
    assert H.gens[0][0] % 2 == 0 or abs(H.gens[0][0]) == 2


def test_homology_not_a_complex():
    with pytest.raises(ValueError, match="not a complex"):
        homology_group(_rows([[1]]), [2], _rows([[1]]), [2], [2])


def test_homology_invariant_under_permutation():
    rng = random.Random(31)
    for _ in range(20):
        src = [2 ** rng.randrange(1, 4) for _ in range(2)]
        mid = [2 ** rng.randrange(1, 4) for _ in range(3)]
        A = []
        for i in range(3):
            row = []
            for j in range(2):
                step = mid[i] // min(mid[i], src[j])
                row.append(step * rng.randrange(0, 2))
            A.append(row)
        H = homology_group(_rows(A), src, _rows([[0, 0, 0]]), mid, [1])
        perm = [2, 0, 1]
        A2 = [A[p] for p in perm]
        mid2 = [mid[p] for p in perm]
        H2 = homology_group(_rows(A2), src, _rows([[0, 0, 0]]), mid2, [1])
        assert sorted(H.orders) == sorted(H2.orders)


def _random_matrices():
    """The seeded matrices of the SNF tests above."""
    rng = random.Random(20)
    for _ in range(60):
        m = rng.randrange(1, 7)
        n = rng.randrange(1, 7)
        yield [[rng.randrange(-64, 65) for _ in range(n)] for _ in range(m)]
    rng = random.Random(99)
    for _ in range(10):
        m = rng.randrange(8, 13)
        n = rng.randrange(8, 13)
        yield [[rng.randrange(-64, 65) for _ in range(n)] for _ in range(m)]


def test_tracked_inverse_matches_oracle():
    for M in _random_matrices():
        U, D, V, U_inv = snf(M, u_inv=True)
        assert (U, D, V, None) == snf(M)
        assert mat_mul(U, U_inv) == identity(len(M))
        assert snf(M, u=False, v=False) == (None, D, None, None)
        assert snf(M, u=False, v=False, u_inv=True) == (None, D, None, U_inv)


def test_snf_of_empty_and_zero_matrices():
    assert snf([], u_inv=True) == ([], [], [], [])
    assert snf([[0, 0]], u_inv=True) == ([[1]], [[0, 0]], [[1, 0], [0, 1]], [[1]])


def _random_map(rng, n, m, free_share):
    src = [0 if rng.random() < free_share else 2 ** rng.randrange(1, 5) for _ in range(n)]
    tgt = [0 if rng.random() < free_share else 2 ** rng.randrange(1, 5) for _ in range(m)]
    A = [[rng.choice((0, 0, 1, 2, 3, 4, 8, -6)) for _ in range(n)] for _ in range(m)]
    return A, src, tgt


def test_is_injective_matches_kernel():
    rng = random.Random(5)
    seen = set()
    for k in range(300):
        A, src, tgt = _random_map(rng, rng.randrange(0, 5), rng.randrange(0, 5),
                                  (0.0, 0.3, 0.7)[k % 3])
        expected = not kernel_cokernel(A, src, tgt)[0].orders
        assert is_injective(_rows(A), src, tgt) == expected, (A, src, tgt)
        seen.add(expected)
    assert seen == {True, False}


def _block_diagonal_map(rng):
    """A direct sum of small random maps, with rows and columns shuffled;
    zero rows and zero columns are summands of their own."""
    widths = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
    shapes = [(c + rng.randrange(-1, 2) or 1, c) for c in widths]
    shapes += [(1, 0)] * rng.randrange(0, 3) + [(0, 1)] * rng.randrange(0, 3)
    m, n = sum(r for r, _ in shapes), sum(c for _, c in shapes)
    row_at, col_at = rng.sample(range(m), m), rng.sample(range(n), n)
    A = [[0] * n for _ in range(m)]
    r0, c0 = 0, 0
    for r, c in shapes:
        for i in row_at[r0:r0 + r]:
            for j in col_at[c0:c0 + c]:
                A[i][j] = rng.choice((0, 1, 1, 1, 2, 3, -6))
        r0, c0 = r0 + r, c0 + c
    free = rng.choice((0.0, 0.3, 0.7))
    src = [0 if rng.random() < free else 2 ** rng.randrange(0, 4) for _ in range(n)]
    tgt = [0 if rng.random() < free else 2 ** rng.randrange(1, 5) for _ in range(m)]
    for j in col_at[c0 - shapes.count((0, 1)):]:
        src[j] = rng.choice((1, 2))  # a zero column is injective only on Z/1
    return A, src, tgt


def test_is_injective_on_block_diagonal_maps():
    """Maps with several summands, zero rows and zero columns, which the
    random maps above almost never are."""
    rng = random.Random(44)
    seen = set()
    for _ in range(200):
        A, src, tgt = _block_diagonal_map(rng)
        expected = not kernel_cokernel(A, src, tgt)[0].orders
        assert is_injective(_rows(A), src, tgt) == expected, (A, src, tgt)
        seen.add(expected)
    assert seen == {True, False}


def test_is_injective_edge_cases():
    # n = 0, with and without a target
    assert is_injective([{}, {}], [], [2, 0])
    assert is_injective([], [], [])
    # no target: injective only if every source summand has order 1
    assert not is_injective([], [2], [])
    assert is_injective([], [1], [])
    # the zero map
    assert not is_injective([{}], [2, 0], [4])
    # empty kernel lattice: Z --x3--> Z
    assert is_injective([{0: 3}], [0], [0])
    # Z/2 --x2--> Z/4 and Z/4 --x2--> Z/4
    assert is_injective([{0: 2}], [2], [4])
    assert not is_injective([{0: 2}], [4], [4])
    # Z --x1--> Z/2 is not injective, Z + Z/2 --> Z + Z/2 diagonal is
    assert not is_injective([{0: 1}], [0], [2])
    assert is_injective([{0: 1}, {1: 1}], [0, 2], [0, 2])
    # a row per target, and no column past the sources
    with pytest.raises(AssertionError, match="shape mismatch"):
        is_injective([{0: 1}], [0], [0, 2])
    with pytest.raises(AssertionError, match="shape mismatch"):
        is_injective([{1: 1}], [0], [0])


def test_mat_mul_matches_dense_product():
    rng = random.Random(8)
    for _ in range(100):
        rows, inner, cols = rng.randrange(0, 5), rng.randrange(0, 5), rng.randrange(0, 5)
        A = [[rng.choice((0, 0, 0, 1, -3, 7)) for _ in range(inner)] for _ in range(rows)]
        B = [[rng.choice((0, 0, 0, 2, -1, 5)) for _ in range(cols)] for _ in range(inner)]
        expected = [[sum(A[i][k] * B[k][j] for k in range(inner)) for j in range(cols)]
                    for i in range(rows)]
        # with no inner dimension B has no rows to give the column count
        assert mat_mul(A, B) == (expected if inner else [[] for _ in range(rows)])
    with pytest.raises(AssertionError, match="shape mismatch"):
        mat_mul([[1, 2]], [[1], [2], [3]])
    with pytest.raises(AssertionError, match="shape mismatch"):
        mat_mul([[1, 2]], [[1, 0], [2]])


def _orders(rng, k):
    return [rng.choice((0, 1, 2, 2, 4, 8, 16)) for _ in range(k)]


def _matrix(rng, m, n):
    bound = rng.choice((1, 3, 16, 64))
    density = rng.choice((0.3, 0.6, 1.0))
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def _group(G):
    return (G.orders, G.gens)


def _outputs_digest():
    """sha256 of repr of the outputs on 200 seeded random inputs."""
    rng = random.Random(2022)
    h = hashlib.sha256()
    for _ in range(60):
        M = _matrix(rng, rng.randrange(0, 9), rng.randrange(1, 9))
        h.update(repr(snf(M)[:3]).encode())
    for _ in range(40):
        M = _matrix(rng, rng.randrange(1, 8), rng.randrange(1, 9))
        h.update(repr(integer_kernel(M)).encode())
    for _ in range(50):
        n, m = rng.randrange(0, 6), rng.randrange(0, 6)
        A = _matrix(rng, m, n) if n else [[] for _ in range(m)]
        ker, coker = kernel_cokernel(A, _orders(rng, n), _orders(rng, m))
        h.update(repr((_group(ker), _group(coker))).encode())
    for _ in range(50):
        n_src, n_mid, m = rng.randrange(0, 5), rng.randrange(0, 6), rng.randrange(0, 5)
        mid, tgt = _orders(rng, n_mid), _orders(rng, m)
        B = _matrix(rng, m, n_mid) if n_mid else [[] for _ in range(m)]
        # columns of A drawn from {x : B x in im diag(tgt)}, so B A = 0
        if m and n_mid:
            Mk = [B[i] + [-tgt[i] if k == i else 0 for k in range(m)] for i in range(m)]
            lattice = [col[:n_mid] for col in integer_kernel(Mk)]
        else:
            lattice = [[1 if a == i else 0 for a in range(n_mid)] for i in range(n_mid)]
        cols = []
        for _ in range(n_src):
            coeffs = [rng.randint(-2, 2) for _ in lattice]
            cols.append([sum(c * v[a] for c, v in zip(coeffs, lattice)) for a in range(n_mid)])
        A = [[cols[j][i] for j in range(n_src)] for i in range(n_mid)]
        if A and n_src and rng.random() < 0.15:
            A[rng.randrange(n_mid)][rng.randrange(n_src)] += 1
        try:
            H = homology_group(_rows(A), _orders(rng, n_src), _rows(B), mid, tgt)
            h.update(repr(_group(H)).encode())
        except ValueError as exc:
            h.update(repr(exc).encode())
    return h.hexdigest()


def test_outputs_are_pinned():
    """snf, integer_kernel, kernel_cokernel and homology_group give exactly
    the outputs (transforms, generator vectors, error messages) of the
    elimination before U^-1 was tracked in it; the digest was taken there."""
    assert _outputs_digest() == "c6037d13c06efb865390a56cd6d1e2bcdec9b4913e4e6dcaa059ef9464b8696e"


def test_elimination_matches_the_dense_reference():
    """snf eliminates on the nonzero entries with the dense elimination's
    steps: every transform choice gives the dense outputs exactly, on
    matrices whose entries force remainder steps."""
    rng = random.Random(11)
    for _ in range(300):
        M = _matrix(rng, rng.randrange(0, 8), rng.randrange(1, 8))
        for flags in ((True, True, False), (False, True, False), (False, False, True),
                      (True, True, True), (True, False, True)):
            assert snf(M, *flags) == reference.snf(M, *flags), (M, flags)
        assert integer_kernel(M) == reference.integer_kernel(M), M
