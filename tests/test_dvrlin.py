"""Smith normal form over F2[[x]] mod x^P, on random small matrices."""
import random

from esss.dvrlin import clmul, dvr_kernel, snf_dvr, sum_xor, trunc

P = 24


def mat_mul(A, B):
    """Product of polynomial matrices mod x^P (entries are ints, bit i = x^i)."""
    return [[trunc(sum_xor(clmul(row[k], B[k][j]) for k in range(len(B))), P)
             for j in range(len(B[0]))] for row in A]


def random_matrix(rng, m, n):
    """Entries 0 or x^v times a random polynomial, so pivots carry units."""
    return [[0 if rng.random() < 0.3 else rng.randrange(1, 64) << rng.randrange(4)
             for _ in range(n)] for _ in range(m)]


def test_snf_dvr_and_kernel_on_random_matrices():
    rng = random.Random(7)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        M = random_matrix(rng, m, n)
        D, V, Uinv = snf_dvr(M, P)
        for i in range(m):
            for j in range(n):
                d = D[i][j]
                assert i == j or d == 0, (M, D)
                assert d & (d - 1) == 0, (M, D)  # 0 or a pure power of x
        assert mat_mul(M, V) == mat_mul(Uinv, D), M
        for col in dvr_kernel(M, P):
            assert mat_mul(M, [[x] for x in col]) == [[0]] * m, (M, col)
