"""Dense views of esss.homalg's sparse elimination, for the tests that pin
its transforms and compare them with the dense reference elimination."""
from __future__ import annotations

from fractions import Fraction

from esss.homalg import _eliminate


def _rows(M):
    return [{j: a for j, a in enumerate(row) if a} for row in M]


def _dense(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def _inverse(M):
    """The inverse of a unimodular integer matrix, by exact Gauss-Jordan."""
    m = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
         for i, row in enumerate(M)]
    for t in range(m):
        p = next(i for i in range(t, m) if A[i][t])
        A[t], A[p] = A[p], A[t]
        A[t] = [x / A[t][t] for x in A[t]]
        for i in range(m):
            c = A[i][t]
            if i != t and c:
                A[i] = [x - c * y for x, y in zip(A[i], A[t])]
    assert all(x.denominator == 1 for row in A for x in row), "not unimodular"
    return [[int(x) for x in row[m:]] for row in A]


def snf(M, u=True, v=True, u_inv=False):
    """(U, D, V, U^-1) with U M V = D in Smith normal form; the transforms
    not asked for come back as None.  The elimination tracks U^-1 only, so
    U is its exact inverse."""
    m = len(M)
    n = len(M[0]) if m else 0
    W, VT = ([{i: 1} for i in range(k)] if want else None
             for k, want in ((m, u or u_inv), (n, v)))
    D = [[0] * n for _ in range(m)]
    for i, d in enumerate(_eliminate(_rows(M), n, W, VT)):
        D[i][i] = d
    U_inv = [list(col) for col in zip(*_dense(W, m))] if W is not None else None
    return (_inverse(U_inv) if u else None, D,
            [list(col) for col in zip(*_dense(VT, n))] if v else None,
            U_inv if u_inv else None)


def integer_kernel(M):
    """Columns spanning the integer kernel of M (as a list of column vectors)."""
    n = len(M[0]) if M else 0
    VT = [{j: 1} for j in range(n)]
    return _dense(VT[len(_eliminate(_rows(M), n, VT=VT)):], n)
