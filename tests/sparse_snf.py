"""Dense views of esss.homalg's sparse elimination, for the tests that pin
its transforms and compare them with the dense reference elimination."""
from __future__ import annotations

from esss.homalg import _eliminate


def _rows(M):
    return [{j: a for j, a in enumerate(row) if a} for row in M]


def _dense(rows, n):
    return [[row.get(j, 0) for j in range(n)] for row in rows]


def snf(M, u=True, v=True, u_inv=False):
    """(U, D, V, U^-1) with U M V = D in Smith normal form; the transforms
    not asked for come back as None."""
    m = len(M)
    n = len(M[0]) if m else 0
    U, W, VT = ([{i: 1} for i in range(k)] if want else None
                for k, want in ((m, u), (m, u_inv), (n, v)))
    D = [[0] * n for _ in range(m)]
    for i, d in enumerate(_eliminate(_rows(M), n, U, W, VT)):
        D[i][i] = d
    return (_dense(U, m) if u else None, D,
            [list(col) for col in zip(*_dense(VT, n))] if v else None,
            [list(col) for col in zip(*_dense(W, m))] if u_inv else None)


def integer_kernel(M):
    """Columns spanning the integer kernel of M (as a list of column vectors)."""
    n = len(M[0]) if M else 0
    VT = [{j: 1} for j in range(n)]
    return _dense(VT[len(_eliminate(_rows(M), n, VT=VT)):], n)
