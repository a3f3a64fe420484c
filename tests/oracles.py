"""High-precision references for the library's closed forms, in mpmath.

Each oracle takes its own route to the value it checks, so a float64 formula
and its oracle do not share a derivation.
"""

import numpy as np
from mpmath import mp

DIGITS = 50


def sqm_oracle(dim: int) -> tuple[list, list, list]:
    """The standard SQM of ``dim`` at ``DIGITS`` digits: its elements E_d and
    dual frame R_d, as lists of mpmath matrices, and its caps, a list of mpf.

    The seed kets are written out again, G = sum_d |v_d><v_d| is taken to the
    power -1/2 through ``mp.eighe``, E_d = u_d u_d^dag with u_d = G^{-1/2} v_d,
    and the cap of E_d is ||u_d||^2.  The dual is read off ``mp.inverse`` of the
    D^2 x D^2 element matrix, whose row c is vec(E_c^T): column d of the inverse
    is vec(R_d), so tr(E_c R_d) = delta_cd without the seeds' own dual.
    """
    with mp.workdps(DIGITS):
        basis = [mp.matrix([[int(i == j)] for i in range(dim)]) for j in range(dim)]
        pairs = [(j, k) for j in range(dim) for k in range(j + 1, dim)]
        kets = basis + [
            (basis[j] + phase * basis[k]) / mp.sqrt(2) for phase in (1, mp.j) for j, k in pairs
        ]
        gram = sum((v * v.H for v in kets[1:]), kets[0] * kets[0].H)
        vals, vecs = mp.eighe(gram)
        invsqrt = vecs * mp.diag([1 / mp.sqrt(x) for x in vals]) * vecs.H
        us = [invsqrt * v for v in kets]
        elements = [u * u.H for u in us]
        caps = [sum(abs(x) ** 2 for x in u) for u in us]
        n = dim * dim
        rows = mp.matrix(n, n)
        for c, e in enumerate(elements):
            for i in range(dim):
                for j in range(dim):
                    rows[c, i * dim + j] = e[j, i]
        inverse = mp.inverse(rows)
        dual = [
            mp.matrix([[inverse[i * dim + j, d] for j in range(dim)] for i in range(dim)])
            for d in range(n)
        ]
    return elements, dual, caps


def max_error(approx: np.ndarray, exact: list) -> float:
    """Largest entrywise |approx - exact| at ``DIGITS`` digits, for a float64
    array and an oracle's list of mpmath matrices or numbers of the same shape."""
    flat = [x for m in exact for row in (m.tolist() if isinstance(m, mp.matrix) else [[m]]) for x in row]
    approx = np.asarray(approx).ravel()
    assert len(flat) == len(approx)
    with mp.workdps(DIGITS):
        return float(max(abs(mp.mpmathify(complex(a)) - x) for a, x in zip(approx, flat)))
