"""Dense linear algebra of the Newton refresh, its Krylov solves and the PDHG
setup: inverses by 2x2 blocks, and PCG and GMRES preconditioned by a dense
inverse.  numpy only.
"""

from __future__ import annotations

import numpy as np

# block_inverse and tril_inverse invert blocks up to this size with LAPACK,
# larger ones by halves
BLOCK_LEAF = 64


def block_inverse(P: np.ndarray) -> np.ndarray:
    """P^-1 for a square P whose leading blocks are all nonsingular, as a
    matrix with a positive definite symmetric part has.

    By 2x2 blocks, with Ai = P11^-1, X = P21 Ai, Z = Ai P12, the Schur
    complement's inverse Si = (P22 - X P12)^-1 and Y = Si X,

        P^-1 = [[Ai + Z Y, -Z Si], [-Y, Si]],

    the two half-size inverses recursively: above BLOCK_LEAF all other work
    is six GEMMs, 2m^3 flops in all, as many as numpy's inv, which spends
    them in an LU and the inverse of its factors.  No pivoting: Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 13.
    Raises LinAlgError when a leaf is singular or an inverse not finite.
    """
    m = P.shape[0]
    if m <= BLOCK_LEAF:
        out = np.linalg.inv(P)
    else:
        k = m // 2
        P12 = P[:k, k:]
        Ai = block_inverse(P[:k, :k])
        X = P[k:, :k] @ Ai
        S = X @ P12
        np.subtract(P[k:, k:], S, out=S)
        Si = block_inverse(S)
        del S
        Y = Si @ X
        del X
        Z = Ai @ P12
        out = np.empty_like(P)
        out[:k, :k] = Z @ Y
        out[:k, :k] += Ai
        del Ai
        out[:k, k:] = Z @ Si
        np.negative(out[:k, k:], out=out[:k, k:])
        del Z
        np.negative(Y, out=out[k:, :k])
        out[k:, k:] = Si
    if not np.all(np.isfinite(out)):
        raise np.linalg.LinAlgError("the block inverse is not finite")
    return out


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a nonsingular lower-triangular L, exactly zero above the diagonal.

    By 2x2 blocks, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]:
    above BLOCK_LEAF the only work besides the two half-size inverses is
    two GEMMs, about 2m^3/3 flops in all, where numpy's inv factors L as a
    general matrix and inverts the LU, 2m^3.  np.tril drops what a pivoted
    LU leaves above a leaf's diagonal.
    """
    m = L.shape[0]
    if m <= BLOCK_LEAF:
        return np.tril(np.linalg.inv(L))
    k = m // 2
    Ai, Di = tril_inverse(L[:k, :k]), tril_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k], out[k:, k:] = Ai, Di
    out[k:, :k] = -(Di @ (L[k:, :k] @ Ai))
    return out


def norm(x: np.ndarray) -> float:
    """|x|_2, non-finite only if an entry is: a trial point deep in the
    exponential wall has entries whose squares overflow a plain dot product."""
    big = float(np.max(np.abs(x), initial=0.0))
    return big * float(np.linalg.norm(x / big)) if 0.0 < big < np.inf else big


def pcg(apply, b: np.ndarray, M: np.ndarray, eta: float, budget: int):
    """Preconditioned CG for apply(x) = b from x = 0, to |b - apply(x)| <= eta |b|.

    Returns (x, iterations); x is None when the budget runs out, a value
    turns non-finite or a curvature is not positive.  It iterates on b / |b|,
    so the products stay finite under the stiff penalty.
    """
    nb = norm(b)
    res = b / nb
    x = np.zeros_like(b)
    z = M @ res
    d = z.copy()
    rz = res @ z
    for k in range(1, budget + 1):
        q = apply(d)
        dq = d @ q
        if not (np.isfinite(dq) and np.isfinite(rz) and dq > 0 and rz > 0):
            return None, k
        alpha = rz / dq
        x += alpha * d
        res -= alpha * q
        rr = res @ res
        if not np.isfinite(rr):
            return None, k
        if rr <= eta**2:
            x *= nb
            return x, k
        z = M @ res
        rz, rz_old = res @ z, rz
        d *= rz / rz_old
        d += z
    return None, budget


def gmres(apply, b: np.ndarray, M: np.ndarray, eta: float, budget: int):
    """Right-preconditioned GMRES for apply(x) = b from x = 0, no restart.

    Same contract as pcg.  The Arnoldi basis is orthogonalised by classical
    Gram-Schmidt applied twice.
    """
    nb = norm(b)
    V = np.empty((budget + 1, b.size))
    V[0] = b / nb
    H = np.zeros((budget + 1, budget))
    e1 = np.zeros(budget + 1)
    e1[0] = 1.0
    for k in range(budget):
        w = apply(M @ V[k])
        basis = V[: k + 1]
        h = basis @ w
        w -= h @ basis
        h2 = basis @ w
        w -= h2 @ basis
        H[: k + 1, k] = h + h2
        H[k + 1, k] = norm(w)
        if not np.all(np.isfinite(H[: k + 2, k])):
            return None, k + 1
        Hk = H[: k + 2, : k + 1]
        y = np.linalg.lstsq(Hk, e1[: k + 2], rcond=None)[0]
        if np.linalg.norm(e1[: k + 2] - Hk @ y) <= eta:
            return nb * (M @ (y @ basis)), k + 1
        if H[k + 1, k] == 0.0:
            return None, k + 1
        V[k + 1] = w / H[k + 1, k]
    return None, budget
