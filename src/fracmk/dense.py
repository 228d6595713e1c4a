"""Dense linear algebra of the Newton refresh, its Krylov solves and the PDHG
setup: inverses by 2x2 blocks, and PCG and GMRES preconditioned by a dense
inverse.  numpy only.

Both inverses overwrite their argument, so a continuation holds one (m, m)
array, in which each Newton refresh assembles P over the last inverse, and
besides it two (m/2, m/2) blocks at a time: a traced peak of 0.53 x 8m^2
bytes on the m = 793 refresh of the 2D n=64 disc, where an inverse into a
new array held 2.25.  Only block_inverse makes a matrix exactly
symmetric, as PCG needs: its symmetric path averages P with P^T.
"""

from __future__ import annotations

import numpy as np

# block_inverse and tril_inverse invert blocks up to this size with LAPACK,
# larger ones by halves
BLOCK_LEAF = 64


def block_inverse(P: np.ndarray, symmetric: bool) -> np.ndarray:
    """P^-1 in the storage of P, for a square P whose leading blocks are all
    nonsingular, as a matrix with a positive definite symmetric part has;
    returns P.

    By 2x2 blocks, with Ai = P11^-1, X = P21 Ai, Z = Ai P12, the Schur
    complement's inverse Si = (P22 - X P12)^-1 and Y = Si X,

        P^-1 = [[Ai + Z Y, -Z Si], [-Y, Si]],

    the two half-size inverses recursively, each in its own block of P.
    Above BLOCK_LEAF the general path spends six GEMMs per level, 2m^3
    flops in all, as many as numpy's inv, which spends them in an LU and the
    inverse of its factors.  The symmetric path first replaces P by
    (P + P^T)/2, as rounding leaves an assembled P asymmetric at 1e-16,
    which the inverse can amplify by cond(P).  Then Z = X^T, so it forms
    only X, S = P22 - X P21^T, Y and Ai + X^T Y: 4m^3/3 flops, and copies
    each block's lower triangle onto the upper one: PCG needs an exactly
    symmetric inverse.  Besides P, either path holds two (m/2, m/2) blocks
    at a time: 0.5 x 8m^2 bytes.  No pivoting: Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 13.

    Raises LinAlgError when a leaf is singular or the inverse not finite;
    P is then partly overwritten, and its values are undefined.
    """
    if symmetric:  # P = (P + P^T) / 2, BLOCK_LEAF rows at a time
        for i in range(0, P.shape[0], BLOCK_LEAF):
            rows, rest = slice(i, i + BLOCK_LEAF), slice(i, None)
            mean = P[rows, rest] + P[rest, rows].T
            mean *= 0.5
            P[rows, rest] = mean
            P[rest, rows] = mean.T
    _invert(P, symmetric)
    if not np.all(np.isfinite(P)):
        raise np.linalg.LinAlgError("the block inverse is not finite")
    return P


def _invert(P: np.ndarray, symmetric: bool) -> None:
    m = P.shape[0]
    if m <= BLOCK_LEAF:
        P[...] = np.linalg.inv(P)
    else:
        k = m // 2
        A, B, C, D = P[:k, :k], P[:k, k:], P[k:, :k], P[k:, k:]
        _invert(A, symmetric)
        X = C @ A
        D -= X @ (C.T if symmetric else B)
        _invert(D, symmetric)
        C[...] = D @ X
        if symmetric:
            A += X.T @ C
            del X
        else:
            del X
            Z = A @ B
            A += Z @ C
            B[...] = Z @ D
            del Z
            np.negative(B, out=B)
        np.negative(C, out=C)
    if symmetric:
        _mirror_lower(P)


# the strict upper triangle of a leaf
_UPPER = np.triu(np.ones((BLOCK_LEAF, BLOCK_LEAF), dtype=bool), 1)
_UPPER.flags.writeable = False


def _mirror_lower(P: np.ndarray) -> None:
    """Copy the strict lower triangle of P onto the upper one, BLOCK_LEAF
    rows at a time, so no second (m, m) array is held."""
    m = P.shape[0]
    for i in range(0, m, BLOCK_LEAF):
        j = min(i + BLOCK_LEAF, m)
        D = P[i:j, i:j]
        np.copyto(D, D.T, where=_UPPER[: j - i, : j - i])
        P[i:j, j:] = P[j:, i:j].T


def tril_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 in the storage of L, for a nonsingular lower-triangular L;
    returns L, exactly zero above the diagonal.

    By 2x2 blocks, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]:
    above BLOCK_LEAF the only work besides the two half-size inverses is
    two GEMMs, about 2m^3/3 flops in all, where numpy's inv factors L as a
    general matrix and inverts the LU, 2m^3.  np.tril drops what a pivoted
    LU leaves above a leaf's diagonal.  Besides L, it holds two (m/2, m/2)
    blocks at a time: 0.5 x 8m^2 bytes.
    """
    m = L.shape[0]
    if m <= BLOCK_LEAF:
        L[...] = np.tril(np.linalg.inv(L))
        return L
    k = m // 2
    A, C, D = tril_inverse(L[:k, :k]), L[k:, :k], tril_inverse(L[k:, k:])
    L[:k, k:] = 0.0
    C[...] = D @ (C @ A)
    np.negative(C, out=C)
    return L


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
