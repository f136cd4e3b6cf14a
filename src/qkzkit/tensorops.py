"""Operator algebra on tensor products of site spaces.

Site indices are 0-based throughout.  An operator acts on a block of
columns of shape (prod dims, k).  `embedded_matmul`, `site_matmul` and
`permuted_matmul` apply a two-site factor, a one-site matrix or a site
permutation to such a block without forming the embedded operator, at a
cost linear in k: on the identity block they give the operator's matrix,
on a probe block of a few columns they test an identity at O(D) cost per
factor.  `embed_pair` and `permutation_op` form the full D x D embedding.
Of the checks, only `reduction.check_rpr` (its factor on the n sites of
the reduced operator) still does; the Yang-Baxter, qKZ and reduction
identities are applied to a probe block and form no D x D matrix.
"""

from math import prod

import numpy as np

from .errors import ConfigError


def embed_pair(op, i: int, j: int, site_dims) -> np.ndarray:
    """Two-site operator acting on sites (i, j), identity elsewhere.

    The first tensor factor of `op` is attached to site i, the second to
    site j; i > j and non-adjacent pairs are allowed.
    """
    dims = tuple(site_dims)
    N = len(dims)
    if i == j or not (0 <= i < N and 0 <= j < N):
        raise ConfigError(f"invalid site pair ({i}, {j}) for N = {N}")
    op = np.asarray(op)
    if op.shape != (dims[i] * dims[j],) * 2:
        raise ConfigError(f"operator shape {op.shape} does not fit sites ({i}, {j})")
    rest = [k for k in range(N) if k not in (i, j)]
    full = np.kron(op, np.eye(prod(dims[k] for k in rest) if rest else 1))
    order = [i, j] + rest
    inv = [order.index(k) for k in range(N)]
    tdims = [dims[k] for k in order]
    data = full.reshape(tdims + tdims).transpose(inv + [N + a for a in inv]).reshape(prod(dims), prod(dims))
    return np.ascontiguousarray(data)


def permutation_op(sigma, site_dims) -> np.ndarray:
    """P_sigma moving the object at position i to position sigma[i].

    On product vectors, slot k of the image holds the object that was at
    slot sigma^{-1}(k).
    """
    dims = tuple(site_dims)
    N = len(dims)
    sigma = list(sigma)
    if sorted(sigma) != list(range(N)):
        raise ConfigError("sigma is not a permutation of 0..N-1")
    inv = _inverse(sigma)
    D = prod(dims)
    cols = np.arange(D).reshape(dims)
    src = np.transpose(cols, inv).reshape(-1)
    data = np.zeros((D, D), dtype=complex)
    data[np.arange(D), src] = 1.0
    return data


def _inverse(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return inv


def cyclic_left_shift(N: int):
    """sigma with sigma[0] = N-1 and sigma[i] = i-1: the left shift of objects."""
    return [N - 1] + list(range(N - 1))


def compose_permutations(s1, s2):
    """Permutation of 'apply s2 then s1' (matches P_{s1} P_{s2} = P_{s1 s2})."""
    return [s1[s2[i]] for i in range(len(s1))]


def partial_transpose(op, which: str, dims) -> np.ndarray:
    """Transpose over one tensor factor of a two-site matrix."""
    dA, dB = dims
    op = np.asarray(op)
    if op.shape != (dA * dB, dA * dB):
        raise ConfigError("partial transpose needs a square two-site matrix")
    T = op.reshape(dA, dB, dA, dB)
    if which == "first":
        T = T.transpose(2, 1, 0, 3)
    elif which == "second":
        T = T.transpose(0, 3, 2, 1)
    else:
        raise ConfigError("which must be 'first' or 'second'")
    return np.ascontiguousarray(T.reshape(dA * dB, dA * dB))


def swap_outputs(op, d1: int, d2: int) -> np.ndarray:
    """Swap the two output tensor factors of `op`, rows indexed (d1, d2).

    Equals permutation_op([1, 0], (d1, d2)) @ op, e.g. R = P Rcheck.
    """
    return op.reshape(d1, d2, -1).transpose(1, 0, 2).reshape(d1 * d2, -1)


def relative_residual(ref, other) -> float:
    """||ref - other||_F / ||ref||_F against the reference side `ref`; a zero
    reference tests nothing and reads inf, and a NaN stays NaN."""
    den = np.linalg.norm(ref)
    return float(np.linalg.norm(ref - other) / den) if den != 0 else float("inf")


def scalar_ratio(A, B) -> tuple:
    """(lambda, residual) minimizing ||A - lambda B||_F; residual relative to ||A||."""
    if np.linalg.norm(B) == 0:
        raise ConfigError("B must be nonzero")
    lam = complex(np.vdot(B, A) / np.vdot(B, B))
    return lam, relative_residual(A, lam * B)


def commutant_residual(C1, C2, R) -> float:
    """||[C1 x C2, R]||_F / ||R (C1 x C2)||_F, or inf when a norm overflows or
    is not a number (then the ratio says nothing; no numpy warning is printed)."""
    with np.errstate(all="ignore"):
        CC = np.kron(C1, C2)
        num = np.linalg.norm(CC @ R - R @ CC)
        den = np.linalg.norm(R @ CC)
        return float(num / den) if np.isfinite(num) and np.isfinite(den) else float("inf")


# --- fast in-place style application (internal plumbing) ----------------------

def embedded_matmul(op, i, j, site_dims, M):
    """Left-multiply matrix M by the embedding of two-site `op` at (i, j).

    Equivalent to embed_pair(op, i, j, dims) @ M at cost O(D^2 d_i d_j).
    """
    dims = tuple(site_dims)
    N = len(dims)
    op = np.asarray(op)
    D = prod(dims)
    cols = M.shape[1]
    T = M.reshape(dims + (cols,))
    G = op.reshape(dims[i], dims[j], dims[i], dims[j])
    out = np.tensordot(G, T, axes=([2, 3], [i, j]))  # axes: (i', j', rest..., cols)
    order = []
    nxt = 2
    for k in range(N):
        if k == i:
            order.append(0)
        elif k == j:
            order.append(1)
        else:
            order.append(nxt)
            nxt += 1
    order.append(N)
    return np.ascontiguousarray(out.transpose(order)).reshape(D, cols)


def site_matmul(mat, slot, site_dims, M):
    """Left-multiply matrix M by the one-site matrix `mat` embedded at `slot`."""
    dims = tuple(site_dims)
    cols = M.shape[1]
    T = np.moveaxis(M.reshape(dims + (cols,)), slot, 0)
    T = np.tensordot(mat, T, axes=(1, 0))
    return np.ascontiguousarray(np.moveaxis(T, 0, slot)).reshape(prod(dims), cols)


def permuted_matmul(sigma, site_dims, M):
    """Left-multiply matrix M by P_sigma at reshape cost."""
    dims = tuple(site_dims)
    N = len(dims)
    cols = M.shape[1]
    inv = _inverse(list(sigma))
    T = M.reshape(dims + (cols,))
    out = T.transpose([inv[k] for k in range(N)] + [N])
    return np.ascontiguousarray(out).reshape(prod(dims), cols)
