"""Operator algebra on tensor products of site spaces.

Site indices are 0-based throughout.  An operator acts on a block of
columns of shape (prod dims, k).  `string_matmul` applies a string of
two-site factors, one-site matrices and site permutations to such a block
in one pass, without forming an embedded operator and without restoring
the axis order after each factor, at a cost linear in k: on the identity
block it gives the string's matrix, on a probe block of a few columns it
tests an identity at O(D) cost per factor.  One factor or permutation is a
string of one step.  `kron` is the package's one Kronecker product.
Norms, residuals and fits take a stack (S, ...) slice by slice in one call;
a one-slice call is a stack of one.  `embed_pair` and `permutation_op`
form the full D x D embedding.  Of the checks, only `reduction.check_rpr`
(its factor on the n sites of the reduced operator) still does; the
Yang-Baxter, qKZ and reduction identities are applied to a probe block and
form no D x D matrix, and `permutation_op` is the dense reference for the
permutation steps of `string_matmul`.
"""

from math import inf, prod

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
    tdims = [dims[i], dims[j]] + [dims[k] for k in range(N) if k not in (i, j)]
    full = kron(op, np.eye(prod(tdims[2:]))).reshape(tdims + tdims)
    data = np.moveaxis(full, (0, 1, N, N + 1), (i, j, N + i, N + j))
    return np.ascontiguousarray(data).reshape(prod(dims), prod(dims))


def kron(A, B) -> np.ndarray:
    """np.kron of the last two axes of arrays A and B, broadcast over their leading axes."""
    (a0, a1), (b0, b1) = A.shape[-2:], B.shape[-2:]
    out = A[..., :, None, :, None] * B[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a0 * b0, a1 * b1))


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
    D = prod(dims)
    src = np.transpose(np.arange(D).reshape(dims), np.argsort(sigma)).reshape(-1)
    data = np.zeros((D, D), dtype=complex)
    data[np.arange(D), src] = 1.0
    return data


def cyclic_left_shift(N: int):
    """sigma with sigma[0] = N-1 and sigma[i] = i-1: the left shift of objects."""
    return [N - 1] + list(range(N - 1))


def partial_transpose(op, which: str, dims) -> np.ndarray:
    """Transpose over one tensor factor of a two-site matrix, or of each matrix
    of a stack (..., dA dB, dA dB); it only moves entries."""
    dA, dB = dims
    op = np.asarray(op)
    if op.shape[-2:] != (dA * dB, dA * dB):
        raise ConfigError("partial transpose needs a square two-site matrix")
    n = op.ndim - 2
    lead = tuple(range(n))
    T = op.reshape(op.shape[:-2] + (dA, dB, dA, dB))
    if which == "first":
        T = T.transpose((*lead, n + 2, n + 1, n, n + 3))
    elif which == "second":
        T = T.transpose((*lead, n, n + 3, n + 2, n + 1))
    else:
        raise ConfigError("which must be 'first' or 'second'")
    return np.ascontiguousarray(T.reshape(op.shape))


def swap_outputs(op, d1: int, d2: int) -> np.ndarray:
    """Swap the two output tensor factors of `op`, rows indexed (d1, d2).

    Equals permutation_op([1, 0], (d1, d2)) @ op, e.g. R = P Rcheck.
    """
    return op.reshape(d1, d2, -1).transpose(1, 0, 2).reshape(d1 * d2, -1)


def _squares(x):
    """The squared Frobenius norm of each slice of a stack x (S, ...), the
    package's one squared norm.  Each slice is read as one row in the order
    of its entries in memory (axes by falling stride; a slice that is not
    contiguous is copied so), and np.vecdot calls numpy's dot function once
    per row, the BLAS ddot that np.linalg.norm calls, with the same strides:
    1 on a real row, 2 on the real and imaginary parts of a complex one
    (BLAS kernels add in another order at another stride, and a sum over an
    axis adds in its own order).  Another dtype than float or complex is
    cast to float, as np.linalg.norm casts it."""
    if x.dtype.kind not in ("f", "c"):
        x = x.astype(float)
    if not x.flags.c_contiguous:
        x = np.ascontiguousarray(
            x.transpose(0, *sorted(range(1, x.ndim), key=lambda a: -abs(x.strides[a]))))
    x = x.reshape(len(x), -1)
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.vecdot(re, re) + np.vecdot(im, im)
    return np.vecdot(x, x)


def relative_residuals(ref, other) -> list:
    """||ref[s] - other[s]||_F / ||ref[s]||_F for each slice s of two stacks
    (S, ...) against the reference side `ref`, as floats.  A zero reference
    tests nothing and an overflowing one reads any finite difference as 0,
    so both read inf (with no numpy warning), and a NaN stays NaN."""
    ref = np.asarray(ref)
    with np.errstate(all="ignore"):
        den = np.sqrt(_squares(ref))
        res = np.sqrt(_squares(ref - other)) / den
    return [inf if d == 0 or d == inf else r for r, d in zip(res.tolist(), den.tolist())]


def relative_residual(ref, other) -> float:
    """relative_residuals of one pair, a stack of one."""
    return relative_residuals(np.asarray(ref)[None], np.asarray(other)[None])[0]


def scalar_ratios(A, B) -> tuple:
    """(lambdas, residuals) of each slice of two stacks (S, ...): lambda_s
    minimizes ||A[s] - lambda_s B[s]||_F, and the residual is relative to
    ||A[s]|| (relative_residuals).  A slice of B of zero norm raises.
    np.vecdot conjugates its first argument and calls, once per C-order row,
    the dot function of np.vdot (BLAS zdotc for complex).  The quotient is
    taken under the caller's np.errstate, so a quotient that is not finite
    warns, or raises under np.errstate, there."""
    A, B = np.asarray(A), np.asarray(B)
    a, b = A.reshape(len(A), -1), B.reshape(len(B), -1)
    with np.errstate(all="ignore"):
        num, den = np.vecdot(b, a), np.vecdot(b, b)  # den: ||B[s]||^2
    if (den == 0).any():
        raise ConfigError("B must be nonzero")
    lam = (num / den).astype(complex, copy=False)
    return lam.tolist(), relative_residuals(A, lam.reshape((-1,) + (1,) * (B.ndim - 1)) * B)


def commutant_residual(C1, C2, R) -> float:
    """||[C1 x C2, R]||_F / ||R (C1 x C2)||_F (relative_residual, so an
    overflowing side reads inf)."""
    with np.errstate(all="ignore"):
        CC = kron(C1, C2)
        return relative_residual(R @ CC, CC @ R)


# --- application to a block of columns ----------------------------------------

def string_matmul(steps, site_dims, M):
    """Left-multiply M by a string of site operators, `steps` in application
    order: (op, sites) applies the matrix `op` to the sites tuple (one or two
    sites, op's first tensor factor on sites[0]) and (None, sigma) applies
    P_sigma.  Each site keeps its dimension when a permutation moves it.

    M is a block (D, k) or a stack of S blocks (S, D, k), and the result has
    M's shape; an op is one matrix, applied to every block, or a stack of S
    matrices (S, a, a), whose slice s applies to block s (M is then a stack).
    The blocks stay a tensor with one axis per site and the column axis last,
    after the stack axis of a stack, and `labels` says which site each site
    axis holds; one loop serves a block and a stack.  A factor costs one
    transpose-copy that brings its sites to the front, the other sites after
    them in site order, and one matrix product, after which its output axes
    lead; a permutation only relabels, and one transpose restores the (D, k)
    blocks at the end.  So R = P Rcheck on (i, j) is
    (Rcheck, (i, j)) followed by the transposition of i and j, with no copy of
    its own.  Each product reads, slice by slice, the matrix that the
    step-by-step application reads, column for column, and numpy's stacked
    matmul calls the same BLAS gemm on each slice, so neither the BLAS
    kernel's column blocking nor the stacking moves a bit: slice s of a stack
    is the call on block s with the ops of slice s.  `steps` may be a
    generator; every step is built before the first product.  An
    overflowing product reads inf or NaN, with no numpy warning, so the
    residual it reaches fails its report.
    """
    dims, cols = tuple(site_dims), M.shape[-1]
    lead = M.shape[:-2]  # (S,) for a stack, () for one block
    o, n = len(lead), len(dims)
    T = M.reshape(lead + dims + (cols,))
    stack = tuple(range(o))  # a stack's axis leads and stays
    labels = [None] * o + list(range(n))  # labels[a]: the site that axis a of T holds
    steps = list(steps)  # built before the products, outside their errstate
    with np.errstate(all="ignore"):
        for op, where in steps:
            if op is None:
                labels[o:] = [where[site] for site in labels[o:]]
                continue
            front = [labels.index(site) for site in where]
            rest = sorted((a for a in range(o, o + n) if a not in front), key=labels.__getitem__)
            T = T.transpose((*stack, *front, *rest, o + n))  # the column axis last
            shape = T.shape
            T = (np.asarray(op) @ T.reshape(*lead, prod(shape[o:o + len(where)]), -1)
                 ).reshape(shape)
            labels[o:] = [*where, *(labels[a] for a in rest)]
    order = sorted(range(o, o + n), key=labels.__getitem__)  # np.argsort costs more
    return np.ascontiguousarray(T.transpose((*stack, *order, o + n))).reshape(M.shape)

