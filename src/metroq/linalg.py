"""Dense complex linear algebra: vectorization calculus, tensor products, predicates, metrics.

Everything in this module is a pure function on immutable inputs; no shared
state, safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import math

import numpy as np

# Structural predicates get a tolerance looser than double precision because
# the matrices they see may have passed through long operator products.
ATOL_PREDICATE = 1e-10


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    w = np.asarray(v, dtype=np.complex128)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {w.shape}")
    return w


def normalized(v) -> np.ndarray:
    """Return v / ||v||, rejecting zero or non-finite input."""
    w = as_vector(v)
    n = float(np.linalg.norm(w))
    if not math.isfinite(n) or n == 0.0:
        raise ValueError("cannot normalize a zero or non-finite vector")
    return w / n


def basis_state(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dim {dim}")
    e = np.zeros(dim, dtype=np.complex128)
    e[index] = 1.0
    return e


def kron(a, b) -> np.ndarray:
    """Tensor product of two matrices, two stacks of matrices, or two vectors.

    Matrices: entry ((i,k),(j,l)) = a[i,j] * b[k,l]; vectors: component
    i * len(b) + k = a[i] * b[k].  Stacks (..., m, n) and (..., p, q) are
    multiplied matrix by matrix, their leading axes broadcast.  One broadcast
    multiply of the complex128 inputs followed by a reshape: numpy's own kron
    also ends in a single broadcast multiply of the same entry pairs, so each
    product is bitwise the same, without its general-rank set-up.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"kron expects two matrices or two vectors, got {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def _as_stack(a) -> np.ndarray:
    """A matrix or a stack (..., m, n) of matrices as complex128; a 2-D input
    is a stack of one with no leading axes."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    return m


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def vec(c) -> np.ndarray:
    """Row-major vectorization of a square matrix: component i*d + j is c[i, j].

    A stack (..., d, d) gives a stack (..., d*d) of vectors.  With this
    ordering kron(a, b) @ vec(c) == vec(a @ c @ b.T) holds exactly as written;
    see vec_identity_residual.
    """
    m = _as_stack(c)
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"vec expects a square matrix, got {m.shape}")
    return m.reshape(*m.shape[:-2], -1).copy()


def vec_identity_residual(a, b, c) -> float | np.ndarray:
    """Max-abs entry of kron(a,b) @ vec(c) - vec(a @ c @ b.T).

    Identically zero in exact arithmetic for any square a, b, c of equal
    dimension; the returned residual is the double-precision roundoff.  For
    stacks (k, d, d) of triples it is an array of k residuals, each bitwise
    the one the triple gives on its own: matmul runs the same BLAS call on
    every matrix of a stack.
    """
    a, b, c = _as_stack(a), _as_stack(b), _as_stack(c)
    for m in (a, b, c):
        if m.shape != a.shape or m.shape[-2] != m.shape[-1]:
            raise ValueError("vec_identity_residual expects equal square dimensions")
    lhs = (kron(a, b) @ vec(c)[..., None])[..., 0]
    rhs = vec(a @ c @ b.swapaxes(-1, -2))
    residual = np.max(np.abs(lhs - rhs), axis=-1)
    return float(residual) if residual.ndim == 0 else residual


def is_density_matrix(rho) -> bool:
    """Whether rho, or every matrix of a stack (..., d, d), is Hermitian,
    of unit trace and positive semidefinite to within ATOL_PREDICATE."""
    m = _as_stack(rho)
    if m.shape[-2] != m.shape[-1]:
        return False
    if np.max(np.abs(m - _dagger(m))) > ATOL_PREDICATE:
        return False
    tr = np.trace(m, axis1=-2, axis2=-1)
    if (np.any(np.abs(tr.real - 1.0) > ATOL_PREDICATE)
            or np.any(np.abs(tr.imag) > ATOL_PREDICATE)):
        return False
    return float(np.min(np.linalg.eigvalsh((m + _dagger(m)) / 2))) > -ATOL_PREDICATE


def trace_distance(r1, r2) -> float | np.ndarray:
    """Half the sum of singular values of r1 - r2.

    Stacks (..., d, d) broadcast against each other and give an array of
    distances; two matrices give a float.
    """
    r1, r2 = _as_stack(r1), _as_stack(r2)
    if r1.shape[-2:] != r2.shape[-2:]:
        raise ValueError("trace_distance requires matching dimensions")
    distance = 0.5 * np.sum(np.linalg.svd(r1 - r2, compute_uv=False), axis=-1)
    return float(distance) if distance.ndim == 0 else distance


def fidelity_up_to_phase(v1, v2) -> float:
    """|<v1|v2>|^2 for normalized vectors; insensitive to global phases."""
    v1, v2 = as_vector(v1), as_vector(v2)
    if v1.size != v2.size:
        raise ValueError("fidelity requires matching dimensions")
    f = float(abs(np.vdot(v1, v2)) ** 2)
    return min(f, 1.0)


def worst(residuals) -> float:
    """The largest of an iterable of residuals, NaN if any is NaN: Python's
    max keeps a number over a NaN that follows it, so a check reduced by it
    could pass on a NaN.  On finite input it is the same float as max's."""
    return float(np.max(np.fromiter(residuals, float)))


def is_unitary(m) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) < ATOL_PREDICATE


def is_diagonal(m) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    off = m - np.diag(np.diag(m))
    return float(np.max(np.abs(off))) < ATOL_PREDICATE if off.size else True


def is_antidiagonal(m) -> bool:
    """True when all entries off the anti-diagonal (i, d-1-i) are below
    ATOL_PREDICATE: the matrix with its columns reversed is diagonal."""
    return is_diagonal(as_matrix(m)[:, ::-1])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
