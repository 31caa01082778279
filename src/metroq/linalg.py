"""Dense complex linear algebra: vectorization calculus, subsystem operations, metrics.

Everything in this module is a pure function on immutable inputs; no shared
state, safe to call from any number of concurrent workers.
"""

from __future__ import annotations

import math

import numpy as np

# Algebraic identities are expected to hold at double precision; structural
# predicates get a looser tolerance because the matrices they see may have
# passed through long operator products.
ATOL_IDENTITY = 1e-12
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


def is_density_matrix(rho, atol: float = ATOL_PREDICATE) -> bool:
    """Whether rho, or every matrix of a stack (..., d, d), is Hermitian,
    of unit trace and positive semidefinite to within atol."""
    m = _as_stack(rho)
    if m.shape[-2] != m.shape[-1]:
        return False
    if np.max(np.abs(m - _dagger(m))) > atol:
        return False
    tr = np.trace(m, axis1=-2, axis2=-1)
    if np.any(np.abs(tr.real - 1.0) > atol) or np.any(np.abs(tr.imag) > atol):
        return False
    return float(np.min(np.linalg.eigvalsh((m + _dagger(m)) / 2))) > -atol


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep, of rho or of every matrix
    of a stack (..., D, D).

    The result is re-Hermitized ((M + M^dagger)/2) to kill roundoff asymmetry,
    so Hermiticity of the output is exact.
    """
    rho = _as_stack(rho)
    dims = list(dims)
    n = len(dims)
    d_total = int(np.prod(dims))
    if rho.shape[-2:] != (d_total, d_total):
        raise ValueError("rho shape does not match product of dims")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= n for i in keep) or not keep:
        raise ValueError("keep must be a non-empty subset of subsystem indices")
    if not is_density_matrix(rho):
        raise ValueError("rho is not a valid density matrix")
    lead = rho.shape[:-2]
    t = rho.reshape(*lead, *dims, *dims)
    removed = 0
    for j in reversed(range(n)):
        if j in keep:
            continue
        t = np.trace(t, axis1=len(lead) + j, axis2=len(lead) + j + n - removed)
        removed += 1
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = t.reshape(*lead, d_keep, d_keep)
    return (out + _dagger(out)) / 2


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


def is_unitary(m, atol: float = ATOL_PREDICATE) -> bool:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))) < atol


def is_diagonal(m, atol: float = ATOL_PREDICATE) -> bool:
    m = as_matrix(m)
    off = m - np.diag(np.diag(m))
    return float(np.max(np.abs(off))) < atol if off.size else True


def is_antidiagonal(m, atol: float = ATOL_PREDICATE) -> bool:
    """True when all entries off the anti-diagonal (i, d-1-i) are below atol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    d = m.shape[0]
    mask = np.ones_like(m, dtype=bool)
    mask[np.arange(d), d - 1 - np.arange(d)] = False
    return float(np.max(np.abs(m[mask]))) < atol if d > 0 else True


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))
