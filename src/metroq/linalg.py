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
    """Tensor product of two matrices or of two vectors.

    Matrices: entry ((i,k),(j,l)) = a[i,j] * b[k,l]; vectors: component
    i * len(b) + k = a[i] * b[k].  One broadcast multiply of the complex128
    inputs followed by a reshape: numpy's own kron also ends in a single
    broadcast multiply of the same entry pairs, so the result is bitwise the
    same, without its general-rank set-up.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim == b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron expects two matrices or two vectors, got {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def vec(c) -> np.ndarray:
    """Row-major vectorization of a square matrix: component i*d + j is c[i, j].

    With this ordering kron(a, b) @ vec(c) == vec(a @ c @ b.T) holds exactly
    as written; see vec_identity_residual.
    """
    m = as_matrix(c)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"vec expects a square matrix, got {m.shape}")
    return m.reshape(-1).copy()


def vec_identity_residual(a, b, c) -> float:
    """Max-abs entry of kron(a,b) @ vec(c) - vec(a @ c @ b.T).

    Identically zero in exact arithmetic for any square a, b, c of equal
    dimension; the returned residual is the double-precision roundoff.
    """
    a, b, c = as_matrix(a), as_matrix(b), as_matrix(c)
    for m in (a, b, c):
        if m.shape != a.shape or m.shape[0] != m.shape[1]:
            raise ValueError("vec_identity_residual expects equal square dimensions")
    lhs = kron(a, b) @ vec(c)
    rhs = vec(a @ c @ b.T)
    return float(np.max(np.abs(lhs - rhs)))


def is_density_matrix(rho, atol: float = ATOL_PREDICATE) -> bool:
    m = as_matrix(rho)
    if m.shape[0] != m.shape[1]:
        return False
    if np.max(np.abs(m - m.conj().T)) > atol:
        return False
    if abs(np.trace(m).real - 1.0) > atol or abs(np.trace(m).imag) > atol:
        return False
    return float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))) > -atol


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out all subsystems not listed in keep.

    The result is re-Hermitized ((M + M^dagger)/2) to kill roundoff asymmetry,
    so Hermiticity of the output is exact.
    """
    rho = as_matrix(rho)
    dims = list(dims)
    n = len(dims)
    d_total = int(np.prod(dims))
    if rho.shape != (d_total, d_total):
        raise ValueError("rho shape does not match product of dims")
    keep = sorted(set(int(i) for i in keep))
    if any(i < 0 or i >= n for i in keep) or not keep:
        raise ValueError("keep must be a non-empty subset of subsystem indices")
    if not is_density_matrix(rho):
        raise ValueError("rho is not a valid density matrix")
    t = rho.reshape(*dims, *dims)
    removed = 0
    for j in reversed(range(n)):
        if j in keep:
            continue
        t = np.trace(t, axis1=j, axis2=j + n - removed)
        removed += 1
    d_keep = int(np.prod([dims[i] for i in keep]))
    out = t.reshape(d_keep, d_keep)
    return (out + out.conj().T) / 2


def trace_distance(r1, r2) -> float:
    """Half the sum of singular values of r1 - r2."""
    r1, r2 = as_matrix(r1), as_matrix(r2)
    if r1.shape != r2.shape:
        raise ValueError("trace_distance requires matching dimensions")
    return float(0.5 * np.sum(np.linalg.svd(r1 - r2, compute_uv=False)))


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
