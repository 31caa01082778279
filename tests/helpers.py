"""Shared test utilities: random quantum objects with seeded generators, and
loop-form reference implementations of vectorised kernels."""

import math

import numpy as np

from metroq.channels import KrausChannel
from metroq.linalg import ATOL_PREDICATE, as_matrix, as_vector, fidelity_up_to_phase, normalized
from metroq.states import plus_minus_states, u_phi


def random_complex_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_density_matrix(rng, d):
    g = random_complex_matrix(rng, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_cptp_channel(rng, d, n_ops):
    """Random trace-preserving Kraus family: Ginibre blocks right-normalized."""
    gs = [random_complex_matrix(rng, d) for _ in range(n_ops)]
    s = sum(g.conj().T @ g for g in gs)
    w, v = np.linalg.eigh(s)
    s_inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return KrausChannel(tuple(g @ s_inv_sqrt for g in gs))


def apply_on_factor(state, dims, k, op):
    """Reference for states.phase_mask: a matrix applied to subsystem k of a
    state vector on a tensor-product space."""
    state = as_vector(state)
    op = as_matrix(op)
    dims = list(dims)
    if int(np.prod(dims)) != state.size:
        raise ValueError("product of dims does not match state dimension")
    if op.shape != (dims[k], dims[k]):
        raise ValueError("operator dimension does not match subsystem k")
    t = state.reshape(dims)
    t = np.moveaxis(np.tensordot(op, t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def project_subsystem(state, dims, k, onto):
    """Branch oracle: project subsystem k of a normalized state onto a
    normalized vector.

    Returns (probability, conditional state on the remaining subsystems, in
    their original order).  A zero-probability outcome returns (0.0, None):
    the conditional is undefined, never a NaN vector.
    """
    state = as_vector(state)
    onto = as_vector(onto)
    dims = list(dims)
    if int(np.prod(dims)) != state.size:
        raise ValueError("product of dims does not match state dimension")
    if onto.size != dims[k]:
        raise ValueError("projection vector does not match subsystem k dimension")
    if abs(np.linalg.norm(state) - 1.0) > ATOL_PREDICATE:
        raise ValueError("state must be normalized")
    if abs(np.linalg.norm(onto) - 1.0) > ATOL_PREDICATE:
        raise ValueError("projection vector must be normalized")
    t = state.reshape(dims)
    partial = np.tensordot(onto.conj(), t, axes=([0], [k])).reshape(-1)
    p = float(np.real(np.vdot(partial, partial)))
    if p < 1e-15:
        return 0.0, None
    p = min(p, 1.0)
    return p, partial / math.sqrt(p)


def branch_amplitudes_tensordot(state, h, n):
    """Reference for equivalence._branch_amplitudes: probes 2..n contracted
    with the +- projector one np.tensordot at a time, the outcome axis moved
    back into the contracted probe's place; probe 1 on the rows."""
    plus, minus = plus_minus_states(h)
    proj = np.stack([plus.conj(), minus.conj()])
    t = state.reshape((h.dim,) * n)
    for axis in range(1, n):
        t = np.moveaxis(np.tensordot(proj, t, axes=([1], [axis])), 0, axis)
    return t.reshape(h.dim, -1)


def useful_entanglement_check_per_phase(e, h):
    """Reference for equivalence.useful_entanglement_check: the same decision
    taken one grid phase and one start state at a time with matrix boxes."""
    e = as_matrix(e)
    smax = float(np.max(np.linalg.svd(e, compute_uv=False)))
    if smax == 0.0:
        return False, None
    e = e / smax
    c0 = e[h.min_index, h.min_index]
    c1 = e[h.max_index, h.max_index]
    if abs(c0) < 1e-12 or abs(c1) < 1e-12:
        return False, None
    lam_hat = float(np.angle(c1 / c0))
    lo = np.zeros(h.dim, dtype=np.complex128)
    hi = np.zeros(h.dim, dtype=np.complex128)
    lo[h.min_index] = 1.0
    hi[h.max_index] = 1.0
    targets = [normalized(lo + sign * np.exp(1j * lam_hat) * hi) for sign in (1.0, -1.0)]
    plus, minus = plus_minus_states(h)
    for phi in np.linspace(0.0, 2 * math.pi, 50, endpoint=False):
        u = u_phi(h, phi)
        u2 = u @ u
        for start, target in zip((plus, minus), targets):
            v = u @ e @ u @ start
            nv = float(np.linalg.norm(v))
            if nv < 1e-12:
                return False, None
            if fidelity_up_to_phase(v / nv, u2 @ target) < 1.0 - 1e-12:
                return False, None
    return True, lam_hat
