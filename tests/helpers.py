"""Shared test utilities: random quantum objects with seeded generators,
loop-form reference implementations of vectorised and stacked kernels, and the
environment of a fresh metroq child process."""

import math
import os
import sys

import numpy as np

from metroq.channels import KrausChannel
from metroq.linalg import (
    ATOL_PREDICATE,
    as_matrix,
    as_vector,
    fidelity_up_to_phase,
    is_density_matrix,
    kron,
    normalized,
)
from metroq.states import (
    Generator,
    StrategyKind,
    classical_corr_state,
    plus_minus_states,
    repeated_index,
)


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


def u_phi(h, phi):
    """Reference for states.phase_box at one phase: the box e^{i phi H} as a
    dense diagonal matrix."""
    return np.diag(np.exp(1j * (phi * h.eigenvalues)))


def phase_mask(h, phis):
    """Reference for states.ghz_phase_support and states.phase_box: the
    diagonal of u_phi(h, phis[0]) (x) ... (x) u_phi(h, phis[-1]) on the whole
    d^N register.

    Built as the outer product of the per-probe factors exp(i phi_j
    eigenvalues), probe 1 on the most significant axis as in np.kron; the
    product runs from the last probe outward, the order ghz_phase_support
    multiplies its two entries in.
    """
    factors = np.exp(1j * np.multiply.outer(np.asarray(phis, dtype=float), h.eigenvalues))
    mask = np.ones(1, dtype=np.complex128)
    for factor in factors[::-1]:
        mask = np.multiply.outer(factor, mask).reshape(-1)
    return mask


def ghz_register(h, n, support):
    """Reference for states.ghz_phase_support: the d^n register holding
    support[0] on |min...min>, support[1] on |max...max> and zeros elsewhere,
    the whole state the support stands for."""
    state = np.zeros(h.dim**n, dtype=np.complex128)
    state[repeated_index(h.dim, n, h.min_index)] = support[0]
    state[repeated_index(h.dim, n, h.max_index)] = support[1]
    return state


def apply_on_factor(state, dims, k, op):
    """Reference for phase_mask: a matrix applied to subsystem k of a state
    vector on a tensor-product space."""
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
    """Reference for equivalence._support_branch_amplitudes, given the whole
    register ghz_register(h, n, support): probes 2..n contracted with the +-
    projector one np.tensordot at a time, the outcome axis moved back into the
    contracted probe's place; probe 1 on the rows."""
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


def vec_identity_residual_per_triple(a, b, c):
    """Reference for linalg.vec_identity_residual on one triple of matrices:
    numpy's kron and a row-major reshape, one matrix-vector product."""
    lhs = np.kron(a, b) @ c.reshape(-1)
    rhs = (a @ c @ b.T).reshape(-1)
    return float(np.max(np.abs(lhs - rhs)))


def check_vectorization_six_draws(rng, n_max, samples):
    """Reference for cli.check_vectorization: six (d, d) draws per sample
    (real then imaginary part of a, b and c), each triple graded alone."""
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        a, b, c = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for _ in range(3))
        worst = max(worst, vec_identity_residual_per_triple(a, b, c))
    return worst


def counterexample_per_phase(basis, phi):
    """Reference for equivalence.counterexample at one phase: 4x4 matrix
    products and the probe-2 trace taken on the 2-D state."""
    h = Generator.qubit()
    u2 = kron(u_phi(h, phi), u_phi(h, phi))
    evolved = u2 @ classical_corr_state(basis) @ u2.conj().T
    acc = np.zeros((4, 4), dtype=np.complex128)
    for o in plus_minus_states(h):
        proj = kron(np.eye(2), np.outer(o, o.conj()))
        acc += proj @ evolved @ proj
    assert is_density_matrix(acc)
    out = np.trace(acc.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return (out + out.conj().T) / 2


def trace_distance_per_pair(r1, r2):
    """Reference for linalg.trace_distance on two matrices."""
    return float(0.5 * np.sum(np.linalg.svd(r1 - r2, compute_uv=False)))


def check_counterexample_per_phase(basis, grid):
    """Reference for cli.check_counterexample: one phase of the grid at a time."""
    eye_half = np.eye(2) / 2
    ref = counterexample_per_phase(basis, 0.0)
    entry = phi_dep = 0.0
    for phi in np.linspace(0.0, math.pi, grid):
        avg = counterexample_per_phase(basis, phi)
        entry = max(entry, float(np.max(np.abs(avg - eye_half))))
        phi_dep = max(phi_dep, trace_distance_per_pair(avg, ref))
    return entry, phi_dep


# the stream index of each strategy, as the README documents it
STREAM_INDEX = {
    StrategyKind.SEQUENTIAL: 0,
    StrategyKind.CLASSICAL_PARALLEL: 1,
    StrategyKind.ENTANGLED_PARALLEL: 2,
}


def derive_round_seed_spawn_key(seed, kind, n, round_index):
    """Reference for simulate.derive_round_seed: numpy's spawn-key form,
    which converts the seed and the key into uint32 words itself."""
    ss = np.random.SeedSequence(seed, spawn_key=(STREAM_INDEX[kind], n, round_index))
    return int(ss.generate_state(1, np.uint64)[0])


def binomial_from_int_seed(trials, p, seed):
    """Reference for simulate.run_trials' draw: a Philox stream seeded by the
    Python int itself."""
    return int(np.random.Generator(np.random.Philox(seed)).binomial(trials, p))


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**blas_vars):
    """Environment for a fresh Python child: this process's import path, and
    no BLAS thread variable besides those given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(blas_vars, PYTHONPATH=os.pathsep.join(sys.path))
    return env
