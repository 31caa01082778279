import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metroq import linalg
from metroq.linalg import (
    fidelity_up_to_phase,
    is_antidiagonal,
    is_density_matrix,
    is_diagonal,
    is_unitary,
    kron,
    normalized,
    partial_trace,
    trace_distance,
    vec,
    vec_identity_residual,
)
from metroq.states import PAULI_Z, Generator, u_phi

from helpers import (
    project_subsystem,
    random_complex_matrix,
    random_density_matrix,
    random_state,
    trace_distance_per_pair,
    vec_identity_residual_per_triple,
)

I2 = np.eye(2)


def test_kron_identity():
    np.testing.assert_array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal_phase_boxes():
    # two diagonal phase boxes combine into the expected 4x4 diagonal
    phi_a, phi_b = 0.3, 1.1
    a = np.diag([1.0, np.exp(1j * phi_a)])
    b = np.diag([1.0, np.exp(1j * phi_b)])
    expected = np.diag(
        [1.0, np.exp(1j * phi_b), np.exp(1j * phi_a), np.exp(1j * (phi_a + phi_b))]
    )
    np.testing.assert_allclose(kron(a, b), expected, atol=1e-15)


def test_kron_pauli_z_pair():
    np.testing.assert_array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize(
    "case",
    [
        lambda rng, d: (_complex(rng, d), _complex(rng, 9 - d)),  # vector (x) vector
        lambda rng, d: (_complex(rng, d, d), _complex(rng, 9 - d, 9 - d)),  # square
        lambda rng, d: (_complex(rng, d, 9 - d), _complex(rng, 1, d)),  # non-square
        lambda rng, d: (rng.standard_normal((d, d)), _complex(rng, d, d)),  # float (x) complex
        lambda rng, d: (_complex(rng, d, 2), rng.standard_normal((3, d))),  # complex (x) float
    ],
    ids=["vector", "square", "non-square", "float-complex", "complex-float"],
)
def test_kron_is_bitwise_numpy_kron(case):
    rng = np.random.default_rng(44)
    for d in range(1, 9):
        a, b = case(rng, d)
        out, ref = kron(a, b), np.kron(a, b)
        assert out.dtype == np.complex128 and out.shape == ref.shape
        assert out.tobytes() == ref.astype(np.complex128).tobytes()


def test_kron_stacks_are_bitwise_per_matrix():
    # leading axes broadcast: a stack against a stack, and a stack against one matrix
    rng = np.random.default_rng(45)
    a, b = _complex(rng, 5, 3, 2), _complex(rng, 5, 2, 4)
    single = _complex(rng, 2, 2)
    stacked, broadcast = kron(a, b), kron(single, b)
    assert stacked.shape == (5, 6, 8) and broadcast.shape == (5, 4, 8)
    for k in range(5):
        assert stacked[k].tobytes() == np.kron(a[k], b[k]).tobytes()
        assert broadcast[k].tobytes() == np.kron(single, b[k]).tobytes()


def test_kron_rejects_mixed_ranks():
    with pytest.raises(ValueError):
        kron(np.ones(2), np.eye(2))


def test_vec_identity_matrix():
    np.testing.assert_array_equal(vec(I2), np.array([1, 0, 0, 1], dtype=complex))


def test_vec_pauli_z():
    np.testing.assert_array_equal(vec(PAULI_Z), np.array([1, 0, 0, -1], dtype=complex))


def test_vec_zero_matrix():
    np.testing.assert_array_equal(vec(np.zeros((3, 3))), np.zeros(9, dtype=complex))


def test_vec_stack_is_one_vec_per_matrix():
    rng = np.random.default_rng(46)
    c = _complex(rng, 4, 3, 3)
    out = vec(c)
    assert out.shape == (4, 9)
    for k in range(4):
        np.testing.assert_array_equal(out[k], vec(c[k]))


def test_vec_rejects_non_square():
    with pytest.raises(ValueError):
        vec(np.zeros((2, 3)))


def test_vec_identity_trivial():
    assert vec_identity_residual(I2, I2, I2) == 0.0


def test_vec_identity_phase_boxes():
    h = Generator.qubit()
    assert vec_identity_residual(u_phi(h, 0.7), u_phi(h, 1.3), I2) < 1e-12


def test_vec_identity_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        a, b, c = (random_complex_matrix(rng, d) for _ in range(3))
        assert vec_identity_residual(a, b, c) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_vec_identity_property(d, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_complex_matrix(rng, d) for _ in range(3))
    assert vec_identity_residual(a, b, c) < 1e-12


def test_vec_identity_stack_is_bitwise_per_triple():
    # the stacked residuals are those of one triple at a time, bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for d in range(2, 9):
            a, b, c = _complex(rng, 3, 6, d, d)
            stacked = vec_identity_residual(a, b, c)
            assert stacked.shape == (6,)
            single = np.array([vec_identity_residual(a[k], b[k], c[k]) for k in range(6)])
            oracle = np.array([vec_identity_residual_per_triple(a[k], b[k], c[k])
                               for k in range(6)])
            assert stacked.tobytes() == single.tobytes() == oracle.tobytes()
            assert np.max(stacked) < 1e-12


def test_vec_identity_stack_detects_one_corrupted_triple(monkeypatch):
    # A d = 8 group as verify draws it.  The mutant vectorizes sample 17 of c
    # transposed on the kron side only (c -> c^T there): that residual must
    # stand out of the stack, the others stay at roundoff.
    rng = np.random.default_rng(47)
    z = rng.standard_normal((29, 3, 2, 8, 8))
    a, b, c = (z[:, i, 0] + 1j * z[:, i, 1] for i in range(3))
    real_vec = linalg.vec

    def vec_one_transposed(m):
        if np.shares_memory(m, c):
            m = m.copy()
            m[17] = m[17].T.copy()
        return real_vec(m)

    monkeypatch.setattr(linalg, "vec", vec_one_transposed)
    residual = vec_identity_residual(a, b, c)
    assert residual[17] > 1e-3
    assert np.max(np.delete(residual, 17)) < 1e-12


def test_vec_identity_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        vec_identity_residual(I2, np.eye(3), I2)


# project_subsystem is the branch oracle of the conversion tests; these pin it.

def test_project_bell_onto_plus():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    plus = np.array([1, 1]) / math.sqrt(2)
    p, cond = project_subsystem(bell, [2, 2], 1, plus)
    assert abs(p - 0.5) < 1e-12
    assert fidelity_up_to_phase(cond, plus) > 1 - 1e-12


def test_project_pointer_states():
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    state = np.kron(zero, zero)
    p, cond = project_subsystem(state, [2, 2], 1, zero)
    assert abs(p - 1.0) < 1e-12
    assert fidelity_up_to_phase(cond, zero) > 1 - 1e-12
    p, cond = project_subsystem(state, [2, 2], 1, one)
    assert p == 0.0
    assert cond is None


def test_project_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    state = random_state(rng, 2 * 3 * 2)
    basis = np.eye(3)
    probs = [project_subsystem(state, [2, 3, 2], 1, b)[0] for b in basis]
    assert abs(sum(probs) - 1.0) < 1e-12


def test_project_reconstructs_partial_trace():
    # probability-weighted conditional projectors rebuild the reduced state
    rng = np.random.default_rng(6)
    state = random_state(rng, 8)
    acc = np.zeros((4, 4), dtype=complex)
    for b in np.eye(2):
        p, cond = project_subsystem(state, [2, 2, 2], 2, b)
        if cond is not None:
            acc += p * np.outer(cond, cond.conj())
    rho = np.outer(state, state.conj())
    np.testing.assert_allclose(acc, partial_trace(rho, [2, 2, 2], keep=[0, 1]), atol=1e-10)


def test_partial_trace_bell():
    bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, [2, 2], keep=[0]), I2 / 2, atol=1e-12)


def test_partial_trace_product():
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    rho = np.kron(np.outer(zero, zero), np.outer(one, one))
    np.testing.assert_allclose(partial_trace(rho, [2, 2], keep=[0]), np.outer(zero, zero))


def test_partial_trace_properties():
    rng = np.random.default_rng(7)
    rho = random_density_matrix(rng, 8)
    red = partial_trace(rho, [2, 2, 2], keep=[0, 2])
    assert abs(np.trace(red) - 1.0) < 1e-12
    assert np.array_equal(red, red.conj().T)
    assert np.min(np.linalg.eigvalsh(red)) > -1e-10


def test_partial_trace_rejects_invalid_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), [2, 2], keep=[0])  # trace 4, not a state


def test_partial_trace_stack_is_per_matrix():
    rng = np.random.default_rng(9)
    rhos = np.stack([random_density_matrix(rng, 8) for _ in range(5)])
    assert is_density_matrix(rhos)
    red = partial_trace(rhos, [2, 2, 2], keep=[0, 2])
    assert red.shape == (5, 4, 4)
    for k in range(5):
        assert red[k].tobytes() == partial_trace(rhos[k], [2, 2, 2], keep=[0, 2]).tobytes()


def test_partial_trace_stack_rejects_one_invalid_matrix():
    # only the last matrix of the stack is not a state (trace 2)
    rng = np.random.default_rng(10)
    rhos = np.stack([random_density_matrix(rng, 4) for _ in range(4)])
    rhos[-1] *= 2
    assert not is_density_matrix(rhos)
    assert is_density_matrix(rhos[:-1])
    with pytest.raises(ValueError):
        partial_trace(rhos, [2, 2], keep=[0])


def test_trace_distance_stack_is_per_pair():
    rng = np.random.default_rng(12)
    rhos = np.stack([random_density_matrix(rng, 3) for _ in range(6)])
    sigma = random_density_matrix(rng, 3)
    stacked = trace_distance(rhos, sigma)
    assert stacked.shape == (6,)
    per_pair = np.array([trace_distance_per_pair(r, sigma) for r in rhos])
    assert stacked.tobytes() == per_pair.tobytes()
    assert isinstance(trace_distance(rhos[0], sigma), float)


def test_trace_distance_and_fidelity_extremes():
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    rho0 = np.outer(zero, zero)
    rho1 = np.outer(one, one)
    assert trace_distance(rho0, rho0) == 0.0
    assert abs(trace_distance(rho0, rho1) - 1.0) < 1e-12
    assert fidelity_up_to_phase(zero, zero) == 1.0
    assert fidelity_up_to_phase(zero, one) == 0.0


def test_fidelity_global_phase_insensitive():
    rng = np.random.default_rng(8)
    v = random_state(rng, 4)
    for theta in (0.1, 2.2, -0.7):
        assert fidelity_up_to_phase(v, np.exp(1j * theta) * v) > 1 - 1e-12


def test_metric_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        fidelity_up_to_phase(np.zeros(2), np.zeros(3))


def test_predicates():
    h = Generator.qubit()
    assert is_unitary(u_phi(h, 0.9))
    assert not is_unitary(2 * I2)
    assert is_diagonal(np.diag([1.0, 2.0]))
    assert not is_diagonal(np.array([[1, 1e-8], [0, 1]]))
    assert is_antidiagonal(np.array([[0, 3], [2, 0]]))
    assert not is_antidiagonal(np.array([[1e-8, 3], [2, 0]]))
    # strictly upper matrix counts as anti-diagonal for d=2: off-anti entries vanish
    assert is_antidiagonal(np.array([[0, 1], [0, 0]]))


def test_predicates_idempotent():
    m = np.array([[1, 1e-11], [0, 1]])
    first = is_diagonal(m)
    assert first and is_diagonal(m) == first


def test_normalized_rejects_zero():
    with pytest.raises(ValueError):
        normalized(np.zeros(3))
