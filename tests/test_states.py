import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metroq
from metroq.linalg import fidelity_up_to_phase, partial_trace, vec
from metroq.states import (
    PAULI_X,
    PAULI_Z,
    Generator,
    StrategyKind,
    StrategySpec,
    classical_corr_state,
    ghz_like,
    ghz_phase_support,
    phase_box,
    plus_minus_states,
    repeated_index,
)

from helpers import ghz_register, phase_mask, u_phi


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator(np.array([0.0, 1.0]), 1, 1)
    with pytest.raises(ValueError):
        Generator(np.array([0.0, 1.0]), 1, 0)  # indices swapped
    with pytest.raises(ValueError):
        Generator(np.array([1.0, 1.0]), 0, 1)  # degenerate spread
    h = Generator(np.array([-0.5, 0.25, 1.5]), 0, 2)
    assert h.dim == 3 and h.gap == 2.0


# the qubit, a qutrit with a middle eigenvalue, and the bosonic generators
BOX_GENERATORS = [
    Generator.qubit(),
    Generator(np.array([-0.3, 0.45, 1.2]), 0, 2),
    *[Generator.number(n) for n in (1, 5, 12)],
    *[Generator.number_difference(n) for n in (1, 5, 12)],
]


def test_u_phi_is_bitwise_the_phase_box_on_the_diagonal():
    rng = np.random.default_rng(71)
    for h in BOX_GENERATORS:
        for phi in (0.0, math.pi, *rng.uniform(-7, 7, size=5)):
            box = phase_box(h, phi)
            assert box.shape == (h.dim,)
            assert u_phi(h, phi).tobytes() == np.diag(box).tobytes()


def test_stacked_phase_box_rows_are_bitwise_single_calls():
    rng = np.random.default_rng(72)
    for h in BOX_GENERATORS:
        phis = rng.uniform(-7, 7, size=(3, 4))
        boxes = phase_box(h, phis)
        assert boxes.shape == (3, 4, h.dim)
        for g in np.ndindex(3, 4):
            assert boxes[g].tobytes() == phase_box(h, phis[g]).tobytes()


def test_one_probe_phase_mask_is_bitwise_the_phase_box():
    rng = np.random.default_rng(73)
    for h in BOX_GENERATORS:
        for phi in (0.0, math.pi, *rng.uniform(-7, 7, size=5)):
            assert phase_mask(h, [phi]).tobytes() == phase_box(h, phi).tobytes()


def test_phase_box_at_zero_and_pi():
    h = Generator.qubit()
    np.testing.assert_array_equal(phase_box(h, 0.0), np.ones(2))
    np.testing.assert_allclose(phase_box(h, math.pi), [1.0, -1.0], atol=1e-15)


def test_phase_box_repeated_application_accumulates_phase():
    h = Generator.qubit()
    plus, _ = plus_minus_states(h)
    state = plus
    n, phi = 7, 0.31
    for _ in range(n):
        state = phase_box(h, phi) * state
    expected = np.array([1.0, np.exp(1j * n * phi)]) / math.sqrt(2)
    assert fidelity_up_to_phase(state, expected) > 1 - 1e-12


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(min_value=-10, max_value=10),
    b=st.floats(min_value=-10, max_value=10),
)
def test_phase_box_group_law(a, b):
    h = Generator(np.array([-1.0, 0.3, 2.0]), 0, 2)
    prod = phase_box(h, a) * phase_box(h, b)
    assert np.max(np.abs(prod - phase_box(h, a + b))) < 1e-12


def test_phase_box_affine_shift_is_global_phase():
    # shifting every eigenvalue by a constant only multiplies by a phase
    phi = 0.83
    base = phase_box(Generator(np.array([0.0, 1.0]), 0, 1), phi)
    shifted = phase_box(Generator(np.array([2.5, 3.5]), 0, 1), phi)
    ratio = shifted[0] / base[0]
    assert np.max(np.abs(shifted - ratio * base)) < 1e-12


def test_ghz_small_cases():
    h = Generator.qubit()
    plus, _ = plus_minus_states(h)
    np.testing.assert_allclose(ghz_like(h, 1, 0.0), plus, atol=1e-15)
    np.testing.assert_allclose(
        ghz_like(h, 2, 0.0), vec(np.eye(2)) / math.sqrt(2), atol=1e-15
    )
    expected = np.zeros(8, dtype=complex)
    expected[0], expected[7] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    np.testing.assert_allclose(ghz_like(h, 3, math.pi), expected, atol=1e-12)


def test_ghz_like_uses_extreme_indices():
    h = Generator(np.array([0.5, -1.0, 2.0]), 1, 2)
    state = ghz_like(h, 2, 0.0)
    idx_min = np.ravel_multi_index((1, 1), (3, 3))
    idx_max = np.ravel_multi_index((2, 2), (3, 3))
    assert abs(state[idx_min] - 1 / math.sqrt(2)) < 1e-15
    assert abs(state[idx_max] - 1 / math.sqrt(2)) < 1e-15
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)


# (generator, probe counts): the qubit up to the 12-probe cap, a qutrit with a
# middle eigenvalue, a 3-level generator whose extreme levels are not (0, 1),
# and the one-probe bosonic generators of metroq.fock
SUPPORT_CASES = [
    (Generator.qubit(), range(1, 13)),
    (Generator(np.array([-0.3, 0.45, 1.2]), 0, 2), range(1, 7)),
    (Generator(np.array([0.5, -1.0, 2.0]), 1, 2), range(1, 7)),
    *[(Generator.number(n), [1]) for n in (1, 5, 12)],
    *[(Generator.number_difference(n), [1]) for n in (1, 5, 12)],
]


def test_ghz_phase_support_is_bitwise_the_phase_mask_evolution():
    # Oracle: the full-register evolution ghz_like * phase_mask.  The two
    # support amplitudes must agree bit for bit; off the support both are
    # zero, up to the sign of a zero.
    rng = np.random.default_rng(61)
    for h, ns in SUPPORT_CASES:
        for n in ns:
            support_index = [repeated_index(h.dim, n, h.min_index),
                             repeated_index(h.dim, n, h.max_index)]
            for phis in (rng.uniform(-7, 7, size=n), np.full(n, rng.uniform(-7, 7))):
                lam = rng.uniform(-7, 7)
                oracle = ghz_like(h, n, lam) * phase_mask(h, phis)
                support = ghz_phase_support(h, phis, lam)
                assert support.shape == (2,)
                assert support.tobytes() == oracle[support_index].tobytes(), (h.eigenvalues, n)
                assert np.array_equal(ghz_register(h, n, support), oracle)
            # a stack (..., N) of phase vectors: each row is its single call
            stack = rng.uniform(-7, 7, size=(3, 4, n))
            lam = rng.uniform(-7, 7)
            rows = ghz_phase_support(h, stack, lam)
            assert rows.shape == (3, 4, 2)
            for g in np.ndindex(3, 4):
                assert rows[g].tobytes() == ghz_phase_support(h, stack[g], lam).tobytes()


def test_ghz_phase_support_rejects_no_probes():
    for phis in ([], 0.3, np.zeros((4, 0))):
        with pytest.raises(ValueError):
            ghz_phase_support(Generator.qubit(), phis)
    with pytest.raises(ValueError):
        ghz_like(Generator.qubit(), 0)


def test_repeated_index_matches_ravel_multi_index():
    for d in (2, 3, 4):
        n = 1
        while d**n <= 4096:
            for j in range(d):
                assert repeated_index(d, n, j) == np.ravel_multi_index((j,) * n, (d,) * n)
            n += 1


def test_tensor_products_and_register_indices_have_one_helper():
    # kron ordering lives in linalg.kron, the |j...j> index in repeated_index,
    # and phase boxes act through states.phase_box (on a GHZ-type register,
    # states.ghz_phase_support), never per factor
    paths = sorted(Path(metroq.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for pattern in ("np.kron(", "ravel_multi_index", "apply_on_factor", "tensordot(",
                        "moveaxis("):
            assert pattern not in text, (path.name, pattern)


def test_classical_corr_spectral_structure():
    rho = classical_corr_state("computational")
    assert abs(np.trace(rho) - 1.0) < 1e-15
    assert abs(np.trace(rho @ rho) - 0.5) < 1e-15  # rank 2, purity 1/2
    # equal mixture of the vectorized identity and vectorized Z states
    v_id = vec(np.eye(2)) / math.sqrt(2)
    v_z = vec(PAULI_Z) / math.sqrt(2)
    expected = (np.outer(v_id, v_id.conj()) + np.outer(v_z, v_z.conj())) / 2
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_classical_corr_hadamard_structure():
    rho = classical_corr_state("hadamard")
    assert abs(np.trace(rho @ rho) - 0.5) < 1e-15
    v_id = vec(np.eye(2)) / math.sqrt(2)
    v_x = vec(PAULI_X) / math.sqrt(2)
    expected = (np.outer(v_id, v_id.conj()) + np.outer(v_x, v_x.conj())) / 2
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_classical_corr_reduced_states_are_mixed():
    for basis in ("computational", "hadamard"):
        rho = classical_corr_state(basis)
        for keep in ([0], [1]):
            np.testing.assert_allclose(
                partial_trace(rho, [2, 2], keep=keep), np.eye(2) / 2, atol=1e-12
            )


def test_classical_corr_rejects_unknown_basis():
    with pytest.raises(ValueError):
        classical_corr_state("magic")


def test_strategy_spec_validation():
    with pytest.raises(ValueError):
        StrategySpec(StrategyKind.SEQUENTIAL, 0)
    spec = StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 2, lam=0.4)
    assert spec.n_probes == 2 and spec.lam == 0.4
