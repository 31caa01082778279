import math

import numpy as np
import pytest

from metroq.fock import (
    FockVector,
    evolve_single_mode,
    evolve_two_mode,
    fringe,
    n0_equivalence_certificate,
    n0_state,
    noon_equivalence_certificate,
    noon_fringe_zeros,
    noon_state,
)
from metroq.simulate import coincidence_probability, evolve_parallel_entangled, evolve_sequential
from metroq.states import Generator, ghz_state, plus_minus_states

H = Generator.qubit()


def test_n0_state_and_evolution():
    state = evolve_single_mode(n0_state(3), 0.5)
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 1 / math.sqrt(2), np.exp(1.5j) / math.sqrt(2)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_zero_phase_is_identity():
    state = n0_state(4)
    np.testing.assert_array_equal(evolve_single_mode(state, 0.0).amplitudes, state.amplitudes)
    noon = noon_state(4)
    np.testing.assert_array_equal(evolve_two_mode(noon, 0.0).amplitudes, noon.amplitudes)


def test_single_mode_evolution_is_unitary():
    rng = np.random.default_rng(31)
    amp = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    amp /= np.linalg.norm(amp)
    state = FockVector(1, 5, amp)
    out = evolve_single_mode(state, 1.234)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_n0_phase_matches_entangled_register():
    # same interference fringe as the 3-probe entangled strategy at phi = 0.5
    n, phi = 3, 0.5
    fock_p = fringe(n0_state(n), phi)
    qubit_p = coincidence_probability(
        evolve_parallel_entangled(H, phi, n, 0.0), ghz_state(n)
    )
    assert abs(fock_p - qubit_p) < 1e-12


def test_noon_relative_phase():
    state = evolve_two_mode(noon_state(2), 0.3)
    # branches pick up e^{+-i 2 * 0.3}; relative phase 1.2
    ratio = state.amplitudes[2] / state.amplitudes[0]
    assert abs(np.angle(ratio) - 1.2) < 1e-12


def test_noon_fringe_period():
    n = 4
    state = noon_state(n)
    phis = np.linspace(0.0, math.pi, 200)
    values = [fringe(state, p) for p in phis]
    np.testing.assert_allclose(values, np.cos(n * phis) ** 2, atol=1e-12)


def test_fringe_zeros_at_odd_multiples():
    for n in (1, 2, 5, 12):
        zeros = noon_fringe_zeros(n, 3)
        expected = [math.pi * (2 * k + 1) / (2 * n) for k in range(3)]
        for z, e in zip(zeros, expected):
            assert abs(z - e) < 1e-9


def test_n0_certificates():
    for n in (1, 4, 12):
        assert n0_equivalence_certificate(n) < 1e-12


def test_noon_certificates():
    for n in (1, 4, 12):
        assert noon_equivalence_certificate(n) < 1e-12


def test_noon_equivalent_to_multipass():
    # NOON fringe with n photons = sequential fringe with n box uses at 2 phi
    n = 5
    plus, _ = plus_minus_states(H)
    for phi in np.linspace(0.0, math.pi / (2 * n), 20):
        p_noon = fringe(noon_state(n), phi)
        seq = evolve_sequential(H, 2 * phi, n, plus)
        assert abs(p_noon - coincidence_probability(seq, plus)) < 1e-12


def test_fock_vector_validation():
    with pytest.raises(ValueError):
        FockVector(3, 2, np.zeros(3))
    with pytest.raises(ValueError):
        FockVector(1, 2, np.array([1.0, 0.0]))  # wrong length
    with pytest.raises(ValueError):
        FockVector(1, 2, np.array([1.0, 1.0, 0.0]))  # not normalized
    with pytest.raises(ValueError):
        evolve_single_mode(noon_state(2), 0.1)
    with pytest.raises(ValueError):
        evolve_two_mode(n0_state(2), 0.1)
    with pytest.raises(ValueError):
        noon_equivalence_certificate(13)
