import functools
import itertools
import math

import numpy as np
import pytest

from metroq.channels import (
    KrausChannel,
    amplitude_damping,
    bit_phase_flip,
    dephasing,
    each_diag_or_antidiag,
    is_diag_or_antidiag,
    is_unital,
)
from metroq.linalg import is_antidiagonal, is_diagonal, kron
from metroq.states import QUBIT

from helpers import ghz_state, random_density_matrix

PLUS_DM = np.full((2, 2), 0.5, dtype=complex)


def kraus_sum(rho, ops):
    return sum(k @ rho @ k.conj().T for k in ops)


def test_constructors_are_trace_preserving():
    # by formula, at the ends of [0, 1] and between them, at 1e-12: tighter
    # than the ATOL_PREDICATE that is_trace_preserving grades
    for ctor in (dephasing, bit_phase_flip, amplitude_damping):
        for p in np.linspace(0.0, 1.0, 21):
            assert ctor(p).completeness_residual() < 1e-12, (ctor, p)


def test_dephasing_zero_is_identity_channel():
    ch = dephasing(0.0)
    rho = random_density_matrix(np.random.default_rng(0), 2)
    np.testing.assert_allclose(kraus_sum(rho, ch.ops), rho, atol=1e-15)


def test_parameter_range_rejected():
    for ctor in (dephasing, bit_phase_flip, amplitude_damping):
        with pytest.raises(ValueError):
            ctor(-0.1)
        with pytest.raises(ValueError):
            ctor(1.1)


def test_amplitude_damping_nonunital_witness():
    ch = amplitude_damping(0.3)
    acc = sum(k @ k.conj().T for k in ch.ops)
    np.testing.assert_allclose(acc, np.diag([1.3, 0.7]), atol=1e-12)
    assert not is_unital(ch)


def test_unitality_flags():
    assert is_unital(dephasing(0.7))
    assert is_unital(bit_phase_flip(0.2))
    assert not is_unital(amplitude_damping(0.5))


def test_structure_flags():
    assert is_diag_or_antidiag(dephasing(0.3))
    assert all(is_diagonal(k) for k in dephasing(0.3).ops)
    assert is_diag_or_antidiag(bit_phase_flip(0.3))
    assert all(is_antidiagonal(k) for k in bit_phase_flip(0.3).ops)
    # amplitude damping mixes a diagonal and an anti-diagonal operator
    assert not is_diag_or_antidiag(amplitude_damping(0.3))
    assert each_diag_or_antidiag(amplitude_damping(0.3))


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


@pytest.mark.parametrize("ch", [
    dephasing(0.3), bit_phase_flip(0.3), amplitude_damping(0.2), amplitude_damping(0.9),
    KrausChannel(tuple(HADAMARD @ k @ HADAMARD for k in amplitude_damping(0.2).ops)),
], ids=["dephasing", "bitphaseflip", "amplitudedamping-0.2", "amplitudedamping-0.9",
        "hadamard-amplitudedamping"])
def test_each_diag_or_antidiag_is_exactly_a_two_entry_ghz_register(ch):
    # every string of Kraus operators applied to the dense GHZ register: the
    # per-operator predicate holds exactly when none leaves more than the two
    # entries the conversion beyond two probes runs on
    widest = 0
    for n in range(2, 5):
        ghz = ghz_state(QUBIT, n, 0.7)
        for ops in itertools.product(ch.ops, repeat=n):
            widest = max(widest, np.count_nonzero(functools.reduce(kron, ops) @ ghz))
    assert each_diag_or_antidiag(ch) == (widest <= 2), widest


def test_full_dephasing_kills_coherence():
    out = kraus_sum(PLUS_DM, dephasing(0.5).ops)
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)


def test_dephasing_pointer_state_fixed():
    zero = np.diag([1.0, 0.0]).astype(complex)
    for p in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(kraus_sum(zero, dephasing(p).ops), zero, atol=1e-15)


def test_apply_channel_on_subsystem():
    rng = np.random.default_rng(1)
    rho = random_density_matrix(rng, 4)
    out = kraus_sum(rho, [kron(np.eye(2), k) for k in dephasing(0.2).ops])
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) > -1e-10


def test_apply_channel_trace_and_psd_preserved():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rho = random_density_matrix(rng, 2)
        for ch in (dephasing(rng.uniform()), bit_phase_flip(rng.uniform()),
                   amplitude_damping(rng.uniform())):
            out = kraus_sum(rho, ch.ops)
            assert abs(np.trace(out) - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh((out + out.conj().T) / 2)) > -1e-10


def test_kraus_channel_shape_validation():
    with pytest.raises(ValueError):
        KrausChannel(())
    with pytest.raises(ValueError):
        KrausChannel((np.eye(2), np.eye(3)))
