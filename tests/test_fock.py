import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from metroq import fock
from metroq.cli import main
from metroq.fock import (
    fringe,
    n0_equivalence_certificate,
    noon_equivalence_certificate,
    noon_fringe_zeros,
)
from metroq.linalg import fidelity_up_to_phase
from metroq.states import (
    QUBIT,
    Generator,
    ghz_like,
    ghz_phase_support,
    phase_box,
    plus_minus_states,
)

from helpers import (
    evolve_sequential,
    ghz_register,
    ghz_state,
    max_fringe_deviation_on_register,
    qubit_fringe_grid,
    register_grade,
)

H = QUBIT


def test_generators_of_the_bosonic_probes():
    number = Generator.number(3)
    np.testing.assert_array_equal(number.eigenvalues, [0.0, 1.0, 2.0, 3.0])
    assert (number.min_index, number.max_index, np.ptp(number.eigenvalues)) == (0, 3, 3.0)
    difference = Generator.number_difference(3)
    np.testing.assert_array_equal(difference.eigenvalues, [-3.0, -1.0, 1.0, 3.0])
    assert (difference.min_index, difference.max_index,
            np.ptp(difference.eigenvalues)) == (0, 3, 6.0)
    # N0 and NOON are the one-probe GHZ-type states: vacuum and n photons
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    np.testing.assert_array_equal(plus_minus_states(number)[0], expected)
    np.testing.assert_array_equal(plus_minus_states(difference)[0], expected)


def test_plus_state_is_bitwise_the_one_probe_ghz_register():
    for make_generator in (Generator.number, Generator.number_difference):
        for n in range(1, 13):
            h = make_generator(n)
            for lam in (0.0, 0.7, -2.1):
                assert plus_minus_states(h, lam)[0].tobytes() == ghz_state(h, 1, lam).tobytes()


def test_n0_state_and_evolution():
    state = ghz_like(Generator.number(3), 1) * phase_box(Generator.number(3), 0.5)
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 1 / math.sqrt(2), np.exp(1.5j) / math.sqrt(2)
    np.testing.assert_allclose(state, expected, atol=1e-15)


def test_zero_phase_is_identity():
    for h in (Generator.number(4), Generator.number_difference(4)):
        probe = ghz_like(h, 1)
        np.testing.assert_array_equal(probe * phase_box(h, 0.0), probe)
        assert abs(fringe(h, probe, 0.0) - 1.0) < 1e-15


def test_single_mode_evolution_is_unitary():
    rng = np.random.default_rng(31)
    amp = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    amp /= np.linalg.norm(amp)
    out = amp * phase_box(Generator.number(5), 1.234)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_n0_phase_matches_entangled_register():
    # same interference fringe as the 3-probe entangled strategy at phi = 0.5
    n, phi = 3, 0.5
    h = Generator.number(n)
    fock_p = fringe(h, ghz_like(h, 1), phi)
    qubit = ghz_register(H, n, ghz_phase_support(H, [phi] * n, 0.0))
    qubit_p = fidelity_up_to_phase(ghz_like(H, n), qubit)
    assert abs(fock_p - qubit_p) < 1e-12


def test_noon_relative_phase():
    h = Generator.number_difference(2)
    state = ghz_like(h, 1) * phase_box(h, 0.3)
    # branches pick up e^{+-i 2 * 0.3}; relative phase 1.2
    ratio = state[2] / state[0]
    assert abs(np.angle(ratio) - 1.2) < 1e-12


def test_noon_fringe_period():
    # both generators, against the closed forms cos^2(n phi / 2) and cos^2(n phi)
    phis = np.linspace(0.0, math.pi, 200)
    for make_generator, rate in ((Generator.number, 0.5), (Generator.number_difference, 1.0)):
        for n in (1, 4, 12):
            h = make_generator(n)
            probe = ghz_like(h, 1)
            values = [fringe(h, probe, p) for p in phis]
            np.testing.assert_allclose(values, np.cos(rate * n * phis) ** 2, atol=1e-12)


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


@pytest.mark.parametrize("qubit_scale", [2, 1], ids=["noon", "n0"])
def test_support_grade_is_the_register_grade_to_roundoff(qubit_scale):
    # the grade on the two-entry support sums the overlap over the register's
    # two nonzero entries alone, in another order than the 2^n register does
    for n in range(1, 13):
        initial = ghz_phase_support(H, [0.0] * n)
        for support in ghz_phase_support(H, qubit_fringe_grid(n, qubit_scale)):
            on_support = fidelity_up_to_phase(initial, support)
            assert abs(on_support - register_grade(n, support)) <= 2.3e-16


@pytest.mark.parametrize("certificate, make_generator, qubit_scale", [
    (noon_equivalence_certificate, Generator.number_difference, 2),
    (n0_equivalence_certificate, Generator.number, 1),
], ids=["noon", "n0"])
def test_certificate_is_the_register_certificate_to_roundoff(certificate, make_generator,
                                                             qubit_scale):
    for n in range(1, 13):
        reference = max_fringe_deviation_on_register(make_generator, n, qubit_scale)
        assert abs(certificate(n) - reference) <= 2.3e-16


# sha256 over the float.hex of noon_fringe_zeros(n, 3) and the NOON and N0
# certificates, one line per n = 1..12.  No golden transcript holds a zero past
# the first, nor most of these n.
FOCK_HEX_DIGEST = "1324516e63d7ddf96544e519f3317c65500f44d2737af9d25913157a8a67a415"


def test_zeros_and_certificates_are_pinned_bit_for_bit():
    lines = []
    for n in range(1, 13):
        values = noon_fringe_zeros(n, 3) + [noon_equivalence_certificate(n),
                                            n0_equivalence_certificate(n)]
        lines.append(",".join(v.hex() for v in values))
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == FOCK_HEX_DIGEST


@pytest.mark.parametrize("n", [2, 4, 12])
def test_certificates_detect_a_generator_one_photon_short(monkeypatch, n):
    # Power check: with spread n - 1 in place of n the bosonic fringe runs
    # slower than the qubit one, and each certificate must see it.
    real_number = Generator.number
    real_difference = Generator.number_difference
    monkeypatch.setattr(Generator, "number", staticmethod(lambda m: real_number(m - 1)))
    monkeypatch.setattr(
        Generator, "number_difference", staticmethod(lambda m: real_difference(m - 1))
    )
    assert np.ptp(Generator.number(n).eigenvalues) == n - 1
    assert n0_equivalence_certificate(n) > 1e-3
    assert noon_equivalence_certificate(n) > 1e-3


def test_noon_fails_when_the_qubit_grid_is_off_by_one(capsys, monkeypatch):
    # Mutant: each Fock fringe point is paired with the qubit register of the
    # next grid point (the last with the first), as an off-by-one between the
    # stacked qubit grid and the per-point fringe loop would do.
    real = fock.ghz_phase_support

    def next_grid_point(h, phis, lam=0.0):
        return np.roll(real(h, phis, lam), -1, axis=0)

    monkeypatch.setattr(fock, "ghz_phase_support", next_grid_point)
    code = main(["noon", "--n", "12"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    comparisons = report["results"][:2]  # the fringe zero is graded on no qubit grid
    assert [rec["name"] for rec in comparisons] == ["noon-fringe-equivalence",
                                                    "n0-fringe-equivalence"]
    assert [rec["pass"] for rec in comparisons] == [False, False]
    assert all(rec["max_deviation"] > 1e-3 for rec in comparisons)


@pytest.mark.parametrize("certificate", [noon_equivalence_certificate,
                                         n0_equivalence_certificate])
def test_certificate_allocates_no_register_stack(certificate):
    # The qubit side is evolved and graded as one (100, 2) support stack; a
    # (100, 4096) register stack would peak at about 6.5 MB.
    certificate(12)
    tracemalloc.start()
    try:
        certificate(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


def test_noon_equivalent_to_multipass():
    # NOON fringe with n photons = sequential fringe with n box uses at 2 phi
    n = 5
    h = Generator.number_difference(n)
    probe = ghz_like(h, 1)
    plus, _ = plus_minus_states(H)
    for phi in np.linspace(0.0, math.pi / (2 * n), 20):
        p_noon = fringe(h, probe, phi)
        seq = evolve_sequential(H, 2 * phi, n, plus)
        assert abs(p_noon - fidelity_up_to_phase(plus, seq)) < 1e-12


def test_certificate_and_generator_validation():
    for bad in (0, 13):
        with pytest.raises(ValueError):
            noon_equivalence_certificate(bad)
        with pytest.raises(ValueError):
            n0_equivalence_certificate(bad)
    with pytest.raises(ValueError):
        noon_fringe_zeros(0, 3)
    # zero photons: vacuum only, no spread to estimate a phase with
    for make_generator in (Generator.number, Generator.number_difference):
        with pytest.raises(ValueError):
            make_generator(0)

