import hashlib
import math

import numpy as np
import pytest

from metroq.information import (
    cfi_binary,
    collective_generator,
    crb,
    frequency_bound_dephasing,
    operating_phase,
    optimal_frequency_bound,
    phase_bound_dephasing,
    qfi_pure,
)
from metroq.simulate import scaling_experiment
from metroq.states import Generator, StrategyKind, StrategySpec, ghz_like


def product_plus_state(n):
    return np.full(2**n, 2 ** (-n / 2), dtype=complex)


def test_qfi_ghz_is_n_squared():
    h = Generator.qubit()
    for n in range(1, 13):
        for lam in (0.0, 0.9, -2.2):
            got = qfi_pure(ghz_like(h, n, lam), collective_generator(h, n))
            assert abs(got - n * n) < 1e-10


def test_qfi_product_state_is_n():
    h = Generator.qubit()
    for n in range(1, 13):
        assert abs(qfi_pure(product_plus_state(n), collective_generator(h, n)) - n) < 1e-10


def test_qfi_eigenstate_is_zero():
    h = Generator.qubit()
    for n in (1, 3, 6):
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
        assert abs(qfi_pure(psi, collective_generator(h, n))) < 1e-12


def test_cfi_hand_values():
    assert abs(cfi_binary(1, math.pi / 2) - 1.0) < 1e-12
    for phi in np.linspace(0.05, math.pi / 8 - 0.01, 10):
        assert abs(cfi_binary(8, phi) - 64.0) < 1e-9


def test_cfi_constant_over_branch():
    for n in (1, 2, 5, 8):
        values = [cfi_binary(n, phi) for phi in np.linspace(0.1, math.pi / n - 0.1, 25)]
        assert max(values) - min(values) < 1e-9


def test_cfi_finite_difference_cross_check():
    # independent route: finite differences of p(phi) = cos^2(n phi / 2)
    n, phi, step = 5, 0.21, 1e-6
    p = lambda x: math.cos(n * x / 2) ** 2
    dp = (p(phi + step) - p(phi - step)) / (2 * step)
    fd = dp * dp / (p(phi) * (1 - p(phi)))
    assert abs(fd - cfi_binary(n, phi)) / cfi_binary(n, phi) < 1e-4


def test_cfi_rejects_degenerate_points():
    with pytest.raises(ValueError):
        cfi_binary(2, 0.0)
    with pytest.raises(ValueError):
        cfi_binary(2, math.pi / 2)


def test_measurement_optimality_cfi_matches_qfi():
    h = Generator.qubit()
    for n in (1, 2, 4, 8):
        cfi = cfi_binary(n, operating_phase(n))
        qfi = qfi_pure(ghz_like(h, n), collective_generator(h, n))
        assert abs(cfi - qfi) < 1e-9


def test_crb_values():
    ent = crb(StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 4), 100)
    assert abs(ent - 0.025) < 1e-12
    cls = crb(StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 4), 100)
    assert abs(cls - 0.05) < 1e-12
    seq = crb(StrategySpec(StrategyKind.SEQUENTIAL, 4), 100)
    assert abs(seq - ent) < 1e-12


# sha256 over the float.hex of crb, one value a line: each strategy at
# N = 1..12 and nu in {1, 7, 4000, 1e5}, the entangled one at lam = 0, 0.7 and
# -2.1.  Every scaling CSV carries the crb column, and no CSV digest reaches
# N = 3, 5-7 or 9-12; the entangled value is the QFI of the GHZ support, bit
# for bit that of the whole register.
CRB_HEX_DIGEST = "b9f65fe42a72840d6d89b4a9b2d26de6a293d1d3862626b26af41b304b9d5a43"


def test_crb_is_pinned_bit_for_bit():
    lines = []
    for kind in StrategyKind:
        lams = (0.0, 0.7, -2.1) if kind is StrategyKind.ENTANGLED_PARALLEL else (0.0,)
        for lam in lams:
            for n in range(1, 13):
                for nu in (1, 7, 4000, 100_000):
                    lines.append(crb(StrategySpec(kind, n, lam), nu).hex())
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    assert digest == CRB_HEX_DIGEST


def test_crb_strategies_coincide_at_single_probe():
    bounds = {
        kind: crb(StrategySpec(kind, 1), 50)
        for kind in (StrategyKind.SEQUENTIAL, StrategyKind.CLASSICAL_PARALLEL,
                     StrategyKind.ENTANGLED_PARALLEL)
    }
    vals = list(bounds.values())
    assert max(vals) - min(vals) < 1e-12


def test_frequency_bound_values():
    assert abs(frequency_bound_dephasing(1, 1.0, 1.0, 1) - math.e) < 1e-12
    assert abs(frequency_bound_dephasing(2, 1.0, 0.5, 1) - math.e) < 1e-12
    # noiseless limit recovers 1/(n t sqrt(nu))
    n, t, nu = 4, 0.7, 9
    assert frequency_bound_dephasing(n, 1e-9, t, nu) == pytest.approx(
        1.0 / (n * t * math.sqrt(nu)), rel=1e-7
    )


def test_optimal_frequency_bound_closed_form():
    t_star, bound = optimal_frequency_bound(1, 1.0, 1)
    assert abs(t_star - 1.0) < 1e-6
    assert abs(bound - math.e) < 1e-6 * math.e
    t_star, bound = optimal_frequency_bound(8, 1.0, 1)
    assert abs(t_star - 0.125) < 1e-6
    assert abs(bound - math.e) < 1e-6 * math.e


def test_optimal_bound_is_n_independent():
    gamma, nu = 0.37, 16
    bounds = [optimal_frequency_bound(n, gamma, nu)[1] for n in (1, 2, 4, 8, 16)]
    spread = (max(bounds) - min(bounds)) / min(bounds)
    assert spread < 1e-6
    assert abs(bounds[0] - math.e * gamma / math.sqrt(nu)) < 1e-6 * bounds[0]


def test_phase_bound_keeps_entangled_advantage_at_short_times():
    gamma, nu = 1.0, 10
    for n in (2, 4, 8, 16):
        t = 1e-8
        ratio = phase_bound_dephasing(n, gamma, t, nu, entangled=False) / \
            phase_bound_dephasing(n, gamma, t, nu, entangled=True)
        assert abs(ratio - math.sqrt(n)) < 1e-6 * math.sqrt(n)
        # the advantage factor sqrt(n) e^{-(n-1) gamma t} decays at longer times
        t_opt = 1.0 / (n * gamma)
        degraded = phase_bound_dephasing(n, gamma, t_opt, nu, entangled=False) / \
            phase_bound_dephasing(n, gamma, t_opt, nu, entangled=True)
        assert degraded < ratio


def test_monte_carlo_rmse_tracks_crb():
    # Empirical RMSE approaches the bound within 10 percent at nu = 4000; the
    # lower edge allows the 3-sigma sampling fluctuation of an RMSE estimated
    # from a finite number of rounds.
    rounds = 400
    low = 1.0 - 3.0 / math.sqrt(2 * rounds)
    for kind in (StrategyKind.ENTANGLED_PARALLEL, StrategyKind.CLASSICAL_PARALLEL):
        report = scaling_experiment(kind, (1, 2, 4, 8), nu=4000, rounds=rounds, seed=42)
        ratios = [row.empirical_rmse / row.crb for row in report.rows]
        assert all(low < r < 1.10 for r in ratios), ratios
        assert 0.95 < float(np.mean(ratios)) < 1.07


def test_validation_errors():
    with pytest.raises(ValueError):
        operating_phase(0)
    with pytest.raises(ValueError):
        frequency_bound_dephasing(1, -1.0, 1.0, 1)
    with pytest.raises(ValueError):
        optimal_frequency_bound(0, 1.0, 1)
    with pytest.raises(ValueError):
        qfi_pure(np.array([1.0, 1.0]), Generator.qubit())  # not normalized
