import math
import random

import numpy as np
import pytest

from metroq.information import operating_phase
from metroq.linalg import fidelity_up_to_phase
from metroq.simulate import (
    derive_round_seed,
    estimate_phase,
    evolve_parallel_entangled,
    evolve_sequential,
    fit_loglog_slope,
    run_trials,
    scaling_experiment,
    strategy_success_probability,
)
from metroq.states import (
    MAX_PROBES,
    Generator,
    StrategyKind,
    StrategySpec,
    ghz_like,
    plus_minus_states,
)

from helpers import binomial_from_int_seed, derive_round_seed_spawn_key, ghz_register, u_phi

H = Generator.qubit()
PLUS, MINUS = plus_minus_states(H)


def test_sequential_single_box_is_ramsey():
    final = evolve_sequential(H, 0.9, 1, PLUS)
    expected = np.array([1.0, np.exp(0.9j)]) / math.sqrt(2)
    assert fidelity_up_to_phase(final, expected) > 1 - 1e-12


def test_sequential_zero_phase_is_identity():
    final = evolve_sequential(H, 0.0, 5, PLUS)
    np.testing.assert_allclose(final, PLUS, atol=1e-15)


def test_sequential_three_boxes_accumulate():
    final = evolve_sequential(H, 0.4, 3, PLUS)
    single = u_phi(H, 1.2) @ PLUS
    assert np.max(np.abs(final - single)) < 1e-12


def test_parallel_entangled_examples():
    final = ghz_register(H, 2, evolve_parallel_entangled(H, 0.7, 2, 0.0))
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 1 / math.sqrt(2), np.exp(1.4j) / math.sqrt(2)
    assert fidelity_up_to_phase(final, expected) > 1 - 1e-12

    # single probe coincides with the sequential strategy
    par = ghz_register(H, 1, evolve_parallel_entangled(H, 0.5, 1, 0.0))
    seq = evolve_sequential(H, 0.5, 1, PLUS)
    assert np.max(np.abs(par - seq)) < 1e-12

    np.testing.assert_allclose(
        ghz_register(H, 4, evolve_parallel_entangled(H, 0.0, 4, 0.3)), ghz_like(H, 4, 0.3),
        atol=1e-15,
    )


def test_parallel_entangled_matches_analytic_form():
    rng = np.random.default_rng(9)
    for n in range(1, 13):
        phi, lam = rng.uniform(0, 2 * math.pi, size=2)
        final = ghz_register(H, n, evolve_parallel_entangled(H, phi, n, lam))
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[-1] = np.exp(1j * (n * phi + lam)) / math.sqrt(2)
        assert fidelity_up_to_phase(final, expected) > 1 - 1e-12


def test_sequential_and_parallel_fringes_agree():
    for n in range(1, 11):
        worst = 0.0
        for phi in np.linspace(0.0, math.pi / n, 100):
            p_seq = fidelity_up_to_phase(PLUS, evolve_sequential(H, phi, n, PLUS))
            par = ghz_register(H, n, evolve_parallel_entangled(H, phi, n, 0.0))
            p_par = fidelity_up_to_phase(ghz_like(H, n), par)
            worst = max(worst, abs(p_seq - p_par))
        assert worst < 1e-12


def test_coincidence_values():
    # the coincidence probability |<initial|final>|^2 of a sequential fringe
    assert fidelity_up_to_phase(PLUS, PLUS) > 1 - 1e-12
    final = evolve_sequential(H, math.pi, 1, PLUS)
    assert fidelity_up_to_phase(PLUS, final) < 1e-15
    final = evolve_sequential(H, math.pi / 6, 3, PLUS)
    assert abs(fidelity_up_to_phase(PLUS, final) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        fidelity_up_to_phase(ghz_like(H, 2), PLUS)


def test_run_trials_degenerate_probabilities():
    spec = StrategySpec(StrategyKind.SEQUENTIAL, 2)
    p_one = strategy_success_probability(spec, 0.0)
    p_zero = strategy_success_probability(spec, math.pi / 2)  # N phi = pi
    assert run_trials(spec, p_one, 500, seed=1) == 500
    assert run_trials(spec, p_zero, 500, seed=1) == 0


def test_run_trials_deterministic():
    spec = StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 4)
    p = strategy_success_probability(spec, 0.2)
    a = run_trials(spec, p, 1000, seed=77)
    b = run_trials(spec, p, 1000, seed=77)
    assert a == b


def test_classical_strategy_uses_n_nu_probes():
    spec = StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 4)
    k = run_trials(spec, strategy_success_probability(spec, 0.0), 250, seed=3)
    assert k == 4 * 250  # every one of the N*nu probes coincides at phi = 0


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
def test_run_trials_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        run_trials(StrategySpec(StrategyKind.SEQUENTIAL, 2), p, 10, seed=0)


def test_strategy_probability_forms():
    phi = 0.37
    assert strategy_success_probability(
        StrategySpec(StrategyKind.SEQUENTIAL, 5), phi
    ) == pytest.approx(math.cos(5 * phi / 2) ** 2, abs=1e-12)
    assert strategy_success_probability(
        StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 5), phi
    ) == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-12)


# float.hex of strategy_success_probability at operating_phase(N), N = 1..12.
# At the operating phase p is 1/2 up to roundoff, and numpy's binomial samples
# 1 - p once p > 1/2, so a last-bit drift of p mirrors every count of a row;
# no CSV digest reaches most of these N.
OPERATING_P_HEX = {
    StrategyKind.SEQUENTIAL: [
        "0x1.ffffffffffffcp-2", "0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-2",
        "0x1.ffffffffffffcp-2", "0x1.ffffffffffffcp-2", "0x1.0000000000001p-1",
        "0x1.ffffffffffffep-2", "0x1.ffffffffffffep-2", "0x1.ffffffffffffcp-2",
        "0x1.0000000000001p-1", "0x1.ffffffffffff6p-2", "0x1.ffffffffffff9p-2",
    ],
    StrategyKind.CLASSICAL_PARALLEL: [
        "0x1.ffffffffffffcp-2", "0x1.b504f333f9de4p-1", "0x1.ddb3d742c2652p-1",
        "0x1.ec835e799469fp-1", "0x1.f378709a22a7dp-1", "0x1.f746ea3a45f88p-1",
        "0x1.f994e02ac74b1p-1", "0x1.fb14be7fbae55p-1", "0x1.fc1c5c6408e08p-1",
        "0x1.fcd924a17f22cp-1", "0x1.fd64f021c2175p-1", "0x1.fdcf54976344bp-1",
    ],
    StrategyKind.ENTANGLED_PARALLEL: [
        "0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-2", "0x1.ffffffffffffep-2",
        "0x1.ffffffffffff9p-2", "0x1.ffffffffffffcp-2", "0x1.0000000000001p-1",
        "0x1.ffffffffffffcp-2", "0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-2",
        "0x1.0000000000001p-1", "0x1.ffffffffffff6p-2", "0x1.ffffffffffffcp-2",
    ],
}


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_operating_point_probabilities_are_pinned_bit_for_bit(kind):
    got = [strategy_success_probability(StrategySpec(kind, n), operating_phase(n)).hex()
           for n in range(1, MAX_PROBES + 1)]
    assert got == OPERATING_P_HEX[kind]


def test_estimate_phase_inversion():
    assert abs(estimate_phase(500, 1000, 2) - math.pi / 4) < 1e-12
    assert estimate_phase(1000, 1000, 3) == 0.0
    assert estimate_phase(0, 1000, 4) == pytest.approx(math.pi / 4)
    ks = range(0, 1001, 100)
    phis = [estimate_phase(k, 1000, 2) for k in ks]
    assert all(a > b for a, b in zip(phis, phis[1:]))
    with pytest.raises(ValueError):
        estimate_phase(-1, 10, 1)
    with pytest.raises(ValueError):
        estimate_phase(11, 10, 1)


def test_rmse_shrinks_with_nu():
    spec = StrategySpec(StrategyKind.SEQUENTIAL, 4)
    phi = math.pi / 8
    p = strategy_success_probability(spec, phi)
    rmses = []
    for nu in (100, 1000, 10000):
        errs = [
            estimate_phase(run_trials(spec, p, nu, seed=1000 + r), nu, 4) - phi
            for r in range(60)
        ]
        rmses.append(math.sqrt(float(np.mean(np.square(errs)))))
    assert rmses[0] > rmses[1] > rmses[2]


def test_scaling_experiment_deterministic():
    args = (StrategyKind.ENTANGLED_PARALLEL, (1, 2, 4, 8), 500, 40, 11)
    assert scaling_experiment(*args) == scaling_experiment(*args)


def test_scaling_experiment_slopes():
    common = dict(n_values=(1, 2, 4, 8), nu=2000, rounds=120, seed=5)
    ent = scaling_experiment(StrategyKind.ENTANGLED_PARALLEL, **common)
    cls = scaling_experiment(StrategyKind.CLASSICAL_PARALLEL, **common)
    assert -1.15 < ent.fitted_slope < -0.85
    assert -0.65 < cls.fitted_slope < -0.35
    assert all(r1.n <= r2.n for r1, r2 in zip(ent.rows, ent.rows[1:]))


def test_scaling_rows_come_in_increasing_n():
    shuffled = scaling_experiment(StrategyKind.SEQUENTIAL, (4, 1, 3, 2), 100, 5, 9)
    ordered = scaling_experiment(StrategyKind.SEQUENTIAL, (1, 2, 3, 4), 100, 5, 9)
    assert [row.n for row in shuffled.rows] == [1, 2, 3, 4]
    assert shuffled == ordered


def test_success_probability_computed_once_per_row(monkeypatch):
    # Every round of a row draws from the same p, so it is computed once per N.
    calls = []

    def counting(strategy, phi):
        calls.append((strategy.n_probes, phi))
        return strategy_success_probability(strategy, phi)

    monkeypatch.setattr("metroq.simulate.strategy_success_probability", counting)
    scaling_experiment(StrategyKind.ENTANGLED_PARALLEL, (1, 2, 4), nu=100, rounds=7, seed=3)
    assert [n for n, _ in calls] == [1, 2, 4]


def test_scaling_requires_three_sizes():
    with pytest.raises(ValueError):
        scaling_experiment(StrategyKind.SEQUENTIAL, (1, 2), nu=100, rounds=5, seed=0)


def test_slope_fit_needs_three_distinct_sizes():
    with pytest.raises(ValueError, match="distinct"):
        fit_loglog_slope([2, 2, 2], [0.5, 0.25, 0.25])
    with pytest.raises(ValueError, match="distinct"):
        fit_loglog_slope([1, 2, 2, 1], [0.5, 0.25, 0.25, 0.5])


@pytest.mark.parametrize("n_values, nu, rounds", [
    ((1, 2, 2, 4), 100, 5),  # a repeated N, as the CLI rejects it
    ((0, 1, 2), 100, 5),
    ((1, 2, 4), 0, 5),
    ((1, 2, 4), 100, 0),
])
def test_scaling_experiment_rejects_bad_sizes_and_counts(n_values, nu, rounds):
    with pytest.raises(ValueError):
        scaling_experiment(StrategyKind.SEQUENTIAL, n_values, nu, rounds, seed=0)


def test_seed_must_be_unsigned_64_bit():
    spec = StrategySpec(StrategyKind.SEQUENTIAL, 2)
    with pytest.raises(ValueError):
        run_trials(spec, strategy_success_probability(spec, 0.1), 10, seed=-1)
    with pytest.raises(ValueError):
        scaling_experiment(StrategyKind.SEQUENTIAL, (1, 2, 4), nu=10, rounds=2, seed=2**64)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            derive_round_seed(seed, StrategyKind.SEQUENTIAL, 2, 0)
    # the round word is hashed as one uint32 word, and so is N
    for n, round_index in ((2, -1), (2, 2**32), (-1, 0), (2**32, 0)):
        with pytest.raises(ValueError):
            derive_round_seed(1, StrategyKind.SEQUENTIAL, n, round_index)


# Seeds where a word of the 64-bit seed is 0 or all ones, and where the high
# word starts, then a few hundred random 64-bit seeds.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
ORACLE_SEEDS = EDGE_SEEDS + [
    int(s) for s in np.random.default_rng(14).integers(0, 2**64, size=300, dtype=np.uint64)
]
# Round words at both ends of the uint32 range and two in between.
ORACLE_ROUNDS = (0, 1, 999, 2**32 - 1)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_round_seed_and_draw_match_the_spawn_key_form(kind):
    # derive_round_seed hashes the round word into a pool numpy builds once
    # per (seed, strategy, N) row, and run_trials hands Philox the words
    # Philox(int) hashes: child seeds and counts must equal numpy's own
    # int-and-tuple forms.  Rounds of every N, and at the edge seeds of every
    # strategy, come in shuffled order, so a pool cached for another row shows.
    spec = StrategySpec(kind, 3)
    p, nu = 0.3, 100_000
    trials = 3 * nu if kind is StrategyKind.CLASSICAL_PARALLEL else nu
    for seed in ORACLE_SEEDS:
        assert run_trials(spec, p, nu, seed) == binomial_from_int_seed(trials, p, seed), seed
    rounds = [(seed, k, n, r)
              for seed in ORACLE_SEEDS
              for k in (StrategyKind if seed in EDGE_SEEDS else (kind,))
              for n in range(1, MAX_PROBES + 1)
              for r in ORACLE_ROUNDS]
    random.Random(18).shuffle(rounds)
    for seed, k, n, r in rounds:
        child = derive_round_seed(seed, k, n, r)
        assert child == derive_round_seed_spawn_key(seed, k, n, r), (seed, k, n, r)
        if k is kind and n in (1, 3, 12):  # spec's own N and the ends of the range
            assert run_trials(spec, p, nu, child) == binomial_from_int_seed(trials, p, child)


@pytest.mark.parametrize(
    "kind, phi", [(StrategyKind.ENTANGLED_PARALLEL, 0.3), (StrategyKind.CLASSICAL_PARALLEL, 1.2)]
)
def test_run_trials_count_is_binomial(kind, phi):
    # Sample mean and variance of the round counts against Binomial(trials, p),
    # each within 4 standard errors of its sampling distribution.
    n, nu, seeds = 3, 20, 400
    spec = StrategySpec(kind, n)
    p = strategy_success_probability(spec, phi)
    trials = n * nu if kind is StrategyKind.CLASSICAL_PARALLEL else nu
    counts = np.array([run_trials(spec, p, nu, seed=s) for s in range(seeds)], dtype=float)
    var = trials * p * (1 - p)
    mu4 = var * (1 + 3 * (trials - 2) * p * (1 - p))  # fourth central moment
    mean_se = math.sqrt(var / seeds)
    var_se = math.sqrt((mu4 - var**2 * (seeds - 3) / (seeds - 1)) / seeds)
    assert abs(counts.mean() - trials * p) < 4 * mean_se
    assert abs(counts.var(ddof=1) - var) < 4 * var_se
