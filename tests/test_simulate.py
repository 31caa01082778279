import itertools
import math
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from metroq.information import crb, operating_phase
from metroq.linalg import fidelity_up_to_phase
from metroq.simulate import (
    ScalingRow,
    derive_round_seed,
    estimate_phase,
    fit_loglog_slope,
    philox_keys,
    run_trials,
    scaling_experiment,
    strategy_success_probability,
)
from metroq.states import (
    MAX_PROBES,
    QUBIT,
    StrategyKind,
    StrategySpec,
    ghz_like,
    ghz_phase_support,
    plus_minus_states,
)

from helpers import (
    binomial_from_int_seed,
    derive_round_seed_spawn_key,
    evolve_sequential,
    ghz_register,
    ghz_state,
    u_phi,
)

H = QUBIT
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
    final = ghz_register(H, 2, ghz_phase_support(H, [0.7] * 2, 0.0))
    expected = np.zeros(4, dtype=complex)
    expected[0], expected[3] = 1 / math.sqrt(2), np.exp(1.4j) / math.sqrt(2)
    assert fidelity_up_to_phase(final, expected) > 1 - 1e-12

    # single probe coincides with the sequential strategy
    par = ghz_register(H, 1, ghz_phase_support(H, [0.5] * 1, 0.0))
    seq = evolve_sequential(H, 0.5, 1, PLUS)
    assert np.max(np.abs(par - seq)) < 1e-12

    np.testing.assert_allclose(
        ghz_register(H, 4, ghz_phase_support(H, [0.0] * 4, 0.3)), ghz_state(H, 4, 0.3),
        atol=1e-15,
    )


def test_parallel_entangled_matches_analytic_form():
    rng = np.random.default_rng(9)
    for n in range(1, 13):
        phi, lam = rng.uniform(0, 2 * math.pi, size=2)
        final = ghz_register(H, n, ghz_phase_support(H, [phi] * n, lam))
        expected = np.zeros(2**n, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[-1] = np.exp(1j * (n * phi + lam)) / math.sqrt(2)
        assert fidelity_up_to_phase(final, expected) > 1 - 1e-12


def test_sequential_probability_is_the_entangled_one_and_the_per_box_loop():
    # N boxes on one probe and one box on each of N probes are one evolution
    # of the GHZ support, so the two probabilities agree bit for bit; the
    # reference runs one probe through the N boxes one at a time
    for n in range(1, MAX_PROBES + 1):
        for phi in (operating_phase(n), *np.linspace(0.0, 2 * math.pi / n, 20)):
            seq, ent = (strategy_success_probability(StrategySpec(kind, n), phi)
                        for kind in (StrategyKind.SEQUENTIAL, StrategyKind.ENTANGLED_PARALLEL))
            assert seq.hex() == ent.hex(), (n, phi)
            loop = fidelity_up_to_phase(PLUS, evolve_sequential(H, phi, n, PLUS))
            assert abs(seq - loop) < 1e-15, (n, phi)


def test_sequential_and_parallel_fringes_agree():
    for n in range(1, 11):
        worst = 0.0
        for phi in np.linspace(0.0, math.pi / n, 100):
            p_seq = fidelity_up_to_phase(PLUS, evolve_sequential(H, phi, n, PLUS))
            par = ghz_register(H, n, ghz_phase_support(H, [phi] * n, 0.0))
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
    key = philox_keys([1])[0]
    assert run_trials(spec, p_one, 500, key) == 500
    assert run_trials(spec, p_zero, 500, key) == 0


def test_run_trials_deterministic():
    spec = StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 4)
    p = strategy_success_probability(spec, 0.2)
    a = run_trials(spec, p, 1000, philox_keys([77])[0])
    b = run_trials(spec, p, 1000, philox_keys([77])[0])
    assert a == b


def test_classical_strategy_uses_n_nu_probes():
    spec = StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 4)
    k = run_trials(spec, strategy_success_probability(spec, 0.0), 250, philox_keys([3])[0])
    assert k == 4 * 250  # every one of the N*nu probes coincides at phi = 0


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
def test_run_trials_rejects_bad_probability(p):
    with pytest.raises(ValueError):
        run_trials(StrategySpec(StrategyKind.SEQUENTIAL, 2), p, 10, philox_keys([0])[0])


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
# no CSV digest reaches most of these N.  The sequential strategy is the
# entangled one's evolution, so its row is the entangled row.
_ENTANGLED_OPERATING_P_HEX = [
    "0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-2", "0x1.ffffffffffffep-2",
    "0x1.ffffffffffff9p-2", "0x1.ffffffffffffcp-2", "0x1.0000000000001p-1",
    "0x1.ffffffffffffcp-2", "0x1.ffffffffffffcp-2", "0x1.ffffffffffffep-2",
    "0x1.0000000000001p-1", "0x1.ffffffffffff6p-2", "0x1.ffffffffffffcp-2",
]
OPERATING_P_HEX = {
    StrategyKind.SEQUENTIAL: _ENTANGLED_OPERATING_P_HEX,
    StrategyKind.CLASSICAL_PARALLEL: [
        "0x1.ffffffffffffcp-2", "0x1.b504f333f9de4p-1", "0x1.ddb3d742c2652p-1",
        "0x1.ec835e799469fp-1", "0x1.f378709a22a7dp-1", "0x1.f746ea3a45f88p-1",
        "0x1.f994e02ac74b1p-1", "0x1.fb14be7fbae55p-1", "0x1.fc1c5c6408e08p-1",
        "0x1.fcd924a17f22cp-1", "0x1.fd64f021c2175p-1", "0x1.fdcf54976344bp-1",
    ],
    StrategyKind.ENTANGLED_PARALLEL: _ENTANGLED_OPERATING_P_HEX,
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
    with pytest.raises(ValueError, match="nu must be >= 1"):  # not a ZeroDivisionError
        estimate_phase(0, 0, 1)


def test_rmse_shrinks_with_nu():
    spec = StrategySpec(StrategyKind.SEQUENTIAL, 4)
    phi = math.pi / 8
    p = strategy_success_probability(spec, phi)
    rmses = []
    for nu in (100, 1000, 10000):
        errs = [
            estimate_phase(run_trials(spec, p, nu, philox_keys([1000 + r])[0]), nu, 4) - phi
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
    # numpy sizes give the same report, its rows holding Python ints
    from_numpy = scaling_experiment(StrategyKind.SEQUENTIAL, np.array([4, 1, 3, 2]), 100, 5, 9)
    assert from_numpy == ordered
    assert all(type(row.n) is int for row in from_numpy.rows)


def test_success_probability_computed_once_per_row(monkeypatch):
    # Every round of a row draws from the same p, so it is computed once per N.
    calls = []

    def counting(strategy, phi):
        calls.append((strategy.n_probes, phi))
        return strategy_success_probability(strategy, phi)

    monkeypatch.setattr("metroq.simulate.strategy_success_probability", counting)
    scaling_experiment(StrategyKind.ENTANGLED_PARALLEL, (1, 2, 4), nu=100, rounds=7, seed=3)
    assert [n for n, _ in calls] == [1, 2, 4]


def test_scaling_makes_one_key_pass_per_experiment(monkeypatch):
    # Every row's round seeds, in row order, are hashed into keys by one
    # philox_keys call; seeds and draws stay one call per round.
    n_values, rounds, seed = (4, 1, 2), 7, 3
    calls = Counter()
    passes = []

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def key_pass(seeds):
        passes.append(list(seeds))
        return philox_keys(seeds)

    monkeypatch.setattr("metroq.simulate.philox_keys", key_pass)
    monkeypatch.setattr("metroq.simulate.derive_round_seed",
                        counting("derive_round_seed", derive_round_seed))
    monkeypatch.setattr("metroq.simulate.run_trials", counting("run_trials", run_trials))
    kind = StrategyKind.CLASSICAL_PARALLEL
    report = scaling_experiment(kind, n_values, nu=100, rounds=rounds, seed=seed)
    assert passes == [[derive_round_seed(seed, kind, n, r)
                       for n in sorted(n_values) for r in range(rounds)]]
    assert calls == {"derive_round_seed": len(n_values) * rounds,
                     "run_trials": len(n_values) * rounds}
    assert report.streams == len(n_values) * rounds


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
    ((1, 2, 2.5), 100, 5),  # sizes are integers, not floats
    ((1, 2, 4.0), 100, 5),
    ((2, 3, True), 100, 5),  # nor booleans, though True indexes as 1
    ((1, 2, 4), 2.5, 5),  # the counts follow the sizes' rule
    ((1, 2, 4), True, 5),
    ((1, 2, 4), 100, True),
    ((1, 2, 4), 100, 5.0),
])
def test_scaling_experiment_rejects_bad_sizes_and_counts(n_values, nu, rounds):
    with pytest.raises(ValueError):
        scaling_experiment(StrategyKind.SEQUENTIAL, n_values, nu, rounds, seed=0)


def test_seed_must_be_unsigned_64_bit():
    with pytest.raises(ValueError):
        scaling_experiment(StrategyKind.SEQUENTIAL, (1, 2, 4), nu=10, rounds=2, seed=2**64)
    # and an integer, by the sizes' rule: not a bool, a float or a string
    for seed in (True, 1.5, "3"):
        with pytest.raises(ValueError):
            scaling_experiment(StrategyKind.SEQUENTIAL, (1, 2, 4), nu=10, rounds=2, seed=seed)
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


def test_philox_keys_are_the_keys_philox_takes():
    # one pass over every oracle seed, against numpy's own hash of the seed's
    # two words, the words Philox(int) hashes
    keys = philox_keys(ORACLE_SEEDS)
    assert keys.dtype == np.uint64 and keys.shape == (len(ORACLE_SEEDS), 2)
    for seed, key in zip(ORACLE_SEEDS, keys):
        expected = np.random.SeedSequence([seed & 0xFFFFFFFF, seed >> 32]).generate_state(
            2, np.uint64)
        assert key.tolist() == expected.tolist(), seed
    # numpy integer arrays give the same keys as lists of Python ints
    assert np.array_equal(philox_keys(np.array(ORACLE_SEEDS, dtype=np.uint64)), keys)
    assert np.array_equal(philox_keys(np.arange(2, dtype=np.int8)), keys[:2])  # seeds 0 and 1


@pytest.mark.parametrize("seeds", [
    [-1], [2**64], [0, 2**64 - 1, 2**64], 5, [[1, 2]], [[0], [1]],
    [1.5], [True], [1, True], ["3"], [[1, 2], [3]],  # integers only, not bools or floats
    np.array([-1]), np.array([1.0]), np.array([True]),
])
def test_philox_keys_rejects_seeds_outside_64_bits_and_non_1d_input(seeds):
    with pytest.raises(ValueError):
        philox_keys(seeds)


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_scaling_rows_match_the_per_round_reference(kind):
    # Every round of a row from numpy's spawn-key seed, a fresh Philox of it
    # and the fringe inversion, one round at a time, at the edge seeds
    nu, rounds = 1000, 20
    for seed in EDGE_SEEDS:
        report = scaling_experiment(kind, range(1, MAX_PROBES + 1), nu, rounds, seed)
        expected = []
        for n in range(1, MAX_PROBES + 1):
            spec, phi = StrategySpec(kind, n), operating_phase(n)
            p = strategy_success_probability(spec, phi)
            trials = spec.trials_per_repetition * nu
            children = [derive_round_seed_spawn_key(seed, kind, n, r) for r in range(rounds)]
            counts = [binomial_from_int_seed(trials, p, child) for child in children]
            errors = np.array([estimate_phase(k, trials, spec.fringe_order) - phi for k in counts])
            expected.append(ScalingRow(n=n, empirical_rmse=float(np.sqrt(np.mean(errors**2))),
                                       crb=crb(spec, nu),
                                       saturated_rounds=sum(k in (0, trials) for k in counts)))
        assert report.rows == tuple(expected), seed


def test_scaling_builds_no_seed_sequence_or_philox_per_round(monkeypatch):
    # numpy builds at most each row's pool (_row_pool); the round keys come
    # from one philox_keys pass per experiment and re-key this thread's Philox
    spec = StrategySpec(StrategyKind.SEQUENTIAL, 1)
    run_trials(spec, 0.5, 1, philox_keys([0])[0])  # this thread's Philox exists
    built = Counter()
    for name in ("SeedSequence", "Philox"):
        def counting(*args, _real=getattr(np.random, name), _name=name, **kwargs):
            built[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.random, name, counting)
    n_values, rounds = (1, 2, 4, 8), 50
    for kind in StrategyKind:
        scaling_experiment(kind, n_values, nu=100, rounds=rounds, seed=2**63 + 5)
    assert built["SeedSequence"] <= len(StrategyKind) * len(n_values)
    assert built["Philox"] == 0


@pytest.mark.parametrize("kind", list(StrategyKind))
def test_round_seed_and_draw_match_the_spawn_key_form(kind):
    # derive_round_seed hashes the round word into a pool numpy builds once
    # per (seed, strategy, N) row, and run_trials re-keys its thread's Philox
    # with the key it hashes out of the pool of the words Philox(int) hashes:
    # child seeds and counts must equal numpy's own int-and-tuple forms.
    # Rounds of every N, and at the edge seeds of every strategy, come in
    # shuffled order, so a pool cached for another row shows.
    spec = StrategySpec(kind, 3)
    p, nu = 0.3, 100_000
    trials = 3 * nu if kind is StrategyKind.CLASSICAL_PARALLEL else nu
    for seed in ORACLE_SEEDS:
        key = philox_keys([seed])[0]
        assert run_trials(spec, p, nu, key) == binomial_from_int_seed(trials, p, seed), seed
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
            assert (run_trials(spec, p, nu, philox_keys([child])[0])
                    == binomial_from_int_seed(trials, p, child))


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
    counts = np.array([run_trials(spec, p, nu, philox_keys([s])[0]) for s in range(seeds)],
                      dtype=float)
    var = trials * p * (1 - p)
    mu4 = var * (1 + 3 * (trials - 2) * p * (1 - p))  # fourth central moment
    mean_se = math.sqrt(var / seeds)
    var_se = math.sqrt((mu4 - var**2 * (seeds - 3) / (seeds - 1)) / seeds)
    assert abs(counts.mean() - trials * p) < 4 * mean_se
    assert abs(counts.var(ddof=1) - var) < 4 * var_se


# (strategy, nu, p) cases for the reused generator: numpy's BTPE sampler, its
# inversion sampler, p one ulp above 1/2 (sampled as 1 - p and mirrored) at
# 12 * 1e5 trials, the p = 0 and p = 1 shortcuts, and a p that run_trials
# rejects before it reaches the generator.
REUSE_CASES = (
    (StrategySpec(StrategyKind.SEQUENTIAL, 2), 100_000, 0.3),
    (StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 4), 10, 0.02),
    (StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 12), 100_000, 0.5000000000000001),
    (StrategySpec(StrategyKind.SEQUENTIAL, 1), 50, 0.0),
    (StrategySpec(StrategyKind.CLASSICAL_PARALLEL, 3), 50, 1.0),
    (StrategySpec(StrategyKind.SEQUENTIAL, 1), 10, 1.5),
)


def test_reused_generator_carries_nothing_between_draws():
    # run_trials re-keys one generator per thread.  Every case follows every
    # other, so a buffer left over from the last draw, or a binomial set-up
    # cached for another (trials, p), would show against a fresh Philox(seed).
    for i, seed in enumerate(ORACLE_SEEDS[:60]):
        for spec, nu, p in REUSE_CASES[i % 6:] + REUSE_CASES[:i % 6]:
            if p > 1.0:
                with pytest.raises(ValueError):
                    run_trials(spec, p, nu, philox_keys([seed])[0])
                continue
            trials = spec.trials_per_repetition * nu
            assert (run_trials(spec, p, nu, philox_keys([seed])[0])
                    == binomial_from_int_seed(trials, p, seed)), (seed, trials, p)


def test_threads_draw_from_their_own_generators():
    # Each thread re-keys a generator of its own; with frequent switches, a
    # generator two threads shared would be re-keyed by one between the
    # other's reset and its draw.
    spec, nu, p = StrategySpec(StrategyKind.ENTANGLED_PARALLEL, 3), 100_000, 0.3
    seeds = [ORACLE_SEEDS[5:205], ORACLE_SEEDS[105:305]]
    counts = [None, None]

    def draw(t):
        counts[t] = [run_trials(spec, p, nu, philox_keys([seed])[0]) for seed in seeds[t]]

    threads = [threading.Thread(target=draw, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(2):
        assert counts[t] == [binomial_from_int_seed(nu, p, seed) for seed in seeds[t]]


def test_one_philox_per_thread(monkeypatch):
    # 50 draws on a fresh thread build its one Philox on the first draw and
    # re-key it for the rest.
    spec, nu, p = StrategySpec(StrategyKind.SEQUENTIAL, 2), 1000, 0.4
    expected = [binomial_from_int_seed(nu, p, seed) for seed in range(50)]
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    counts = []
    thread = threading.Thread(
        target=lambda: counts.extend(
            run_trials(spec, p, nu, philox_keys([seed])[0]) for seed in range(50)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert counts == expected
    assert len(built) == 1


# Raw numpy draws (numpy 2.4.6) that metroq's streams lean on: (Philox key,
# trials, p, count).  0.8 and 0.5000000000000001 take numpy's mirror for
# p > 1/2 (it samples 1 - p and returns trials - k).
PINNED_BINOMIALS = [
    ((0, 0), 100_000, 0.5, 49922),
    ((0x9E3779B97F4A7C15, 1), 4_000, 0.3, 1189),
    ((12345, 67890), 48_000, 0.8, 38476),
    ((2**64 - 1, 2**63), 100_000, 0.4999999999999998, 49921),
    ((7, 11), 100_000, 0.5000000000000001, 49912),
    ((1, 2), 1, 0.9, 1),
]


def test_numpy_draws_that_streams_lean_on():
    # A numpy release that fails this changed its streams, not metroq: it
    # needs a STREAM_VERSION bump and regenerated goldens.  verify's
    # conversion checks draw their phases as one (k, m) uniform block, which
    # must be the k * m scalar draws in order, the next draw unmoved
    for seed, (k, m) in itertools.product((0, 7, 2**64 - 1), ((100, 2), (5, 3), (5, 13))):
        block = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        drawn = block.uniform(0, 2 * math.pi, size=(k, m))
        one_by_one = [scalar.uniform(0, 2 * math.pi) for _ in range(k * m)]
        assert drawn.ravel().tolist() == one_by_one
        assert block.uniform(0, 2 * math.pi) == scalar.uniform(0, 2 * math.pi)
    for key, trials, p, count in PINNED_BINOMIALS:
        philox = np.random.Philox(key=np.array(key, dtype=np.uint64))
        assert np.random.Generator(philox).binomial(trials, p) == count, (key, trials, p)
