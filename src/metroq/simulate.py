"""Seeded Monte Carlo phase-estimation experiments over the estimation strategies.

Each round draws its success count as one binomial variate from its own
counter-based Philox stream.  A round's seed is the one numpy's
SeedSequence(seed, spawn_key=(strategy index, N, round_index)) generates, so
every strategy samples independently and reports are pure functions of their
arguments, independent of any execution order.  numpy hashes the seed and
the first two key words into a pool once per (strategy, N) row; the round
word is hashed in here, with numpy's SeedSequence arithmetic (see
derive_round_seed).  STREAM_VERSION names this sampling scheme; it changes
whenever the same arguments would draw different numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .information import crb, operating_phase
from .linalg import as_vector, fidelity_up_to_phase
from .states import (
    MAX_PROBES,
    Generator,
    StrategyKind,
    StrategySpec,
    ghz_phase_support,
    phase_box,
    plus_minus_states,
)

# Version 1 (reports without the field) drew nu, or N*nu, uniforms per round
# on streams keyed on (N, round); version 2 is the scheme described above.
STREAM_VERSION = 2

_MASK32 = 0xFFFFFFFF  # SeedSequence entropy is a sequence of uint32 words

# SeedSequence's hash constants, named as in numpy's bit_generator.pyx.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# hashmix's constant once a row's six entropy words are in the pool of 4:
# 4 hashmixes fill it, 12 mix it pairwise and each key word past the pool
# (strategy index, N) takes 4.  The round word's hashmixes into pool words 0
# and 1 then start from _A24 and _A25.
_A24, _A25, _A26 = (_INIT_A * pow(_MULT_A, k, 2**32) & _MASK32 for k in (24, 25, 26))
# generate_state's constant before and after its first and second output word
_B1, _B2 = (_INIT_B * pow(_MULT_B, k, 2**32) & _MASK32 for k in (1, 2))

# Fixed stream index per strategy, so reordering StrategyKind keeps the streams.
_STREAM_INDEX = {
    StrategyKind.SEQUENTIAL: 0,
    StrategyKind.CLASSICAL_PARALLEL: 1,
    StrategyKind.ENTANGLED_PARALLEL: 2,
}


@dataclass(frozen=True)
class ScalingRow:
    n: int
    empirical_rmse: float
    crb: float
    # rounds whose count was 0 or all trials: fringe inversion clamped them
    # to an end of its branch, outside the regime where the estimator and
    # its Cramér-Rao comparison mean anything
    saturated_rounds: int


@dataclass(frozen=True)
class ScalingReport:
    rows: tuple[ScalingRow, ...]
    fitted_slope: float | None  # None when some row's RMSE is zero
    slope_stderr: float | None
    streams: int  # Philox streams opened: one per round of each row
    draws: int  # Bernoulli trials drawn: the rounds' trials summed over rows


def evolve_sequential(h: Generator, phi: float, n: int, initial) -> np.ndarray:
    """Run one probe through n boxes: multiply by phase_box(h, phi) n times."""
    state = as_vector(initial)
    if state.size != h.dim:
        raise ValueError("initial state dimension does not match generator")
    box = phase_box(h, phi)
    for _ in range(n):
        state = box * state
    return state


def evolve_parallel_entangled(h: Generator, phi: float, n: int, lam: float = 0.0) -> np.ndarray:
    """Apply one phase box per probe to the n-probe GHZ-type initial state.

    Returns its support, shape (2,): the amplitudes on |min...min> and
    |max...max>, the only entries diagonal boxes leave nonzero
    (states.ghz_phase_support).  Each probe's box is still applied, as one
    factor exp(i phi eigenvalue) per entry, not replaced by the closed form
    e^{i n phi}, so tests can check the phase accumulation rather than assume
    it: bit for bit against the register's d^N diagonal of phase boxes, and
    that diagonal against a dense box applied to one factor at a time.  It
    stays a function of its own because perfbench's traced run reports its calls.
    """
    return ghz_phase_support(h, [phi] * n, lam)


def strategy_success_probability(strategy: StrategySpec, phi: float) -> float:
    """Per-trial Bernoulli success probability of one repetition.

    Every strategy runs on the qubit generator through its fringe_order
    boxes: N on one probe (sequential), one (classical: its N probes are
    independent trials), or one on each of N probes of a GHZ state, graded
    on its support (entangled).  The probability is the Born probability
    |<initial|final>|^2 that the evolved state passes the projection back
    onto the initial one.
    """
    h = Generator.qubit()
    boxes = strategy.fringe_order
    if strategy.kind is StrategyKind.ENTANGLED_PARALLEL:
        initial = ghz_phase_support(h, [0.0] * boxes, strategy.lam)
        final = evolve_parallel_entangled(h, phi, boxes, strategy.lam)
    else:
        initial, _ = plus_minus_states(h)
        final = evolve_sequential(h, phi, boxes, initial)
    return fidelity_up_to_phase(initial, final)


def run_trials(strategy: StrategySpec, p: float, nu: int, seed: int) -> int:
    """Return the success count of one round of the strategy's Bernoulli trials.

    A round makes trials_per_repetition * nu trials: nu at the N-fold fringe,
    or N*nu single-probe ones for the classical-parallel strategy, consuming
    the same N*nu box samplings per experiment.  The count of independent trials
    with a common success probability p is exactly Binomial(trials, p), so it
    is drawn as one binomial variate instead of trial by trial.
    Deterministic for a fixed seed (Philox counter-based stream).

    p is the strategy's strategy_success_probability at the round's phase.
    The caller computes it once and passes the same value to every round of a
    row: at the operating phase p is 1/2 up to roundoff, and numpy's binomial
    samples 1 - p and returns trials - k once p > 1/2, so a p recomputed along
    a path that differs in the last bit could mirror every count.

    The Philox key comes from SeedSequence([seed mod 2^32, seed div 2^32]),
    the words numpy itself hashes for Philox(seed): a word missing from the
    pool of 4 mixes as a zero word, so seeds below 2^32 agree too.  Passing
    the words as a uint32 array skips numpy's per-call coercion of the
    Python int.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError("p must lie in [0, 1]")
    trials = strategy.trials_per_repetition * nu
    words = np.array([seed & _MASK32, seed >> 32], dtype=np.uint32)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))
    return int(rng.binomial(trials, p))


def estimate_phase(k: int, nu: int, n: int) -> float:
    """Invert the empirical fringe: phi_hat = (2/n) arccos(sqrt(k/nu)).

    Lies on the branch [0, pi/n] (k=nu gives 0, k=0 gives pi/n) and is
    monotone decreasing in k.
    """
    if not 0 <= k <= nu:
        raise ValueError("k must lie in [0, nu]")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2.0 / n) * math.acos(math.sqrt(k / nu))


@functools.lru_cache(maxsize=len(_STREAM_INDEX) * MAX_PROBES)  # the rows of one run
def _row_pool(seed: int, index: int, n: int) -> tuple[int, int]:
    """Pool words 0 and 1 of SeedSequence([seed mod 2^32, seed div 2^32, 0, 0,
    index, n]): the pool numpy has built from a row's seed and key words when
    it reaches the round word."""
    words = np.array([seed & _MASK32, seed >> 32, 0, 0, index, n], dtype=np.uint32)
    pool = np.random.SeedSequence(words).pool
    return int(pool[0]), int(pool[1])


def derive_round_seed(seed: int, kind: StrategyKind, n: int, round_index: int) -> int:
    """Per-round child seed of one strategy at N = n.

    The seed of SeedSequence(seed, spawn_key=(strategy index, n,
    round_index)): the strategy is part of the key, so strategies with the
    same success probability still draw from independent streams.  It is the
    first uint64 that SeedSequence generates from the uint32 entropy numpy
    assembles for that call: the two words of the 64-bit seed, low first,
    zero-padded to the pool size of 4 because a spawn key is present, then
    the key.

    Only the last word, round_index, changes from round to round.  The pool
    after the first six words comes from numpy once per row (_row_pool);
    each round hashes its word into pool words 0 and 1, the two that
    generate_state(1, np.uint64) reads, and hashes those into the low and
    high output words, with numpy's uint32 arithmetic.  Raises ValueError
    unless the seed is a 64-bit unsigned integer and n and round_index are
    32-bit ones.
    """
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    if not (0 <= n <= _MASK32 and 0 <= round_index <= _MASK32):
        raise ValueError("n and round_index must be 32-bit unsigned integers")
    pool0, pool1 = _row_pool(seed, _STREAM_INDEX[kind], n)
    # mix_entropy's last step: hashmix(round_index) mixed into pool words 0, 1
    h0 = (round_index ^ _A24) * _A25 & _MASK32
    h1 = (round_index ^ _A25) * _A26 & _MASK32
    m0 = (_MIX_MULT_L * pool0 - _MIX_MULT_R * (h0 ^ h0 >> _XSHIFT)) & _MASK32
    m1 = (_MIX_MULT_L * pool1 - _MIX_MULT_R * (h1 ^ h1 >> _XSHIFT)) & _MASK32
    # generate_state: each pool word hashed into one output word, low first
    lo = ((m0 ^ m0 >> _XSHIFT) ^ _INIT_B) * _B1 & _MASK32
    hi = ((m1 ^ m1 >> _XSHIFT) ^ _B1) * _B2 & _MASK32
    return (hi ^ hi >> _XSHIFT) << 32 | lo ^ lo >> _XSHIFT


def rmse_stderr(rmse: float, rounds: int) -> float:
    """Large-sample standard error of an RMSE estimated from `rounds` rounds."""
    return rmse / math.sqrt(2 * rounds)


def fit_loglog_slope(ns, rmses) -> tuple[float, float]:
    """Ordinary least squares slope of log(rmse) vs log(N), with standard error."""
    ns = np.asarray(ns, dtype=float)
    rmses = np.asarray(rmses, dtype=float)
    if len(set(ns.tolist())) < 3:
        raise ValueError("need at least 3 distinct N values for a slope fit")
    if np.any(rmses <= 0):
        raise ValueError("rmse values must be positive for a log-log fit")
    x = np.log(ns)
    y = np.log(rmses)
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    slope = float(np.sum(xc * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = ns.size - 2
    s2 = float(np.sum(resid * resid) / dof)
    return slope, math.sqrt(s2 / sxx)


def scaling_experiment(
    kind: StrategyKind, n_values, nu: int, rounds: int, seed: int
) -> ScalingReport:
    """Estimate phi over rounds of nu trials for each N and fit the error scaling.

    The report is a pure function of the arguments.  Rows come in increasing
    N, each estimated at its maximum-sensitivity operating point pi/(2N).
    Raises ValueError unless nu, rounds >= 1, the seed is a 64-bit unsigned
    integer and n_values lists at least 3 distinct positive N.

    For each N the success probability p is computed once, by one
    strategy_success_probability call, and every round of the row draws
    from that same p (see run_trials).  Each round draws its success count
    from its own Philox stream (see derive_round_seed), estimates the phase
    by inverting the fringe of the strategy's order, and contributes to the
    per-N RMSE about the operating phase.  Rows carry the matching Cramér-Rao
    bound and the number of saturated rounds.  The fitted slope and its
    standard error are None when some N has zero RMSE.  The report also
    counts the streams opened and the trials drawn.
    """
    if nu < 1 or rounds < 1:
        raise ValueError("nu and rounds must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    n_values = sorted(n_values)
    if len(n_values) < 3 or n_values[0] < 1 or len(set(n_values)) < len(n_values):
        raise ValueError("n_values must list at least 3 distinct positive integers")
    rows = []
    streams = draws = 0
    for n in n_values:
        strat = StrategySpec(kind, n)
        phi = operating_phase(n)
        p = strategy_success_probability(strat, phi)
        trials = strat.trials_per_repetition * nu
        errors = np.empty(rounds)
        saturated = 0
        for r in range(rounds):
            k = run_trials(strat, p, nu, derive_round_seed(seed, kind, n, r))
            saturated += k in (0, trials)
            errors[r] = estimate_phase(k, trials, strat.fringe_order) - phi
        streams += rounds
        draws += rounds * trials
        rows.append(
            ScalingRow(
                n=n,
                empirical_rmse=float(np.sqrt(np.mean(errors**2))),
                crb=crb(strat, nu),
                saturated_rounds=saturated,
            )
        )
    # A zero RMSE (every round at some N hit phi exactly, reachable at small
    # nu and few rounds) leaves the log-log fit undefined.
    rmses = [row.empirical_rmse for row in rows]
    slope = stderr = None
    if min(rmses) > 0:
        slope, stderr = fit_loglog_slope([row.n for row in rows], rmses)
    return ScalingReport(
        rows=tuple(rows), fitted_slope=slope, slope_stderr=stderr, streams=streams, draws=draws
    )
