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

A round's stream is Philox(round seed)'s.  Its key is hashed out of the
round seed for all rounds of an experiment, every row, at once
(philox_keys), with the same SeedSequence arithmetic on numpy uint64 arrays
masked to 32 bits, and each round re-keys one Generator(Philox) per thread
with its key (run_trials): the whole bit-generator state is reset to the
one a fresh Philox(round seed) starts in, from one state mapping per thread
whose key alone changes.  A SeedSequence, a Philox or a Generator per round
cost more than the draw itself.  The keys are the ones Philox takes, so the
streams, and STREAM_VERSION, are unchanged by computing them this way.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .information import crb, operating_phase
from .linalg import fidelity_up_to_phase
from .states import (
    MAX_PROBES,
    QUBIT,
    StrategyKind,
    StrategySpec,
    ghz_phase_support,
    ghz_support,
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
# hashmix's constant before and after its k-th call: _A[k] = _INIT_A * _MULT_A**k.
# A pool of 4 takes 4 hashmixes to fill and 12 to mix pairwise, and each
# entropy word past the pool takes 4: a row's key words (strategy index, N)
# end at call 24, so the round word's hashmixes into pool words 0 and 1 are
# calls 24 and 25.
_A = tuple(_INIT_A * pow(_MULT_A, k, 2**32) & _MASK32 for k in range(27))
# generate_state's hash constant before each of its first four output words,
# and after the fourth: _B[k] = _INIT_B * _MULT_B**k
_B = tuple(_INIT_B * pow(_MULT_B, k, 2**32) & _MASK32 for k in range(5))

# Each thread's Generator(Philox) and the state mapping that re-keys it, built
# on the thread's first draw (not at import, which would load numpy.random
# into every command's start-up); every run_trials call replaces the key.
_thread = threading.local()

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
    # Philox streams opened: one per round of each row, each a re-keying of
    # the thread's one generator (run_trials) with a key of the experiment's
    # one philox_keys pass; the same streams as stream version 2 always opened
    streams: int
    draws: int  # Bernoulli trials drawn: the rounds' trials summed over rows


def strategy_success_probability(strategy: StrategySpec, phi: float) -> float:
    """Per-trial Bernoulli success probability of one repetition.

    Every strategy is one evolution of the GHZ support on the qubit: its
    fringe_order boxes at phi, ghz_phase_support(h, [phi] * fringe_order,
    lam), graded against the unevolved support ghz_support(lam).  The boxes
    are N boxes on one probe (sequential), one box on each of N probes of a
    GHZ state (entangled), or one box (classical: its N probes are
    independent trials).  Diagonal boxes multiply the same two entries
    whichever probe they act on, so the sequential and entangled strategies
    share one computation, bit for bit.  The probability is the Born
    probability |<initial|final>|^2 that the evolved state passes the
    projection back onto the initial one.
    """
    final = ghz_phase_support(QUBIT, [phi] * strategy.fringe_order, strategy.lam)
    return fidelity_up_to_phase(ghz_support(strategy.lam), final)


def run_trials(strategy: StrategySpec, p: float, nu: int, key) -> int:
    """Return the success count of one round of the strategy's Bernoulli trials.

    A round makes trials_per_repetition * nu trials: nu at the N-fold fringe,
    or N*nu single-probe ones for the classical-parallel strategy, consuming
    the same N*nu box samplings per experiment.  The count of independent trials
    with a common success probability p is exactly Binomial(trials, p), so it
    is drawn as one binomial variate instead of trial by trial.
    Deterministic for a fixed key (Philox counter-based stream).

    p is the strategy's strategy_success_probability at the round's phase.
    The caller computes it once and passes the same value to every round of a
    row: at the operating phase p is 1/2 up to roundoff, and numpy's binomial
    samples 1 - p and returns trials - k once p > 1/2, so a p recomputed along
    a path that differs in the last bit could mirror every count.

    key is the round's Philox key, the two uint64 words that philox_keys
    returns for the round seed: the draw is the one Generator(Philox(seed))
    makes.  It comes from this thread's one Generator(Philox), its bit
    generator's whole state reset to the one a fresh Philox with that key
    starts in: counter 0, no buffered output.  The reset reads the thread's
    one state mapping, in which only the key changes from draw to draw.  A
    fresh stream per round cost more in its SeedSequence's and the
    Generator's set-up than in the draw.  The count still depends only on
    the arguments: nothing of an earlier draw survives the reset, and numpy's
    cached binomial set-up is a function of (trials, p) alone.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError("p must lie in [0, 1]")
    trials = strategy.trials_per_repetition * nu
    try:
        rng, state = _thread.draw
    except AttributeError:  # this thread's first draw
        rng = np.random.Generator(np.random.Philox(0))
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,  # the buffer of 4 uint64s is used up
            "has_uint32": 0,
            "uinteger": 0,
        }
        _thread.draw = rng, state
    state["state"]["key"] = key
    rng.bit_generator.state = state
    return rng.binomial(trials, p)  # a Python int for scalar arguments


def estimate_phase(k: int, nu: int, n: int) -> float:
    """Invert the empirical fringe: phi_hat = (2/n) arccos(sqrt(k/nu)).

    Lies on the branch [0, pi/n] (k=nu gives 0, k=0 gives pi/n) and is
    monotone decreasing in k.
    """
    if not 0 <= k <= nu:
        raise ValueError("k must lie in [0, nu]")
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return (2.0 / n) * math.acos(math.sqrt(k / nu))


# _hashmix, _mix and _output_uint64 take Python ints (derive_round_seed) or
# numpy uint64 arrays of uint32 words (philox_keys): a product of two uint32
# words fits in 64 bits, and every result is masked back to 32.


def _hashmix(value, k: int):
    """numpy's hashmix of a uint32 word as the hash's k-th call."""
    h = (value ^ _A[k]) * _A[k + 1] & _MASK32
    return h ^ h >> _XSHIFT


def _mix(x, y):
    """numpy's mix of a hashed word y into the pool word x."""
    m = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return m ^ m >> _XSHIFT


def _output_uint64(lo_word, hi_word, i: int):
    """uint64 number i of SeedSequence.generate_state(n, np.uint64), n > i,
    from the mixed pool words 2i and 2i+1: each hashed into one uint32 output
    word with numpy's arithmetic, the low one first."""
    k = 2 * i
    lo = (lo_word ^ _B[k]) * _B[k + 1] & _MASK32
    hi = (hi_word ^ _B[k + 1]) * _B[k + 2] & _MASK32
    return (hi ^ hi >> _XSHIFT) << 32 | lo ^ lo >> _XSHIFT


def philox_keys(seeds) -> np.ndarray:
    """The Philox key Philox(seed) takes, for each seed: an (n, 2) uint64 array.

    A key is SeedSequence([seed mod 2^32, seed div 2^32]).generate_state(2,
    np.uint64), the words numpy itself hashes for the int (a word missing
    from the pool of 4 mixes as a zero word, so seeds below 2^32 agree
    too).  The pool is filled, mixed and hashed out with numpy's
    SeedSequence arithmetic on arrays, every seed at once.  Raises
    ValueError unless seeds is a sequence (a list, a tuple or a 1-d numpy
    array) of 64-bit unsigned integers, bools and floats excluded.
    """
    # One conversion: operator.index rejects floats, strings and nested
    # sequences, and numpy's uint64 conversion rejects ints outside 64 bits.
    try:
        seed_array = np.fromiter(map(operator.index, seeds), np.uint64, len(seeds))
    except (TypeError, OverflowError):
        raise ValueError("seeds must be a 1-d sequence of 64-bit unsigned integers") from None
    if bool in map(type, seeds):  # operator.index takes True as 1
        raise ValueError("seeds must be integers, not booleans")
    # mix_entropy: the two words and two zero words fill the pool of 4, then
    # every pool word is mixed into each of the other three
    pool = [_hashmix(seed_array & _MASK32, 0), _hashmix(seed_array >> 32, 1),
            _hashmix(0, 2), _hashmix(0, 3)]
    k = 4
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], k))
                k += 1
    return np.stack([_output_uint64(pool[0], pool[1], 0), _output_uint64(pool[2], pool[3], 1)], 1)


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
    # mix_entropy's last step, the round word mixed into pool words 0 and 1,
    # then generate_state's first uint64
    return _output_uint64(
        _mix(pool0, _hashmix(round_index, 24)), _mix(pool1, _hashmix(round_index, 25)), 0
    )


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


def _integer(value, name: str) -> int:
    """value as a Python int, or ValueError unless it is an integer other than a bool."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not a boolean")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


def scaling_experiment(
    kind: StrategyKind, n_values, nu: int, rounds: int, seed: int
) -> ScalingReport:
    """Estimate phi over rounds of nu trials for each N and fit the error scaling.

    The report is a pure function of the arguments.  Rows come in increasing
    N, each estimated at its maximum-sensitivity operating point pi/(2N).
    Raises ValueError unless nu, rounds >= 1, the seed is a 64-bit unsigned
    integer and n_values lists at least 3 distinct positive integers.  Every
    count, size and the seed must be an integer (operator.index), and not a
    bool; rows hold each N as a Python int.

    For each N the success probability p is computed once, by one
    strategy_success_probability call, and every round of the row draws
    from that same p (see run_trials).  Each round draws its success count
    from its own Philox stream: every row's round seeds come first, one
    derive_round_seed call per round, their Philox keys from one
    philox_keys pass per experiment, and each round makes one run_trials
    draw with its key.  The round estimates the phase by inverting the
    fringe of the strategy's order and contributes to the per-N RMSE about
    the operating phase.  Rows carry the matching Cramér-Rao bound and the
    number of saturated rounds.  The fitted slope and its standard error
    are None when some N has zero RMSE.  The report also counts the streams
    opened and the trials drawn.
    """
    nu, rounds, seed = _integer(nu, "nu"), _integer(rounds, "rounds"), _integer(seed, "seed")
    if nu < 1 or rounds < 1:
        raise ValueError("nu and rounds must be >= 1")
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")
    n_values = sorted(_integer(n, "each of n_values") for n in n_values)
    if len(n_values) < 3 or n_values[0] < 1 or len(set(n_values)) < len(n_values):
        raise ValueError("n_values must list at least 3 distinct positive integers")
    keys = philox_keys(
        [derive_round_seed(seed, kind, n, r) for n in n_values for r in range(rounds)]
    )
    rows = []
    draws = 0
    for i, n in enumerate(n_values):
        strat = StrategySpec(kind, n)
        phi = operating_phase(n)
        p = strategy_success_probability(strat, phi)
        trials = strat.trials_per_repetition * nu
        order = strat.fringe_order
        # converted per row, so only one row's keys are Python lists at a time
        row_keys = keys[i * rounds:(i + 1) * rounds].tolist()
        counts = [run_trials(strat, p, nu, key) for key in row_keys]
        errors = np.array([estimate_phase(k, trials, order) for k in counts]) - phi
        draws += rounds * trials
        rows.append(
            ScalingRow(
                n=n,
                empirical_rmse=float(np.sqrt(np.mean(errors**2))),
                crb=crb(strat, nu),
                saturated_rounds=counts.count(0) + counts.count(trials),
            )
        )
    # A zero RMSE (every round at some N hit phi exactly, reachable at small
    # nu and few rounds) leaves the log-log fit undefined.
    rmses = [row.empirical_rmse for row in rows]
    slope = stderr = None
    if min(rmses) > 0:
        slope, stderr = fit_loglog_slope([row.n for row in rows], rmses)
    return ScalingReport(
        rows=tuple(rows), fitted_slope=slope, slope_stderr=stderr, streams=len(keys), draws=draws
    )
