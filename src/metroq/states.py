"""Generators, phase unitaries, probe states and strategy descriptions."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import basis_state, kron

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)

# Desk-scale cap on the probes of one register: branch enumeration is
# exhaustive (2^(N-1) branches) and the qubit register has 2^N entries.
MAX_PROBES = 12


@dataclass(frozen=True, eq=False)
class Generator:
    """Hermitian generator stored as its real diagonal in its own eigenbasis.

    The spectrum is its one input.  min_index and max_index are derived from
    it, the first argmin and argmax, so a tie resolves to the first level;
    their basis states are the two levels every estimation strategy
    superposes.  A 1-D spectrum of at least two levels and a non-degenerate
    spread (min < max) are required.  The spectrum is held as float64,
    converted (so copied) only from another dtype, and frozen in place.
    """

    eigenvalues: np.ndarray
    min_index: int = field(init=False)
    max_index: int = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("generator needs at least two eigenvalues")
        lo, hi = int(np.argmin(lam)), int(np.argmax(lam))
        # false for a NaN too, whose level argmin and argmax both return
        if not lam[lo] < lam[hi]:
            raise ValueError("generator spread is degenerate")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "min_index", lo)
        object.__setattr__(self, "max_index", hi)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    @staticmethod
    def number(n: int) -> "Generator":
        """Single-mode number operator on occupations 0..n: spread n."""
        return Generator(np.arange(n + 1))

    @staticmethod
    def number_difference(n: int) -> "Generator":
        """Two-mode number difference n_a - n_b on the n-photon subspace,
        indexed by n_a: eigenvalues 2k - n, spread 2n."""
        return Generator(2 * np.arange(n + 1) - n)


# diag(0, 1), the two-level generator every strategy, bound and check runs on
QUBIT = Generator(np.array([0.0, 1.0]))


def phase_box(h: Generator, phis) -> np.ndarray:
    """Diagonal of the phase box e^{i phi H}: entries exp(i phi eigenvalue).

    One phase gives shape (d,); an array of phases gives phis.shape + (d,),
    one diagonal per phase.  This is the one place a generator's eigenvalues
    are exponentiated: every box of every strategy and certificate is built
    here.
    """
    return np.exp(1j * np.multiply.outer(phis, h.eigenvalues))


def plus_minus_states(h: Generator, lam: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Equal superpositions (|min> +- e^{i lam} |max>)/sqrt(2) of the extreme
    eigenstates: the basis probes 2..N are measured in (lam = 0)."""
    lo = basis_state(h.dim, h.min_index)
    hi = np.exp(1j * lam) * basis_state(h.dim, h.max_index)
    return (lo + hi) / math.sqrt(2), (lo - hi) / math.sqrt(2)


def repeated_index(d: int, n: int, j: int) -> int:
    """Index of |j...j> in the d^n register, probe 1 most significant.

    Digit j in each of the n base-d places: j * (d^n - 1) / (d - 1), exact in
    integer arithmetic.
    """
    return j * (d**n - 1) // (d - 1)


def ghz_like(h: Generator, n: int) -> np.ndarray:
    """Normalized (|min>^n + |max>^n)/sqrt(2) on the n-probe register: the
    reference for `fisher`'s register QFI.  Every other path computes on its
    support, ghz_phase_support."""
    if n < 1:
        raise ValueError("need at least one probe")
    state = np.zeros(h.dim**n, dtype=np.complex128)
    state[[repeated_index(h.dim, n, j) for j in (h.min_index, h.max_index)]] = ghz_support()
    return state


def ghz_support(lam: float = 0.0) -> np.ndarray:
    """(1, e^{i lam})/sqrt(2): the unevolved support of every GHZ-type state
    (|min>^N + e^{i lam} |max>^N)/sqrt(2), whatever the generator and N, and
    bitwise ghz_phase_support of zero phases, whose boxes are exactly 1."""
    return np.array([1 / math.sqrt(2), np.exp(1j * lam) / math.sqrt(2)])


def ghz_phase_support(h: Generator, phis, lam: float = 0.0) -> np.ndarray:
    """Support of (|min>^N + e^{i lam} |max>^N)/sqrt(2) after one phase box
    per probe.

    phis is a phase vector (N,), phis[j] the phase of probe j's box, or a
    stack (..., N) of them.  Diagonal boxes keep a GHZ-type register on its
    two entries |min...min> and |max...max>, so only those are evolved: the
    result, shape (..., 2), holds their amplitudes.  Each probe's factor, the
    phase_box entries of the two extreme levels, is multiplied in from the
    last probe outward, so both amplitudes are bitwise those of the whole
    register, its two entries ghz_support(lam), times the d^N outer
    product of the per-probe diagonals built in the same order.  The product
    starts from the last probe's factor itself, not from ones times it: a
    factor's imaginary part is never -0.0 (phase_box's exponent has imaginary
    part 0.0 + phi eigenvalue, and sin of a nonzero double is nonzero), so
    multiplying by 1 would change no bit.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim < 1 or phis.shape[-1] < 1:
        raise ValueError("need at least one probe")
    factors = phase_box(h, phis)[..., [h.min_index, h.max_index]]
    boxes = factors[..., -1, :]
    for j in reversed(range(phis.shape[-1] - 1)):
        boxes = factors[..., j, :] * boxes
    return ghz_support(lam) * boxes


def classical_corr_state(basis: str) -> np.ndarray:
    """Two-probe mixed state correlated in a single basis only.

    "computational" gives (|00><00| + |11><11|)/2, "hadamard" the analogue
    built from |++> and |-->.  Both are rank-2, unit-trace, and carry no
    correlation in the complementary basis.
    """
    if basis == "computational":
        a = kron(basis_state(2, 0), basis_state(2, 0))
        b = kron(basis_state(2, 1), basis_state(2, 1))
    elif basis == "hadamard":
        plus, minus = plus_minus_states(QUBIT)
        a = kron(plus, plus)
        b = kron(minus, minus)
    else:
        raise ValueError(f"unknown basis {basis!r}")
    return (np.outer(a, a.conj()) + np.outer(b, b.conj())) / 2


class StrategyKind(str, Enum):
    SEQUENTIAL = "sequential"
    CLASSICAL_PARALLEL = "classical"
    ENTANGLED_PARALLEL = "entangled"


@dataclass(frozen=True, eq=False)
class StrategySpec:
    """One estimation strategy on the qubit generator: how many probes, and
    the resources they make one repetition of.  Every strategy is one
    evolution, fringe_order boxes on the GHZ support, so strategies differ
    only in fringe_order and trials_per_repetition.  lam is the relative
    phase of the GHZ-type state every strategy starts from: 0 in `scaling`,
    set by the tests, and read by perfbench's success-probability hook."""

    kind: StrategyKind
    n_probes: int
    lam: float = 0.0

    def __post_init__(self):
        if self.n_probes < 1:
            raise ValueError("n_probes must be >= 1")

    @property
    def fringe_order(self) -> int:
        """n of each trial's fringe cos^2(n phi / 2): N, or 1 if classical."""
        return 1 if self.kind is StrategyKind.CLASSICAL_PARALLEL else self.n_probes

    @property
    def trials_per_repetition(self) -> int:
        """Bernoulli trials of one repetition: N if classical, else 1."""
        return self.n_probes if self.kind is StrategyKind.CLASSICAL_PARALLEL else 1
