"""Indistinguishable-probe (bosonic) states: N0 and NOON interferometry.

Occupation-number representation with a hard photon-number cutoff.  All
generators used here are diagonal in the number basis, so evolution is a
phase mask; no ladder-operator exponentials are needed.  Two-mode states live
in the fixed-total-photon subspace n_a + n_b = N (dimension N+1), indexed by
the photon count of mode a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_vector
from .simulate import coincidence_probability, evolve_parallel_entangled
from .states import Generator, ghz_state


@dataclass(frozen=True, eq=False)
class FockVector:
    """State in a truncated Fock space; amplitudes indexed by occupation.

    modes=1: amplitudes[k] is the weight of |k photons>, k = 0..cutoff.
    modes=2: amplitudes[k] is the weight of |k, cutoff-k> in the
    fixed-total-photon subspace.
    """

    modes: int
    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.modes not in (1, 2):
            raise ValueError("modes must be 1 or 2")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        amp = as_vector(self.amplitudes)
        if amp.size != self.cutoff + 1:
            raise ValueError("amplitude count must be cutoff + 1")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("state must be normalized within 1e-12")
        amp = amp.copy()
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def n0_state(n: int) -> FockVector:
    """Single-mode (|vacuum> + |n>)/sqrt(2)."""
    amp = np.zeros(n + 1, dtype=np.complex128)
    amp[0] = amp[n] = 1 / math.sqrt(2)
    return FockVector(modes=1, cutoff=n, amplitudes=amp)


def evolve_single_mode(state: FockVector, phi: float) -> FockVector:
    """Number-operator evolution: amplitude of |k> picks up e^{i k phi}."""
    if state.modes != 1:
        raise ValueError("expected a single-mode state")
    phases = np.exp(1j * phi * np.arange(state.cutoff + 1))
    return FockVector(1, state.cutoff, state.amplitudes * phases)


def noon_state(n: int) -> FockVector:
    """Two-mode (|n, vacuum> + |vacuum, n>)/sqrt(2) in the n-photon subspace."""
    amp = np.zeros(n + 1, dtype=np.complex128)
    amp[n] = amp[0] = 1 / math.sqrt(2)
    return FockVector(modes=2, cutoff=n, amplitudes=amp)


def evolve_two_mode(state: FockVector, phi: float) -> FockVector:
    """Photon-number-difference evolution: |k, n-k> picks up e^{i (2k - n) phi}."""
    if state.modes != 2:
        raise ValueError("expected a two-mode state")
    n = state.cutoff
    phases = np.exp(1j * phi * (2 * np.arange(n + 1) - n))
    return FockVector(2, n, state.amplitudes * phases)


def fringe(state: FockVector, phi: float) -> float:
    """Coincidence probability |<psi_0|psi_phi>|^2 of the evolved state."""
    evolve = evolve_single_mode if state.modes == 1 else evolve_two_mode
    return coincidence_probability(evolve(state, phi).amplitudes, state.amplitudes)


def n0_equivalence_certificate(n: int) -> float:
    """Max deviation between the N0 fringe and the qubit GHZ fringe.

    Both are cos^2(n phi / 2); the comparison runs both simulations on a
    shared grid and returns the largest absolute probability difference.
    """
    return _max_fringe_deviation(n0_state, n, 1)


def noon_equivalence_certificate(n: int) -> float:
    """Max deviation between the NOON fringe and the rescaled qubit fringe.

    The two-mode number-difference generator has eigenvalue gap 2n on the NOON
    pair where the qubit register has gap n, so the NOON fringe at phi is
    compared against the qubit entangled-parallel fringe at 2 phi.
    """
    return _max_fringe_deviation(noon_state, n, 2)


def _max_fringe_deviation(make_state, n: int, qubit_scale: int) -> float:
    """Largest |fringe(state, phi) - qubit GHZ fringe at qubit_scale * phi|
    over 100 evenly spaced phi in [0, pi]."""
    if not 1 <= n <= 12:
        raise ValueError("n must lie in 1..12")
    h = Generator.qubit()
    state = make_state(n)
    ghz = ghz_state(n)
    worst = 0.0
    for phi in np.linspace(0.0, math.pi, 100):
        final = evolve_parallel_entangled(h, qubit_scale * phi, n, 0.0)
        worst = max(worst, abs(fringe(state, phi) - coincidence_probability(final, ghz)))
    return worst


def noon_fringe_zeros(n: int, count: int) -> list[float]:
    """First `count` zeros of the NOON fringe, located by sign-change bisection.

    The fringe is cos^2(n phi); roots of the overlap amplitude (which changes
    sign) sit at phi = pi (2k + 1) / (2n).  Each root is bisected on the
    bracket of half-width pi/(4n) around it until the bracket is 1e-12 wide.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    state = noon_state(n)

    def overlap(phi: float) -> float:
        return float(np.real(np.vdot(state.amplitudes, evolve_two_mode(state, phi).amplitudes)))

    zeros = []
    for k in range(count):
        center = math.pi * (2 * k + 1) / (2 * n)
        half = math.pi / (4 * n)
        lo, hi = center - half, center + half
        lo_positive = overlap(lo) > 0
        if lo_positive == (overlap(hi) > 0):
            raise RuntimeError(f"overlap does not change sign on [{lo}, {hi}]")
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if (overlap(mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        zeros.append(0.5 * (lo + hi))
    return zeros
