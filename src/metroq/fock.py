"""Indistinguishable-probe (bosonic) states: N0 and NOON interferometry.

Both states are put on the distinguishable-probe register: each is the
one-probe GHZ-type state plus_minus_states(h)[0] of a generator whose extreme
levels are the vacuum and the n-photon occupation.  For N0, (|0> + |n>)/sqrt(2),
h is the single-mode number operator (Generator.number, spread n); for NOON,
(|n, 0> + |0, n>)/sqrt(2), it is the two-mode number difference on the
n-photon subspace indexed by the photon count of mode a
(Generator.number_difference, spread 2n).  Both generators are diagonal in
the number basis, so a phase box keeps each state on its two levels: the
fringe zeros and the certificates' qubit side are evolved on that support
(states.ghz_phase_support), and fringe multiplies any probe it is given by
one phase box (states.phase_box).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import fidelity_up_to_phase
from .states import MAX_PROBES, Generator, ghz_like, ghz_phase_support, phase_box, plus_minus_states


def fringe(h: Generator, probe: np.ndarray, phi: float) -> float:
    """Coincidence probability |<probe| e^{i phi H} |probe>|^2 of one phase box,
    one call per grid point, the count perfbench's traced run checks."""
    return fidelity_up_to_phase(probe, probe * phase_box(h, phi))


def n0_equivalence_certificate(n: int) -> float:
    """Max deviation between the N0 fringe and the qubit GHZ fringe.

    Both are cos^2(n phi / 2); the comparison runs both simulations on a
    shared grid and returns the largest absolute probability difference.
    """
    return _max_fringe_deviation(Generator.number, n, 1)


def noon_equivalence_certificate(n: int) -> float:
    """Max deviation between the NOON fringe and the rescaled qubit fringe.

    The two-mode number-difference generator has eigenvalue gap 2n on the NOON
    pair where the qubit register has gap n, so the NOON fringe at phi is
    compared against the qubit entangled-parallel fringe at 2 phi.
    """
    return _max_fringe_deviation(Generator.number_difference, n, 2)


def _max_fringe_deviation(make_generator, n: int, qubit_scale: int) -> float:
    """Largest |fringe of the + state of make_generator(n) at phi - qubit GHZ
    fringe at qubit_scale * phi| over 100 evenly spaced phi in [0, pi].

    The qubit registers of the whole grid are evolved by one stacked
    ghz_phase_support call.  They are graded on one 2^n register per
    certificate, whose two support entries, |0...0> first and |1...1> last,
    are rewritten at each grid point, so no (100, 2^n) stack is built.  The
    register is the reference: a grade on the support sums in another order.
    """
    if not 1 <= n <= MAX_PROBES:
        raise ValueError(f"n must lie in 1..{MAX_PROBES}")
    h = make_generator(n)
    probe, _ = plus_minus_states(h)
    qubit = Generator.qubit()
    ghz = ghz_like(qubit, n)
    grid = np.linspace(0.0, math.pi, 100)
    supports = ghz_phase_support(qubit, np.repeat(qubit_scale * grid[:, None], n, axis=1))
    register = np.zeros(2**n, dtype=np.complex128)
    worst = 0.0
    for phi, support in zip(grid, supports):
        register[0], register[-1] = support
        qubit_p = fidelity_up_to_phase(ghz, register)
        worst = max(worst, abs(fringe(h, probe, phi) - qubit_p))
    return worst


def noon_fringe_zeros(n: int, count: int) -> list[float]:
    """First `count` zeros of the NOON fringe, located by sign-change bisection.

    The fringe is cos^2(n phi); roots of the overlap amplitude (which changes
    sign) sit at phi = pi (2k + 1) / (2n).  Each root is bisected on the
    bracket of half-width pi/(4n) around it until the bracket is 1e-12 wide.
    """
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    h = Generator.number_difference(n)
    initial = ghz_phase_support(h, [0.0])

    def overlap(phi: float) -> float:
        return float(np.real(np.vdot(initial, ghz_phase_support(h, [phi]))))

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
