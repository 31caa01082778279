"""Fisher information and Cramér-Rao precision bounds for the strategies.

crb takes the pure-state QFI (4 * variance of the generator) of the entangled
strategy's GHZ support, and the binary fringe's classical Fisher information
for the sequential and classical ones; the dephasing bounds are closed forms.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .linalg import ATOL_PREDICATE, as_vector
from .states import QUBIT, Generator, StrategyKind, StrategySpec, ghz_support


# Golden-section step: the inner points split the bracket at 1 - R and R.
_GOLDEN_R = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_C = 1.0 - _GOLDEN_R


def operating_phase(n: int) -> float:
    """Phase pi/(2n): the p = 1/2 point of the n-fold fringe.

    Maximum-sensitivity operating point where the binary-outcome inversion is
    single-valued on its branch.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.pi / (2 * n)


def collective_generator(h: Generator, n: int) -> Generator:
    """Sum of one generator per probe, as a diagonal on the d^n register: the
    reference `fisher` takes the register QFI on, sharing no code with crb."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lam = h.eigenvalues
    total = np.zeros(1)
    for _ in range(n):
        total = np.add.outer(total, lam).reshape(-1)
    return Generator(total)


def qfi_pure(psi, h_total: Generator) -> float:
    """Quantum Fisher information 4 * (<H^2> - <H>^2) of a normalized pure state."""
    psi = as_vector(psi)
    if psi.size != h_total.dim:
        raise ValueError("state dimension does not match generator")
    if abs(np.linalg.norm(psi) - 1.0) > ATOL_PREDICATE:
        raise ValueError("state must be normalized")
    w = np.abs(psi) ** 2
    lam = h_total.eigenvalues
    mean = float(np.sum(lam * w))
    second = float(np.sum(lam * lam * w))
    return 4.0 * (second - mean * mean)


def cfi_binary(n: int, phi: float) -> float:
    """Classical Fisher information of the binary fringe p(phi) = cos^2(n phi / 2).

    Evaluated numerically from the exact derivative dp/dphi = -(n/2) sin(n phi);
    the analytic value is n^2, constant over the open branch.  Undefined where
    p hits 0 or 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = math.cos(n * phi / 2) ** 2
    dp = -(n / 2) * math.sin(n * phi)
    denom = p * (1.0 - p)
    if denom < 1e-15:
        raise ValueError("Fisher information undefined at p in {0, 1}")
    return dp * dp / denom


def crb(strategy: StrategySpec, nu: int) -> float:
    """Per-strategy Cramér-Rao bound 1/sqrt(nu F), with the Fisher information F
    computed on the qubit generator rather than hardcoded: the QFI of the
    entangled strategy's GHZ support ghz_support(lam), one probe of N-fold
    spread, else trials_per_repetition binary fringes of order fringe_order.
    F is N^2 per repetition, or N for the classical strategy, giving
    1/(N sqrt(nu)) and 1/sqrt(N nu) respectively.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    n = strategy.n_probes
    if strategy.kind is StrategyKind.ENTANGLED_PARALLEL:
        levels = Generator(n * QUBIT.eigenvalues)
        fisher = qfi_pure(ghz_support(strategy.lam), levels)
    else:
        order = strategy.fringe_order
        fisher = strategy.trials_per_repetition * cfi_binary(order, operating_phase(n))
    return 1.0 / math.sqrt(nu * fisher)


def frequency_bound_dephasing(n: int, gamma: float, t: float, nu: int) -> float:
    """Frequency Cramér-Rao bound e^{n gamma t} / (n t sqrt(nu)) under dephasing.

    The n-probe entangled strategy is equivalent to a sequential one running n
    times as long, so both the accumulated phase and the decay exponent carry
    the factor n.
    """
    if n < 1 or gamma <= 0 or t <= 0 or nu < 1:
        raise ValueError("n, gamma, t, nu must be positive")
    return math.exp(n * gamma * t) / (n * t * math.sqrt(nu))


def phase_bound_dephasing(n: int, gamma: float, t: float, nu: int, *, entangled: bool) -> float:
    """Phase bound at fixed interrogation time t under dephasing rate gamma.

    Entangled: e^{n gamma t}/(n sqrt(nu)); classical: e^{gamma t}/sqrt(n nu).
    As t -> 0 the entangled advantage approaches the full sqrt(n) factor.
    """
    if n < 1 or gamma <= 0 or t <= 0 or nu < 1:
        raise ValueError("n, gamma, t, nu must be positive")
    if entangled:
        return math.exp(n * gamma * t) / (n * math.sqrt(nu))
    return math.exp(gamma * t) / math.sqrt(n * nu)


def optimal_frequency_bound(n: int, gamma: float, nu: int) -> tuple[float, float]:
    """Minimize the dephasing frequency bound over the interrogation time.

    Golden-section search on the bracket (0.01, 1, 10) / (n gamma), stopped
    when the bracket width falls below 1e-9 of the abscissae.  The analytic
    optimum is t* = 1/(n gamma) with bound* = e * gamma / sqrt(nu),
    independent of n (Huelga et al., PRL 79, 3865 (1997)).
    """
    if n < 1 or gamma <= 0 or nu < 1:
        raise ValueError("n, gamma, nu must be positive")
    f = partial(frequency_bound_dephasing, n, gamma, nu=nu)
    scale = 1.0 / (n * gamma)
    # x0 < x1 < x2 < x3 with f(x1), f(x2) below f(x0), f(x3); the longer
    # side of the initial bracket (1, 10) is the one split.
    x0, x1, x3 = 0.01 * scale, 1.0 * scale, 10.0 * scale
    x2 = x1 + _GOLDEN_C * (x3 - x1)
    f1, f2 = f(x1), f(x2)
    while x3 - x0 > 1e-9 * (x1 + x2):
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = f(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = f(x1)
    return (x1, f1) if f1 < f2 else (x2, f2)
