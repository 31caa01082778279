"""Kraus noise channels: constructors and structure predicates."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL_PREDICATE, as_matrix, is_antidiagonal, is_diagonal
from .states import ID2, PAULI_X, PAULI_Y, PAULI_Z


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """A finite Kraus family of equal-dimension square operators.

    Channels built by the public constructors are trace preserving
    (sum K^dag K = identity); derived families, e.g. the effective
    single-probe channel of a converted strategy, may not be, which is
    why completeness is a queried property rather than a constructor
    invariant.  Each operator is held as complex128, converted (so copied)
    only from another dtype, and frozen in place.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_matrix(k) for k in self.ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        for k in ops:
            if k.shape != (d, d):
                raise ValueError("all Kraus operators must be square with equal dims")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def completeness_residual(self) -> float:
        """Max-abs entry of sum_k K^dag K - identity (0 for trace preserving)."""
        acc = sum(k.conj().T @ k for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(self.dim))))

    def unital_residual(self) -> float:
        """Max-abs entry of sum_k K K^dag - identity (0 for unital)."""
        acc = sum(k @ k.conj().T for k in self.ops)
        return float(np.max(np.abs(acc - np.eye(self.dim))))

    def is_trace_preserving(self) -> bool:
        return self.completeness_residual() < ATOL_PREDICATE


def dephasing(p: float) -> KrausChannel:
    """Phase-flip noise {sqrt(1-p) I, sqrt(p) Z}; unital, all operators diagonal."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return KrausChannel((math.sqrt(1 - p) * ID2, math.sqrt(p) * PAULI_Z))


def bit_phase_flip(p: float) -> KrausChannel:
    """Bit flip with phase noise {sqrt(1-p) X, sqrt(p) Y}; unital, anti-diagonal."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return KrausChannel((math.sqrt(1 - p) * PAULI_X, math.sqrt(p) * PAULI_Y))


def amplitude_damping(g: float) -> KrausChannel:
    """Decay toward |0>; the canonical non-unital channel."""
    if not 0.0 <= g <= 1.0:
        raise ValueError("g must lie in [0, 1]")
    k0 = np.diag([1.0, math.sqrt(1 - g)]).astype(np.complex128)
    k1 = np.zeros((2, 2), dtype=np.complex128)
    k1[0, 1] = math.sqrt(g)
    return KrausChannel((k0, k1))


def is_unital(ch: KrausChannel) -> bool:
    return ch.unital_residual() < ATOL_PREDICATE


def is_diag_or_antidiag(ch: KrausChannel) -> bool:
    """True when the Kraus family is structurally homogeneous: every operator
    diagonal, or every operator anti-diagonal.

    A mixed family, amplitude damping's for one, returns False.  `metroq
    noise` reports it as diag_or_antidiag; the conversion beyond two probes
    needs only each_diag_or_antidiag.
    """
    return all(is_diagonal(k) for k in ch.ops) or all(is_antidiagonal(k) for k in ch.ops)


def each_diag_or_antidiag(ch: KrausChannel) -> bool:
    """True when every Kraus operator is diagonal or anti-diagonal on its own.

    Such an operator maps each basis state to a multiple of one basis state,
    so every string of them keeps a GHZ-type register on at most two entries
    and the conversion holds beyond two probes, amplitude damping's mixed
    family included.  `metroq
    noise` reports it as valid_beyond_n2.
    """
    return all(is_diagonal(k) or is_antidiagonal(k) for k in ch.ops)
