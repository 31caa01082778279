"""Certificates that parallel entangled strategies reduce to sequential ones.

The central construction: evolve a GHZ-type state by one phase box per probe,
measure every probe but the first in the (|min> +- |max>)/sqrt(2) basis, and
check that each measurement branch leaves probe 1 in the state a sequential
strategy would have produced, up to a global phase and a known +- sign.  Both
the phase boxes and the measurement act on the state's two nonzero amplitudes,
on |min...min> and |max...max>, so a certificate builds no d^N register.  The
same machinery certifies the classical-correlation counterexamples, the noise
conversion with its unitality condition, the characterization of useful
entanglement, and the generalized W e^{i phi H} V boxes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausChannel
from .linalg import as_matrix, is_unitary, kron, normalized, partial_trace, vec
from .states import (
    MAX_PROBES,
    PAULI_X,
    Generator,
    classical_corr_state,
    ghz_phase_support,
    phase_box,
    plus_minus_states,
)


@dataclass(frozen=True)
class BranchRecord:
    """One measurement branch: outcome string over {+,-}, its probability,
    and the fidelity of the conditional probe-1 state to the sequential
    reference."""

    outcome: str
    probability: float
    fidelity: float


@dataclass(frozen=True, eq=False)
class ConversionCertificate:
    """Grades of every measurement branch of one conversion.

    probabilities[b] and fidelities[b] belong to branch b, whose outcome
    string is the b-th element of itertools.product("+-", repeat=N-1): bit k
    of b, counted from the most significant of its N-1 bits, is probe k+2's
    outcome (0 for +, 1 for -).  A fidelity is that of the normalized
    conditional probe-1 state to its sign-matched sequential reference, 0.0
    for a branch of probability below 1e-15.
    """

    n_probes: int
    probabilities: np.ndarray
    fidelities: np.ndarray

    def __post_init__(self):
        for name in ("probabilities", "fidelities"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def min_fidelity(self) -> float:
        return float(self.fidelities.min())

    @property
    def max_prob_error(self) -> float:
        return float(np.max(np.abs(self.probabilities - 0.5 ** (self.n_probes - 1))))

    @property
    def records(self) -> tuple[BranchRecord, ...]:
        """One BranchRecord per branch, built on request (perfbench counts
        branches through it)."""
        outcomes = itertools.product("+-", repeat=self.n_probes - 1)
        return tuple(
            BranchRecord("".join(o), float(p), float(f))
            for o, p, f in zip(outcomes, self.probabilities, self.fidelities)
        )


@functools.lru_cache(maxsize=8)  # keyed by generator object: Generator compares by identity
def _support_columns(h: Generator) -> np.ndarray:
    """The +- projector's columns at the two extreme levels, read-only:
    entry [s, o] multiplies support entry s (0 for |min>, 1 for |max>) into
    outcome o (0 for +, 1 for -)."""
    proj = np.array(plus_minus_states(h)).conj()
    columns = proj[:, [h.min_index, h.max_index]].T
    columns.setflags(write=False)
    return columns


@functools.lru_cache(maxsize=MAX_PROBES)  # one entry per N
def _branch_parity(n: int) -> np.ndarray:
    """Parity of each of the 2^(n-1) branches' - outcomes, the set bits of
    its index; read-only."""
    parity = np.bitwise_count(np.arange(2 ** (n - 1))) & 1
    parity.setflags(write=False)
    return parity


def _support_branch_amplitudes(support, h: Generator, n: int) -> np.ndarray:
    """Measure probes 2..n of the GHZ-type register with this support in the +- basis.

    Returns the amplitude matrix, shape (d, 2^(n-1)): column b is the
    unnormalized conditional probe-1 vector of branch b, whose bits, most
    significant first, are the outcomes of probes 2..n (0 for +, 1 for -).
    Only rows min_index and max_index are nonzero: a probe measured on
    |min...min> or |max...max> multiplies that amplitude by the projector's
    entry at the same level.  One broadcast product per probe appends its
    outcome as the new least significant bit.  Every probe meets the same two
    columns, so a column depends only on how many - outcomes its branch
    holds: the bit order is a labelling convention.  The factors go in in the order
    a probe-by-probe contraction of the whole register applies them, and the
    register's other entries add only exact zeros there, so the matrix is
    bitwise that contraction's.
    """
    columns = _support_columns(h)
    branches = np.asarray(support)[:, None]
    for _ in range(n - 1):
        branches = (branches[:, :, None] * columns[:, None, :]).reshape(2, -1)
    amps = np.zeros((h.dim, branches.shape[1]), dtype=np.complex128)
    amps[h.min_index], amps[h.max_index] = branches
    return amps


def _certificate(support: np.ndarray, h: Generator, n: int,
                 ref_plus: np.ndarray, ref_minus: np.ndarray) -> ConversionCertificate:
    """Grade every +- branch of probes 2..n of the GHZ-type register with this
    support at once against the sign-matched sequential reference state:
    ref_minus when the branch has an odd number of - outcomes, ref_plus
    otherwise."""
    amps = _support_branch_amplitudes(support, h, n)
    probs = np.einsum("ib,ib->b", amps.conj(), amps).real
    refs = np.array([ref_plus, ref_minus])[_branch_parity(n)]
    # a dead branch (probability below 1e-15) is divided by 1 and graded 0
    live = probs >= 1e-15
    cond = amps / np.sqrt(np.where(live, probs, 1.0))
    overlaps = np.einsum("ib,bi->b", cond.conj(), refs)
    fids = np.where(live, np.minimum(np.abs(overlaps) ** 2, 1.0), 0.0)
    return ConversionCertificate(n, probs, fids)


def convert_general_n(h: Generator, phis, lam: float = 0.0) -> ConversionCertificate:
    """Certify the parallel-to-sequential conversion for N probes.

    Evolves (|min>^N + e^{i lam} |max>^N)/sqrt(2) by one phase box per probe
    (phase phis[j] on probe j, applied on the state's two-level support by
    states.ghz_phase_support), measures probes 2..N in the +- basis, and
    compares every one of the 2^(N-1) conditional probe-1 states against
    e^{i (sum phis) H} (|min> +- e^{i lam} |max>)/sqrt(2), the sign being the
    parity of - outcomes.  All branches should be uniform with probability
    2^-(N-1) and fidelity 1 up to roundoff.
    """
    phis = [float(p) for p in phis]
    n = len(phis)
    if n < 2:
        raise ValueError("need at least 2 probes for a conversion certificate")
    if n > MAX_PROBES:
        raise ValueError(f"branch enumeration capped at {MAX_PROBES} probes")
    box = phase_box(h, sum(phis))
    plus, minus = plus_minus_states(h, lam)
    return _certificate(ghz_phase_support(h, phis, lam), h, n, box * plus, box * minus)


def counterexample(basis: str, phis) -> np.ndarray:
    """Run the conversion on a state correlated in one basis only.

    Evolves the classical-correlation mixture by U_phi (x) U_phi, measures
    probe 2 in the +- basis, and returns the probe-1 state averaged over the
    outcome.  The average is the maximally mixed state for every phi:
    single-basis correlation carries no phase information once the
    measurement record is discarded.  `metroq verify` checks that it equals
    I/2 and that it does not move from its value at phi = 0.

    A scalar phase gives one 2x2 state, an array of phases a stack of them,
    one per phase.  The whole stack goes through each matrix product at once;
    matmul runs the same BLAS call on every matrix of a stack, so each state
    is bitwise the one its phase gives alone.  The boxes stay dense 4x4
    matrices: scaling by their diagonals rounds differently, by about 1e-16.
    """
    h = Generator.qubit()
    rho = classical_corr_state(basis)
    phis = np.asarray(phis, dtype=float)
    u = np.zeros(phis.shape + (2, 2), dtype=np.complex128)
    u[..., [0, 1], [0, 1]] = phase_box(h, phis)
    u2 = kron(u, u)
    evolved = u2 @ rho @ u2.conj().swapaxes(-1, -2)
    acc = np.zeros(evolved.shape, dtype=np.complex128)
    for o in plus_minus_states(h):
        proj = kron(np.eye(2), np.outer(o, o.conj()))
        acc += proj @ evolved @ proj
    return partial_trace(acc, [2, 2], keep=[0])


def unaveraged_counterexample_fisher(phi: float) -> tuple[float, int]:
    """Fisher information of the hadamard-basis counterexample when nothing is
    discarded.

    Keeps the full record: the classical preparation label (which of the two
    equally weighted pure components was prepared), the probe-2 +- outcome and
    the probe-1 +- outcome.  Probability derivatives are exact (d/dphi of each
    phase box is i H times the box).  The information equals the N=2
    classical-parallel value 2 * cfi_binary(1, phi) for every phi, which
    `metroq verify` checks.

    Returns (Fisher information, singular outcomes).  An outcome of
    probability below 1e-14 adds nothing to the sum; it is singular when its
    derivative still exceeds 1e-7 in magnitude, which consistent
    probabilities cannot do (|dp| <= sqrt(F p)), so a correct computation
    counts 0.
    """
    h = Generator.qubit()
    plus, minus = plus_minus_states(h)
    # equally weighted pure components of the hadamard-correlated mixture
    comp_id = normalized(vec(np.eye(2)))
    comp_x = normalized(vec(PAULI_X))
    box = phase_box(h, phi)
    dbox = 1j * h.eigenvalues * box
    uu = kron(box, box)
    duu = kron(dbox, box) + kron(box, dbox)
    outs = [kron(o1, o2) for o2 in (plus, minus) for o1 in (plus, minus)]

    fisher = 0.0
    singular = 0
    for comp in (comp_id, comp_x):
        psi = uu * comp
        dpsi = duu * comp
        for out in outs:
            amp = np.vdot(out, psi)
            damp = np.vdot(out, dpsi)
            p = 0.5 * abs(amp) ** 2
            dp = 0.5 * 2.0 * np.real(np.conj(amp) * damp)
            if p < 1e-14:
                singular += int(abs(dp) > 1e-7)
                continue
            fisher += dp * dp / p
    return float(fisher), singular


def noise_conversion_residual(cha: KrausChannel, chb: KrausChannel) -> float:
    """Residual of the two-probe noise conversion identity.

    sum_{jk} (A_k (x) B_j) |1><1| (A_k (x) B_j)^dag must equal
    sum_{jk} (A_k B_j^T (x) 1) |1><1| (A_k B_j^T (x) 1)^dag, where |1> is the
    unnormalized vectorized identity.  Holds for every channel pair.
    """
    if cha.dim != chb.dim:
        raise ValueError("channels must act on equal dimensions")
    d = cha.dim
    idv = vec(np.eye(d))
    eye = np.eye(d)
    lhs = np.zeros((d * d, d * d), dtype=np.complex128)
    rhs = np.zeros_like(lhs)
    for a in cha.ops:
        for b in chb.ops:
            u = kron(a, b) @ idv
            lhs += np.outer(u, u.conj())
            w = kron(a @ b.T, eye) @ idv
            rhs += np.outer(w, w.conj())
    return float(np.max(np.abs(lhs - rhs)))


def effective_sequential_channel(cha: KrausChannel, chb: KrausChannel) -> tuple[KrausChannel, bool]:
    """Convert two-probe noise into the single-probe family {A_k B_j^T}.

    Returns the effective channel on probe 1 and whether it is trace
    preserving, which holds exactly when the second channel is unital.  The
    conversion identity behind it is noise_conversion_residual, which
    `metroq noise` reports as a check.
    """
    if cha.dim != chb.dim:
        raise ValueError("channels must act on equal dimensions")
    ops = tuple(a @ b.T for a in cha.ops for b in chb.ops)
    effective = KrausChannel(ops)
    return effective, effective.is_trace_preserving()


def useful_entanglement_check(e, h: Generator) -> tuple[bool, float | None]:
    """Decide whether a 2x2 seed operator yields a working entangled strategy.

    Samples a 50-point phase grid and accepts iff e^{i phi H} E e^{i phi H}
    applied to |+-> matches e^{2 i phi H} (|0> +- e^{i lambda} |1>)/sqrt(2) up
    to a global phase for one phi-independent lambda, returned as the second
    element.  The operators proportional to diag(c, c e^{i lambda}) pass;
    global scale is quotiented out beforehand.  The test is numerical: an
    off-diagonal entry eps (relative to the largest singular value) costs
    fidelity about eps^2, so operators within about 1e-6 of that family pass
    too.

    The whole grid is evaluated at once from one (50, d) array of phase-box
    diagonals.  A grid point rejects when an evolved vector's norm is below
    1e-12 or its fidelity to the target is below 1 - 1e-12.
    """
    e = as_matrix(e)
    if e.shape != (2, 2) or h.dim != 2:
        raise ValueError("useful_entanglement_check is defined for 2x2 operators")
    smax = float(np.max(np.linalg.svd(e, compute_uv=False)))
    if smax == 0.0:
        return False, None
    e = e / smax
    c0 = e[h.min_index, h.min_index]
    c1 = e[h.max_index, h.max_index]
    if abs(c0) < 1e-12 or abs(c1) < 1e-12:
        return False, None
    lam_hat = float(np.angle(c1 / c0))
    targets = np.stack(plus_minus_states(h, lam_hat))
    starts = np.stack(plus_minus_states(h))
    phis = np.linspace(0.0, 2 * math.pi, 50, endpoint=False)
    # boxes[g] is the diagonal of e^{i phi_g H}; axes below are (phase, start, entry)
    boxes = phase_box(h, phis)[:, None, :]
    v = boxes * ((boxes * starts) @ e.T)
    nv = np.linalg.norm(v, axis=2)
    if np.any(nv < 1e-12):
        return False, None
    overlaps = np.sum((v / nv[..., None]).conj() * (boxes * boxes * targets), axis=2)
    if np.any(np.abs(overlaps) ** 2 < 1.0 - 1e-12):
        return False, None
    return True, lam_hat


def generalized_strategy_certificate(
    w, v, h: Generator, phi: float, n: int
) -> tuple[float, ConversionCertificate]:
    """Certify the parallel strategy for generalized boxes U' = W e^{i phi H} V.

    Naive iteration of U' does not accumulate phase in general, but the
    per-probe operator M = W^dag U' V^dag does: it equals e^{i phi H}, so the
    parallel strategy on M is the ordinary one.  Returns max|M - e^{i phi H}|
    and the certificate of the GHZ-type state evolved on its two-level support
    by n boxes e^{i phi H} (states.ghz_phase_support), graded against
    M^n |+-> normalized.  M is compared with the box off the diagonal too,
    so the box is a dense matrix here.
    """
    w = as_matrix(w)
    v = as_matrix(v)
    if not (is_unitary(w) and is_unitary(v)):
        raise ValueError("w and v must be unitary")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_PROBES:
        raise ValueError(f"branch enumeration capped at {MAX_PROBES} probes")
    u = np.diag(phase_box(h, phi))
    m = w.conj().T @ (w @ u @ v) @ v.conj().T
    m_n = np.linalg.matrix_power(m, n)
    plus, minus = plus_minus_states(h)
    cert = _certificate(ghz_phase_support(h, [phi] * n), h, n,
                        normalized(m_n @ plus), normalized(m_n @ minus))
    return float(np.max(np.abs(m - u))), cert
