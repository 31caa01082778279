import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from metroq.channels import (
    KrausChannel,
    amplitude_damping,
    bit_phase_flip,
    dephasing,
    is_unital,
)
from metroq import equivalence
from metroq.cli import main
from metroq.equivalence import (
    convert_general_n,
    counterexample,
    effective_sequential_channel,
    generalized_strategy_certificate,
    noise_conversion_residual,
    unaveraged_counterexample_fisher,
    useful_entanglement_check,
)
from metroq.information import cfi_binary
from metroq.linalg import (
    fidelity_up_to_phase,
    haar_unitary,
    kron,
    normalized,
    trace_distance,
    vec,
)
from metroq.states import (
    PAULI_X,
    Generator,
    ghz_like,
    ghz_phase_support,
    plus_minus_states,
)

from helpers import (
    apply_on_factor,
    branch_amplitudes_tensordot,
    counterexample_per_phase,
    ghz_register,
    phase_mask,
    project_subsystem,
    random_cptp_channel,
    u_phi,
    useful_entanglement_check_per_phase,
)

H = Generator.qubit()
PLUS, MINUS = plus_minus_states(H)
IDENTITY_CHANNEL = KrausChannel((np.eye(2),))


# ---------------------------------------------------------------- conversion

def test_convert_n2_trivial_phases():
    cert = convert_general_n(H, [0.0, 0.0])
    assert cert.n_probes == 2
    assert {r.outcome for r in cert.records} == {"+", "-"}
    for r in cert.records:
        assert abs(r.probability - 0.5) < 1e-12
        assert r.fidelity > 1 - 1e-12
    assert abs(cert.probabilities.sum() - 1.0) < 1e-10


def test_convert_n2_accumulates_both_phases():
    cert = convert_general_n(H, [0.7, 1.3])
    # conditional probe-1 states are proportional to |0> +- e^{2.0 i} |1>
    assert cert.max_prob_error < 1e-12
    assert cert.min_fidelity > 1 - 1e-12
    branch_plus = normalized(np.array([1.0, np.exp(2.0j)]))
    u2 = u_phi(H, 2.0)
    assert fidelity_up_to_phase(u2 @ PLUS, branch_plus) > 1 - 1e-12


def test_convert_n2_random_pairs():
    rng = np.random.default_rng(21)
    worst = 1.0
    for _ in range(100):
        cert = convert_general_n(H, [rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)])
        worst = min(worst, cert.min_fidelity)
        assert cert.max_prob_error < 1e-12
    assert worst > 1 - 1e-12


def test_convert_general_matches_n2():
    # two-probe oracle: the pair evolved by the matrix U_0.4 (x) U_1.1, probe 2
    # projected onto + and -, conditionals |0> +- e^{1.5 i}|1>
    cert = convert_general_n(H, [0.4, 1.1])
    evolved = kron(u_phi(H, 0.4), u_phi(H, 1.1)) @ ghz_like(H, 2)
    for r, (onto, sign) in zip(cert.records, ((PLUS, 1), (MINUS, -1))):
        p, cond = project_subsystem(evolved, [2, 2], 1, onto)
        assert abs(r.probability - p) < 1e-15
        expected = normalized(np.array([1.0, sign * np.exp(1.5j)]))
        assert abs(r.fidelity - fidelity_up_to_phase(cond, expected)) < 1e-15


def test_convert_general_equal_phases():
    phi = 0.23
    cert = convert_general_n(H, [phi] * 5, 0.0)
    assert cert.min_fidelity > 1 - 1e-12
    # every conditional carries relative phase e^{i 5 phi}
    ref = normalized(np.array([1.0, np.exp(5j * phi)]))
    assert fidelity_up_to_phase(u_phi(H, 5 * phi) @ PLUS, ref) > 1 - 1e-12


def test_convert_general_three_probe_branches():
    cert = convert_general_n(H, [0.2, 0.5, 0.9], 0.0)
    assert len(cert.records) == 4
    for r in cert.records:
        assert abs(r.probability - 0.25) < 1e-12
        assert r.fidelity > 1 - 1e-12
    # independent enumeration oracle: full tensor-product unitary applied as a
    # matrix, probes projected one at a time; every conditional must be
    # |0> +- e^{1.6 i}|1> with the parity sign of the - outcomes
    boxes = np.kron(np.kron(u_phi(H, 0.2), u_phi(H, 0.5)), u_phi(H, 0.9))
    evolved = boxes @ ghz_like(H, 3)
    for signs in itertools.product((1, -1), repeat=2):
        p2, cond = project_subsystem(evolved, [2, 2, 2], 2, PLUS if signs[1] == 1 else MINUS)
        p1, cond = project_subsystem(cond, [2, 2], 1, PLUS if signs[0] == 1 else MINUS)
        assert abs(p2 * p1 - 0.25) < 1e-12
        parity = signs[0] * signs[1]
        expected = normalized(np.array([1.0, parity * np.exp(1.6j)]))
        assert fidelity_up_to_phase(cond, expected) > 1 - 1e-12


def test_convert_general_random_phase_vectors():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for _ in range(3):
            cert = convert_general_n(
                H, rng.uniform(0, 2 * math.pi, size=n), rng.uniform(0, 2 * math.pi)
            )
            assert cert.min_fidelity > 1 - 1e-12
            assert cert.max_prob_error < 1e-10
            assert abs(cert.probabilities.sum() - 1.0) < 1e-10


def test_phase_mask_matches_per_factor_boxes_and_record_order():
    # Oracle: the mask must act as u_phi(h, phi_j) applied to factor j, one
    # factor at a time, on an arbitrary register state (not just GHZ, which
    # would only probe two entries of the mask).
    rng = np.random.default_rng(31)
    qutrit = Generator(np.array([-0.3, 0.45, 1.2]), 0, 2)
    for h in (H, qutrit):
        for n in range(1, 7):
            phis = rng.uniform(0, 2 * math.pi, size=n)
            dims = (h.dim,) * n
            state = rng.standard_normal(h.dim**n) + 1j * rng.standard_normal(h.dim**n)
            oracle = state
            for j, phi in enumerate(phis):
                oracle = apply_on_factor(oracle, dims, j, u_phi(h, phi))
            assert np.max(np.abs(state * phase_mask(h, phis) - oracle)) < 1e-12
    # Branch records come out labelled and ordered as the product enumeration.
    for n in range(2, 6):
        cert = convert_general_n(H, rng.uniform(0, 2 * math.pi, size=n), 0.4)
        labels = ["".join(o) for o in itertools.product("+-", repeat=n - 1)]
        assert [r.outcome for r in cert.records] == labels
        assert len(cert.records) == 2 ** (n - 1)
        assert [r.probability for r in cert.records] == list(cert.probabilities)
        assert [r.fidelity for r in cert.records] == list(cert.fidelities)


def test_branch_cascade_is_bitwise_the_tensordot_cascade():
    # the support's per-probe products against the whole register contracted
    # probe by probe, byte for byte
    rng = np.random.default_rng(32)
    qutrit = Generator(np.array([-0.3, 0.45, 1.2]), 0, 2)
    ququart = Generator(np.array([1.5, -0.2, 0.7, -0.9]), 3, 0)
    for h, n_max in ((H, 12), (qutrit, 7), (ququart, 5)):
        for n in range(1, n_max + 1):
            support = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps = equivalence._support_branch_amplitudes(support, h, n)
            oracle = branch_amplitudes_tensordot(ghz_register(h, n, support), h, n)
            assert amps.shape == oracle.shape == (h.dim, 2 ** (n - 1))
            assert amps.tobytes() == np.ascontiguousarray(oracle).tobytes()


def _conversion_inputs(phis, lam):
    """Evolved GHZ-type support and the (+, -) sequential references of
    convert_general_n, built here from the same pieces."""
    n = len(phis)
    support = (ghz_like(H, n, lam) * phase_mask(H, phis))[[0, -1]]
    u_total = u_phi(H, sum(phis))
    refs = [u_total @ normalized(np.array([1.0, s * np.exp(1j * lam)])) for s in (1, -1)]
    return support, refs


def test_grading_fails_on_a_dropped_phase_or_swapped_references():
    phis, lam = [0.4, 1.3, 0.9, 2.2], 0.7
    n = len(phis)
    support, (ref_plus, ref_minus) = _conversion_inputs(phis, lam)
    assert equivalence._certificate(support, H, n, ref_plus, ref_minus).min_fidelity > 1 - 1e-12
    dropped, _ = _conversion_inputs(phis[:-1] + [0.0], lam)
    assert equivalence._certificate(dropped, H, n, ref_plus, ref_minus).min_fidelity < 0.9
    swapped = equivalence._certificate(support, H, n, ref_minus, ref_plus)
    assert swapped.min_fidelity < 1e-12
    # probabilities do not see the references; only the fidelities fail
    assert swapped.max_prob_error < 1e-12


# sha256 of the probabilities and fidelities of a fixed seeded set of
# certificates (numpy 2.4.6).  The verify goldens print only each check's
# worst residual, so this is the pin that sees a last-bit change in any branch
# of any certificate.  Qudit cases include a generator whose max index comes
# first.
CERTIFICATE_DIGEST = "fbd88434a01ae8c3de446737e1ba57fb3f97c0849e5049ec8205309d874a775b"


def test_certificate_digest():
    rng = np.random.default_rng(19)
    qutrit = Generator(np.array([-0.3, 0.45, 1.2]), 0, 2)
    ququart = Generator(np.array([1.5, -0.2, 0.7, -0.9]), 3, 0)
    digest = hashlib.sha256()
    for h, n_max in ((H, 12), (qutrit, 7), (ququart, 5), (Generator.number(3), 5)):
        for n in range(2, n_max + 1):
            cert = convert_general_n(h, rng.uniform(0, 2 * math.pi, size=n),
                                     rng.uniform(0, 2 * math.pi))
            digest.update(cert.probabilities.tobytes() + cert.fidelities.tobytes())
    for h, n_max in ((H, 12), (qutrit, 7), (ququart, 5)):
        for n in range(1, n_max + 1):
            w, v = haar_unitary(h.dim, rng), haar_unitary(h.dim, rng)
            _, cert = generalized_strategy_certificate(w, v, h, rng.uniform(0.1, 1.4), n)
            digest.update(cert.probabilities.tobytes() + cert.fidelities.tobytes())
    assert digest.hexdigest() == CERTIFICATE_DIGEST


def _conversion_check(capsys, name="conversion-general-n"):
    code = main(["verify", "--n-max", "4", "--seed", "7"])
    report = json.loads(capsys.readouterr().out)
    return code, {rec["name"]: rec for rec in report["results"]}[name]


def test_verify_conversion_fails_on_a_dropped_phase(capsys, monkeypatch):
    code, rec = _conversion_check(capsys)
    assert code == 0 and rec["pass"]

    def drop_last_phase(h, phis, lam=0.0):
        phis = list(phis)
        return ghz_phase_support(h, phis[:-1] + [0.0], lam)

    monkeypatch.setattr(equivalence, "ghz_phase_support", drop_last_phase)
    code, rec = _conversion_check(capsys)
    assert code == 1 and not rec["pass"]
    assert rec["residual"] > 1e-3


def test_verify_conversion_fails_on_swapped_references(capsys, monkeypatch):
    grade = equivalence._certificate

    def swapped(support, h, n, ref_plus, ref_minus):
        return grade(support, h, n, ref_minus, ref_plus)

    monkeypatch.setattr(equivalence, "_certificate", swapped)
    code, rec = _conversion_check(capsys)
    assert code == 1 and not rec["pass"]
    assert rec["residual"] > 0.5


def test_convert_general_input_validation():
    with pytest.raises(ValueError):
        convert_general_n(H, [0.1], 0.0)
    with pytest.raises(ValueError):
        convert_general_n(H, [0.1] * 13, 0.0)


def test_convert_with_qutrit_generator():
    # extreme levels of a three-level generator behave like the qubit case
    h3 = Generator(np.array([0.0, 0.4, 1.0]), 0, 2)
    cert = convert_general_n(h3, [0.3, 0.8], 0.0)
    assert cert.min_fidelity > 1 - 1e-12
    assert cert.max_prob_error < 1e-12


def test_two_box_block_structure():
    # the tensor product of two diagonal phase boxes leaves the {00, 11}
    # subspace invariant, and its restriction is the product of the boxes
    phi_a, phi_b = 0.6, 1.9
    bar_u = kron(u_phi(H, phi_a), u_phi(H, phi_b))
    sub = np.ix_([0, 3], [0, 3])
    np.testing.assert_allclose(
        bar_u[sub], u_phi(H, phi_a) @ u_phi(H, phi_b), atol=1e-15
    )
    assert np.max(np.abs(bar_u[np.ix_([0, 3], [1, 2])])) == 0.0
    assert np.max(np.abs(bar_u[np.ix_([1, 2], [0, 3])])) == 0.0


def test_antidiagonal_product_also_preserves_subspace():
    anti = np.array([[0, 1], [np.exp(0.4j), 0]])
    bar_u = kron(anti, anti)
    assert np.max(np.abs(bar_u[np.ix_([1, 2], [0, 3])])) == 0.0
    assert np.max(np.abs(bar_u[np.ix_([0, 3], [1, 2])])) == 0.0


# ------------------------------------------------------------ counterexamples

@pytest.mark.parametrize("basis", ["computational", "hadamard"])
def test_counterexample_average_is_maximally_mixed(basis):
    for phi in np.linspace(0.0, math.pi, 50):
        avg = counterexample(basis, phi)
        assert np.max(np.abs(avg - np.eye(2) / 2)) < 1e-12
        assert trace_distance(avg, counterexample(basis, 0.0)) < 1e-12


def test_counterexample_reference_point():
    avg = counterexample("computational", 0.0)
    assert np.max(np.abs(avg - np.eye(2) / 2)) < 1e-12
    assert trace_distance(avg, counterexample("computational", 0.0)) == 0.0


@pytest.mark.parametrize("basis", ["computational", "hadamard"])
def test_counterexample_stack_is_bitwise_per_phase(basis):
    # phases on both sides of 0 and beyond 2 pi, as a flat grid and as a 2-D block
    for seed in range(20):
        phis = np.random.default_rng(seed).uniform(-7.0, 7.0, size=(3, 4))
        stacked = counterexample(basis, phis)
        assert stacked.shape == (3, 4, 2, 2)
        oracle = np.array([[counterexample_per_phase(basis, phi) for phi in row] for row in phis])
        assert stacked.tobytes() == oracle.tobytes()
        flat = counterexample(basis, phis.reshape(-1))
        assert flat.tobytes() == oracle.tobytes()
    for phi in (0.0, 0.4, math.pi, -2.5):
        single = counterexample(basis, phi)
        assert single.shape == (2, 2)
        assert single.tobytes() == counterexample_per_phase(basis, phi).tobytes()


def _record_distribution(phi):
    """Full-record outcome distribution of the hadamard counterexample.

    Independent oracle: equally weighted pure components of the mixture,
    probe-2 then probe-1 measured in the +- basis, probabilities read off the
    evolved two-probe states directly.
    """
    comp_id = normalized(vec(np.eye(2)))
    comp_x = normalized(vec(PAULI_X))
    uu = kron(u_phi(H, phi), u_phi(H, phi))
    probs = []
    for comp in (comp_id, comp_x):
        psi = uu @ comp
        for o1 in (PLUS, MINUS):
            for o2 in (PLUS, MINUS):
                amp = np.vdot(np.kron(o1, o2), psi)
                probs.append(0.5 * abs(amp) ** 2)
    return np.array(probs)


def test_unaveraged_fisher_matches_classical_parallel():
    for phi in (math.pi / 4, 0.3, 1.2):
        fisher, singular = unaveraged_counterexample_fisher(phi)
        assert abs(fisher - 2.0 * cfi_binary(1, phi)) < 1e-9 and singular == 0


def test_unaveraged_fisher_against_finite_difference_oracle():
    phi, step = 0.55, 1e-5
    p0 = _record_distribution(phi)
    dp = (_record_distribution(phi + step) - _record_distribution(phi - step)) / (2 * step)
    mask = p0 > 1e-12
    oracle = float(np.sum(dp[mask] ** 2 / p0[mask]))
    assert abs(oracle - unaveraged_counterexample_fisher(phi)[0]) < 1e-6


def test_unaveraged_fisher_near_zero_phase():
    phi = 1e-3
    fisher, singular = unaveraged_counterexample_fisher(phi)
    assert abs(fisher - 2.0 * cfi_binary(1, phi)) < 1e-9 and singular == 0


def _fisher_check(capsys):
    code = main(["verify", "--n-max", "2", "--seed", "1"])

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    report = json.loads(capsys.readouterr().out, parse_constant=reject)
    return code, {r["name"]: r for r in report["results"]}["counterexample-unaveraged-fisher"]


def test_verify_reports_a_singular_fisher_outcome_as_a_fail(capsys, monkeypatch):
    # A box stuck 1e-9 from the identity under a generator 1000x too steep for
    # it: outcome |+-> of the |00> + |11> component nearly vanishes while its
    # derivative does not, which consistent probabilities cannot do.
    steep = Generator(np.array([0.0, 1e3]), 0, 1)
    with monkeypatch.context() as m:
        m.setattr(equivalence.Generator, "qubit", staticmethod(lambda: steep))
        stuck = np.array([1.0, np.exp(1e-9j)])
        m.setattr(equivalence, "phase_box",
                  lambda h, phis: np.broadcast_to(stuck, np.shape(phis) + stuck.shape))
        code, rec = _fisher_check(capsys)
        assert code == 1 and not rec["pass"] and rec["residual"] >= 1.0
        assert unaveraged_counterexample_fisher(0.3)[1] > 0
    # A singular outcome fails the check even when the Fisher sum is right.
    exact = equivalence.unaveraged_counterexample_fisher
    monkeypatch.setattr(
        equivalence, "unaveraged_counterexample_fisher", lambda phi: (exact(phi)[0], 1)
    )
    code, rec = _fisher_check(capsys)
    assert code == 1 and not rec["pass"] and rec["residual"] == 3.0


def test_averaged_state_carries_no_information():
    # the phi-independent average makes any fixed measurement uninformative
    step = 1e-5
    plus_proj = np.outer(PLUS, PLUS.conj())

    def outcome_prob(phi):
        avg = counterexample("hadamard", phi)
        return float(np.real(np.trace(plus_proj @ avg)))

    dp = (outcome_prob(0.8 + step) - outcome_prob(0.8 - step)) / (2 * step)
    p = outcome_prob(0.8)
    assert dp * dp / (p * (1 - p)) < 1e-12


# ----------------------------------------------------------- noise conversion

def test_effective_channel_identity_case():
    eff, tp = effective_sequential_channel(IDENTITY_CHANNEL, IDENTITY_CHANNEL)
    assert tp
    assert len(eff.ops) == 1
    np.testing.assert_allclose(eff.ops[0], np.eye(2), atol=1e-15)


def test_effective_channel_dephasing_pair():
    eff, tp = effective_sequential_channel(dephasing(0.25), dephasing(0.25))
    assert tp
    assert len(eff.ops) == 4
    assert eff.completeness_residual() < 1e-12


def test_effective_channel_nonunital_second_loses_trace():
    eff, tp = effective_sequential_channel(dephasing(0.25), amplitude_damping(0.3))
    assert not tp
    acc = sum(k.conj().T @ k for k in eff.ops)
    np.testing.assert_allclose(acc, np.diag([1.3, 0.7]), atol=1e-12)


def test_conversion_identity_universal():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        cha = random_cptp_channel(rng, d, int(rng.integers(1, 5)))
        chb = random_cptp_channel(rng, d, int(rng.integers(1, 5)))
        assert noise_conversion_residual(cha, chb) < 1e-12


def test_trace_preservation_iff_second_unital():
    rng = np.random.default_rng(14)
    zoo = [
        IDENTITY_CHANNEL, dephasing(0.3), bit_phase_flip(0.6),
        amplitude_damping(0.2), amplitude_damping(0.9),
        random_cptp_channel(rng, 2, 3), random_cptp_channel(rng, 2, 2),
    ]
    for cha in zoo:
        for chb in zoo:
            _, tp = effective_sequential_channel(cha, chb)
            assert tp == is_unital(chb), (cha, chb)


# --------------------------------------------------------- useful entanglement

def test_useful_entanglement_accepts_diagonal_phase_family():
    assert useful_entanglement_check(np.eye(2), H) == (True, 0.0)
    useful, lam = useful_entanglement_check(np.diag([1.0, np.exp(0.8j)]), H)
    assert useful and abs(lam - 0.8) < 1e-9
    useful, lam = useful_entanglement_check(0.3 * np.diag([1.0, np.exp(-1.1j)]), H)
    assert useful and abs(lam + 1.1) < 1e-9


def test_useful_entanglement_rejects_swap():
    useful, lam = useful_entanglement_check(PAULI_X, H)
    assert not useful and lam is None


def test_useful_entanglement_characterization():
    # over random unitaries, acceptance coincides with the diagonal-equal-
    # modulus structure
    rng = np.random.default_rng(15)
    for _ in range(500):
        e = haar_unitary(2, rng)
        structural = (
            max(abs(e[0, 1]), abs(e[1, 0])) < 1e-10
            and abs(abs(e[0, 0]) - abs(e[1, 1])) < 1e-10
        )
        useful, _ = useful_entanglement_check(e, H)
        assert useful == structural
    # and members of the family are accepted
    for lam in rng.uniform(-math.pi, math.pi, size=5):
        useful, lam_hat = useful_entanglement_check(np.diag([1.0, np.exp(1j * lam)]), H)
        assert useful and abs(lam_hat - lam) < 1e-9


def test_useful_entanglement_grid_matches_per_phase_oracle():
    rng = np.random.default_rng(16)
    seeds = [haar_unitary(2, rng) for _ in range(200)] + [PAULI_X]
    for lam in (0.0, 0.8, -1.3, math.pi):
        phase = np.diag([1.0, np.exp(1j * lam)])
        # off-diagonal eps costs fidelity ~eps^2: 1e-7 sits below the 1e-12
        # threshold, 2e-6 about four times above it
        seeds += [phase, phase + 1e-7 * PAULI_X, phase + 2e-6 * PAULI_X]
    for e in seeds:
        assert useful_entanglement_check(e, H) == useful_entanglement_check_per_phase(e, H)
    phase = np.diag([1.0, np.exp(0.8j)])
    assert useful_entanglement_check(phase + 1e-7 * PAULI_X, H)[0]
    assert useful_entanglement_check(phase + 2e-6 * PAULI_X, H) == (False, None)


def test_useful_entanglement_rejects_unequal_weights():
    useful, _ = useful_entanglement_check(np.diag([1.0, 0.5]), H)
    assert not useful


# --------------------------------------------------------- generalized boxes

def test_generalized_reduces_to_plain_conversion():
    residual, cert = generalized_strategy_certificate(np.eye(2), np.eye(2), H, 0.8, 3)
    plain = convert_general_n(H, [0.8] * 3, 0.0)
    assert residual < 1e-15
    assert cert.min_fidelity > 1 - 1e-12
    assert abs(cert.min_fidelity - plain.min_fidelity) < 1e-12


def test_generalized_sigma_x_case():
    phi = 0.6
    u_prime = np.eye(2) @ u_phi(H, phi) @ PAULI_X
    squared = u_prime @ u_prime
    # naive iteration is proportional to the identity: no phase accumulates
    assert np.max(np.abs(squared / squared[0, 0] - np.eye(2))) < 1e-12
    naive = normalized(squared @ PLUS)
    tracked = normalized(u_phi(H, 2 * phi) @ PLUS)
    assert fidelity_up_to_phase(naive, tracked) < 1 - 1e-3
    # the corrected per-probe operator restores the certificate
    residual, cert = generalized_strategy_certificate(np.eye(2), PAULI_X, H, phi, 2)
    assert residual < 1e-12
    assert cert.min_fidelity > 1 - 1e-12
    assert cert.max_prob_error < 1e-12


def test_generalized_random_unitaries():
    rng = np.random.default_rng(16)
    for n in range(1, 7):
        for _ in range(5):
            w, v = haar_unitary(2, rng), haar_unitary(2, rng)
            residual, cert = generalized_strategy_certificate(w, v, H, rng.uniform(0.1, 1.4), n)
            assert residual < 1e-12
            assert cert.min_fidelity > 1 - 1e-12
            assert cert.max_prob_error < 1e-10
            assert cert.probabilities.size == 2 ** (n - 1)


@pytest.mark.parametrize("h", [
    H,
    Generator(np.array([0.0, 0.5, 1.0]), 0, 2),
    # the max index precedes the min index
    Generator(np.array([0.3, 1.0, -0.7, 0.1]), 2, 1),
], ids=["qubit", "qutrit", "ququart-max-first"])
def test_generalized_single_probe(h):
    eye = np.eye(h.dim)
    residual, cert = generalized_strategy_certificate(eye, eye, h, 0.4, 1)
    assert residual < 1e-15
    assert abs(cert.records[0].probability - 1.0) < 1e-12
    assert cert.min_fidelity > 1 - 1e-12


def test_verify_generalized_fails_on_a_dropped_phase(capsys, monkeypatch):
    code, rec = _conversion_check(capsys, "generalized-strategy")
    assert code == 0 and rec["pass"]

    def drop_last_phase(h, phis, lam=0.0):
        phis = list(phis)
        return ghz_phase_support(h, phis[:-1] + [0.0], lam)

    monkeypatch.setattr(equivalence, "ghz_phase_support", drop_last_phase)
    code, rec = _conversion_check(capsys, "generalized-strategy")
    assert code == 1 and not rec["pass"]
    assert rec["residual"] > 1e-3
    # a single probe is graded too: e^{i phi H}|+> against M|+>
    _, cert = generalized_strategy_certificate(np.eye(2), np.eye(2), H, 0.4, 1)
    assert cert.min_fidelity < 1 - 1e-3


def test_generalized_rejects_nonunitary():
    with pytest.raises(ValueError):
        generalized_strategy_certificate(2 * np.eye(2), np.eye(2), H, 0.1, 2)
