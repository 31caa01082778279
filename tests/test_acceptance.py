"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines as they are produced.  Criteria run the CLI's verdict code,
not a restatement of it: 01-04 and 10 `verify`'s checks, 05 `noise`'s check,
06 `fisher`'s table, 07 `scaling`'s slope rule, 08 `frequency`'s two checks
and 09 `noon`'s zero check.  Their seeds, sample counts and extra cases are
their own, and so are the tolerances of checks that return residuals rather
than verdicts.
"""

import math
import time

import numpy as np

from metroq.channels import amplitude_damping, bit_phase_flip, dephasing
from metroq.cli import (
    SLOPE_BANDS,
    check_conversion_general_n,
    check_conversion_n2,
    check_counterexample,
    check_frequency_bound,
    check_generalized_strategy,
    check_noise,
    check_noon_fringe_zeros,
    check_phase_bound_sqrt_n,
    check_scaling_slope,
    check_unaveraged_fisher,
    check_vectorization,
    fisher_table,
)
from metroq.fock import n0_equivalence_certificate, noon_equivalence_certificate
from metroq.information import cfi_binary, crb
from metroq.linalg import worst
from metroq.simulate import rmse_stderr, scaling_experiment
from metroq.states import StrategyKind, StrategySpec

from helpers import random_cptp_channel


def report(number, ok, description):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_vectorization_identity():
    start = time.perf_counter()
    worst = check_vectorization(np.random.default_rng(101), 2, samples=200)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, ok, f"200 random triples, max residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_02_two_probe_conversion():
    start = time.perf_counter()
    fid_deficit, max_prob_err, missing = check_conversion_n2(
        np.random.default_rng(102), 2, samples=100
    )
    min_fid = 1.0 - fid_deficit
    elapsed = time.perf_counter() - start
    ok = min_fid > 1 - 1e-12 and max_prob_err < 1e-12 and missing == 0 and elapsed < 1.0
    report(2, ok, f"100 random pairs, min fidelity {min_fid:.15f}, "
                  f"max prob error {max_prob_err:.3e}, {elapsed:.2f}s")


def test_criterion_03_general_n_conversion():
    start = time.perf_counter()
    fid_deficit, max_prob_err, missing = check_conversion_general_n(
        np.random.default_rng(103), 10, per_n=20
    )
    min_fid = 1.0 - fid_deficit
    elapsed = time.perf_counter() - start
    ok = min_fid > 1 - 1e-12 and max_prob_err < 1e-10 and missing == 0 and elapsed < 30.0
    report(3, ok, f"N=2..10 x20 vectors, min fidelity {min_fid:.15f}, "
                  f"max prob error {max_prob_err:.3e}, {elapsed:.1f}s")


def test_criterion_04_entanglement_necessity():
    entries, distances = zip(*(check_counterexample(None, 2, basis=basis, grid=50)
                               for basis in ("computational", "hadamard")))
    worst_entry, worst_dist = worst(entries), worst(distances)
    worst_fisher, singular = check_unaveraged_fisher(None, 2)
    ok = worst_entry < 1e-12 and worst_dist < 1e-12 and worst_fisher < 1e-9 and singular == 0
    report(4, ok, f"averaged state entry {worst_entry:.3e}, phi-dependence {worst_dist:.3e}, "
                  f"record-keeping Fisher deviation {worst_fisher:.3e}")


def test_criterion_05_noise_conversion():
    # `noise`'s check on 25 random CPTP pairs (d = 2, 3), then on fixed pairs
    # whose second channel is unital and structured, or neither
    rng = np.random.default_rng(105)
    verdicts, residuals = [], []
    for _ in range(25):
        d = int(rng.integers(2, 4))
        cha = random_cptp_channel(rng, d, int(rng.integers(1, 5)))
        chb = random_cptp_channel(rng, d, int(rng.integers(1, 5)))
        verdict, fields = check_noise(cha, chb)
        verdicts.append(verdict)
        residuals.append(fields["eq_residual"])
    residual = worst(residuals)
    flags_ok = True
    for chb, expected in ((dephasing(0.25), True), (bit_phase_flip(0.4), True),
                          (amplitude_damping(0.3), False)):
        verdict, fields = check_noise(dephasing(0.1), chb)
        verdicts.append(verdict)
        flags_ok = flags_ok and fields["unital"] == fields["trace_preserving"] == expected
        flags_ok = flags_ok and fields["diag_or_antidiag"] == expected
    ok = all(verdicts) and flags_ok
    report(5, ok, f"identity residual {residual:.3e}, trace preservation <-> unitality, "
                  f"structure flags match")


def test_criterion_06_fisher_and_crb():
    # fisher's table up to N = 12, and its two CRB forms at three more nu
    ok = fisher_table(range(1, 13), 1)[0]
    ok = ok and all(fisher_table([n], nu)[0] for n, nu in ((4, 100), (8, 50), (2, 7)))
    for n in (1, 2, 4, 8, 12):
        values = [cfi_binary(n, phi) for phi in np.linspace(0.1 / n, (math.pi - 0.1) / n, 20)]
        ok = ok and worst(abs(v - n * n) for v in values) < 1e-9
    for n, nu in ((4, 100), (8, 50), (2, 7)):
        seq = crb(StrategySpec(StrategyKind.SEQUENTIAL, n), nu)
        ok = ok and abs(seq - 1 / (n * math.sqrt(nu))) < 1e-12
    report(6, ok, "QFI(GHZ)=N^2, QFI(product)=N, CFI=N^2 constant, CRB forms reproduced")


def test_criterion_07_error_scaling():
    start = time.perf_counter()
    rounds = 200
    reports = {kind: scaling_experiment(kind, (1, 2, 4, 8), nu=4000, rounds=rounds, seed=42)
               for kind in SLOPE_BANDS}
    slopes_ok = all(check_scaling_slope(kind, result) for kind, result in reports.items())
    ent, seq = reports[StrategyKind.ENTANGLED_PARALLEL], reports[StrategyKind.SEQUENTIAL]
    indistinguishable = True
    for re, rs in zip(ent.rows, seq.rows):
        combined = math.hypot(rmse_stderr(re.empirical_rmse, rounds),
                              rmse_stderr(rs.empirical_rmse, rounds))
        indistinguishable = indistinguishable and (
            abs(re.empirical_rmse - rs.empirical_rmse) < 3 * combined
        )
    elapsed = time.perf_counter() - start
    ok = slopes_ok and indistinguishable and elapsed < 120.0
    slopes = ", ".join(f"{kind.value} {r.fitted_slope:.3f}" for kind, r in reports.items())
    report(7, ok, f"slopes {slopes}; per-N RMSE within 3 SE; {elapsed:.1f}s")


def test_criterion_08_frequency_phase_tradeoff():
    gamma, nu = 1.0, 4
    frequency_ok, fields = check_frequency_bound((1, 2, 4, 8, 16), gamma, nu)
    # phase estimation can run at arbitrarily short times
    phase_ok = check_phase_bound_sqrt_n((2, 4, 8, 16), gamma, nu) < 1e-6
    ok = frequency_ok and phase_ok
    report(8, ok, f"optimized bound N-independent (spread {fields['relative_spread']:.2e}), "
                  f"phase bound keeps sqrt(N) advantage at short t")


def test_criterion_09_bosonic_equivalence():
    certificates = (n0_equivalence_certificate, noon_equivalence_certificate)
    fringe_dev = worst(certificate(n) for n in range(1, 13) for certificate in certificates)
    zero_dev = worst(check_noon_fringe_zeros(n, 3) for n in (1, 3, 8, 12))
    ok = fringe_dev < 1e-12 and zero_dev < 1e-9
    report(9, ok, f"N0/NOON fringe deviation {fringe_dev:.3e}, "
                  f"zeros within {zero_dev:.1e} of pi(2k+1)/(2n)")


def test_criterion_10_generalized_boxes():
    # N = 1..6, four Haar-random (W, V) pairs each, then V = sigma_x at N = 2,
    # where naive iteration provably accumulates no phase.
    # The first residual is the worst of max|M - e^{i phi H}| and the
    # certificate fidelity deficit.
    worst, naive_residual = check_generalized_strategy(
        np.random.default_rng(110), 6, per_n=4
    )
    ok = worst < 1e-12 and naive_residual < 1e-12
    report(10, ok, f"random W,V up to N=6 plus sigma_x case, worst residual {worst:.3e}")
