"""Command-line surface: verification suites and experiments with JSON/CSV reports.

Exit codes are a stable contract: 0 all checks passed, 1 at least one check
failed, 2 usage error, 3 I/O error.  Every subcommand is deterministic given
its full flag set; METROQ_SEED provides the default seed, the --seed flag
overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import equivalence, fock
from .channels import amplitude_damping, bit_phase_flip, dephasing, is_diag_or_antidiag, is_unital
from .information import (
    cfi_binary,
    collective_generator,
    crb,
    operating_phase,
    optimal_frequency_bound,
    qfi_pure,
)
from .linalg import haar_unitary, vec_identity_residual
from .simulate import STREAM_VERSION, ExperimentConfig, rmse_stderr, scaling_experiment
from .states import Generator, PAULI_X, StrategyKind, StrategySpec, ghz_state

MAX_N = 12
MAX_NU = 100_000
MAX_ROUNDS = 1_000

SLOPE_BANDS = {
    StrategyKind.SEQUENTIAL: (-1.15, -0.85),
    StrategyKind.ENTANGLED_PARALLEL: (-1.15, -0.85),
    StrategyKind.GENERALIZED_ENTANGLED: (-1.15, -0.85),
    StrategyKind.CLASSICAL_PARALLEL: (-0.65, -0.35),
}

CHANNELS = {
    "dephasing": dephasing,
    "bitphaseflip": bit_phase_flip,
    "amplitudedamping": amplitude_damping,
}


@dataclass
class Report:
    command: str
    config: dict
    results: list[dict] = field(default_factory=list)

    def add(self, name: str, ok: bool, **extras):
        rec = {"name": name, "pass": bool(ok)}
        rec.update(extras)
        self.results.append(rec)

    def finish(self, wall_time_ms: int) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "pass": all(r["pass"] for r in self.results),
            "wall_time_ms": wall_time_ms,
        }


def _emit(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"# {report['command']}")
        for rec in report["results"]:
            extras = {k: v for k, v in rec.items() if k not in ("name", "pass")}
            detail = " ".join(f"{k}={v}" for k, v in extras.items())
            print(f"{'PASS' if rec['pass'] else 'FAIL'}  {rec['name']}  {detail}".rstrip())
        print(f"OVERALL: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _resolve_seed(args, parser) -> int:
    if args.seed is not None:
        seed = args.seed
    else:
        env = os.environ.get("METROQ_SEED")
        if env is None:
            return 0
        try:
            seed = int(env)
        except ValueError:
            parser.error(f"METROQ_SEED must be an integer, got {env!r}")
    if not 0 <= seed < 2**64:
        parser.error("seed must be a 64-bit unsigned integer")
    return seed


def _parse_int_list(text: str, parser, what: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        parser.error(f"{what} must be a comma-separated integer list, got {text!r}")
    if not values:
        parser.error(f"{what} must not be empty")
    return values


def cmd_verify(args, parser) -> int:
    if not 2 <= args.n_max <= MAX_N:
        parser.error(f"--n-max must lie in 2..{MAX_N}")
    seed = _resolve_seed(args, parser)
    tol = args.tolerance
    rng = np.random.default_rng(seed)
    h = Generator.qubit()
    start = time.perf_counter()
    report = Report(
        "verify",
        {"n_max": args.n_max, "tolerance": tol, "seed": seed, "format": args.format},
    )

    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        mats = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(3)
        ]
        worst = max(worst, vec_identity_residual(*mats))
    report.add("vectorization-identity", worst < tol, residual=worst, tolerance=tol)

    worst_fid = 0.0
    worst_prob = 0.0
    for _ in range(100):
        cert = equivalence.convert_n2(h, rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
        worst_fid = max(worst_fid, 1.0 - cert.min_fidelity)
        worst_prob = max(worst_prob, cert.max_prob_error)
    residual = max(worst_fid, worst_prob)
    report.add("conversion-n2", residual < tol, residual=residual, tolerance=tol)

    worst_fid = 0.0
    worst_prob = 0.0
    for n in range(2, args.n_max + 1):
        for _ in range(5):
            cert = equivalence.convert_general_n(
                h, rng.uniform(0, 2 * math.pi, size=n), rng.uniform(0, 2 * math.pi)
            )
            worst_fid = max(worst_fid, 1.0 - cert.min_fidelity)
            worst_prob = max(worst_prob, cert.max_prob_error)
    residual = max(worst_fid, worst_prob)
    report.add("conversion-general-n", residual < tol, residual=residual, tolerance=tol)

    for basis in ("computational", "hadamard"):
        worst_dev = 0.0
        for phi in np.linspace(0.0, math.pi, 10):
            avg, phi_dep = equivalence.counterexample(basis, phi)
            dev = float(np.max(np.abs(avg - np.eye(2) / 2)))
            worst_dev = max(worst_dev, dev, phi_dep)
        report.add(
            f"counterexample-{basis}", worst_dev < tol, residual=worst_dev, tolerance=tol
        )

    worst_dev = 0.0
    for phi in (0.3, math.pi / 4, 1.1):
        fisher = equivalence.unaveraged_counterexample_fisher("hadamard", phi)
        reference = 2.0 * cfi_binary(1, phi)
        worst_dev = max(worst_dev, abs(fisher - reference))
    report.add(
        "counterexample-unaveraged-fisher", worst_dev < max(tol, 1e-9),
        residual=worst_dev, tolerance=max(tol, 1e-9),
    )

    ok = True
    for lam in (0.0, 0.8, -1.3):
        useful, lam_hat = equivalence.useful_entanglement_check(
            np.diag([1.0, np.exp(1j * lam)]), h
        )
        ok = ok and useful and abs(lam_hat - lam) < 1e-9
    for _ in range(10):
        useful, _ = equivalence.useful_entanglement_check(haar_unitary(2, rng), h)
        ok = ok and not useful
    ok = ok and not equivalence.useful_entanglement_check(PAULI_X, h)[0]
    report.add("useful-entanglement", ok, residual=0.0 if ok else 1.0, tolerance=tol)

    worst_fid = 0.0
    cases = [(np.eye(2), PAULI_X, 2)]
    for _ in range(3):
        cases.append((haar_unitary(2, rng), haar_unitary(2, rng), min(args.n_max, 6)))
    for w, v, n in cases:
        cert = equivalence.generalized_strategy_certificate(w, v, h, rng.uniform(0.1, 1.5), n)
        worst_fid = max(worst_fid, 1.0 - cert.min_fidelity)
    report.add("generalized-strategy", worst_fid < tol, residual=worst_fid, tolerance=tol)

    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def cmd_scaling(args, parser) -> int:
    n_values = _parse_int_list(args.n_values, parser, "--n-values")
    if len(set(n_values)) < 3:
        parser.error("--n-values needs at least 3 distinct entries")
    if max(n_values) > MAX_N or min(n_values) < 1:
        parser.error(f"--n-values entries must lie in 1..{MAX_N}")
    if not 1 <= args.nu <= MAX_NU:
        parser.error(f"--nu must lie in 1..{MAX_NU}")
    if not 1 <= args.rounds <= MAX_ROUNDS:
        parser.error(f"--rounds must lie in 1..{MAX_ROUNDS}")
    kinds = []
    for name in args.strategies.split(","):
        name = name.strip()
        try:
            kind = StrategyKind(name)
        except ValueError:
            parser.error(f"unknown strategy {name!r}")
        if kind in kinds:
            parser.error(f"strategy {name!r} is listed more than once")
        kinds.append(kind)
    if StrategyKind.GENERALIZED_ENTANGLED in kinds:
        parser.error("scaling runs the sequential, classical and entangled strategies")
    seed = _resolve_seed(args, parser)
    # Open the CSV before computing, so an unwritable --out fails at once.
    try:
        out = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        return _csv_error(args.out, exc)
    with out:
        return _run_scaling(args, kinds, n_values, seed, out)


def _csv_error(path: str, exc: OSError) -> int:
    print(f"error: cannot write CSV to {path}: {exc}", file=sys.stderr)
    return 3


def _run_scaling(args, kinds, n_values, seed, out) -> int:
    start = time.perf_counter()
    report = Report(
        "scaling",
        {
            "strategies": [k.value for k in kinds],
            "n_values": n_values,
            "nu": args.nu,
            "rounds": args.rounds,
            "seed": seed,
            "stream_version": STREAM_VERSION,
            "out": args.out,
            "format": args.format,
        },
    )

    csv_lines = ["strategy,N,nu,rounds,empirical_rmse,crb,seed"]
    for kind in kinds:
        cfg = ExperimentConfig(
            strategy=StrategySpec(kind=kind, n_probes=max(n_values)),
            nu=args.nu,
            seed=seed,
            n_values=tuple(n_values),
            rounds=args.rounds,
        )
        result = scaling_experiment(cfg)
        for row in result.rows:
            csv_lines.append(
                f"{row.strategy},{row.n},{row.nu},{row.rounds},"
                f"{float(row.empirical_rmse)!r},{float(row.crb)!r},{row.seed}"
            )
        lo, hi = SLOPE_BANDS[kind]
        report.add(
            f"scaling-{kind.value}",
            lo <= result.fitted_slope <= hi,
            fitted_slope=result.fitted_slope,
            slope_stderr=result.slope_stderr,
            expected_interval=[lo, hi],
            rows=[
                {
                    "N": row.n,
                    "empirical_rmse": row.empirical_rmse,
                    "crb": row.crb,
                    "rmse_stderr": rmse_stderr(row.empirical_rmse, row.rounds),
                }
                for row in result.rows
            ],
        )

    try:
        out.write("\n".join(csv_lines) + "\n")
        out.flush()
    except OSError as exc:
        return _csv_error(args.out, exc)

    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def cmd_noise(args, parser) -> int:
    if not 0.0 <= args.p <= 1.0:
        parser.error("--p must lie in [0, 1]")
    start = time.perf_counter()
    channel = CHANNELS[args.channel](args.p)
    unital = is_unital(channel)
    structured = is_diag_or_antidiag(channel)
    residual = equivalence.noise_conversion_residual(channel, channel)
    _, trace_preserving = equivalence.effective_sequential_channel(channel, channel)
    report = Report("noise", {"channel": args.channel, "p": args.p, "format": args.format})
    report.add(
        f"noise-{args.channel}",
        residual < 1e-12 and trace_preserving == unital,
        unital=unital,
        diag_or_antidiag=structured,
        eq_residual=residual,
        trace_preserving=trace_preserving,
        valid_beyond_n2=equivalence.noisy_conversion_valid_beyond_n2(channel, channel),
    )
    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def cmd_frequency(args, parser) -> int:
    n_values = _parse_int_list(args.n_values, parser, "--n-values")
    if min(n_values) < 1:
        parser.error("--n-values entries must be >= 1")
    if args.gamma <= 0:
        parser.error("--gamma must be positive")
    if args.nu < 1:
        parser.error("--nu must be >= 1")
    start = time.perf_counter()
    report = Report(
        "frequency",
        {"gamma": args.gamma, "n_values": n_values, "nu": args.nu, "format": args.format},
    )
    closed_form = math.e * args.gamma / math.sqrt(args.nu)
    rows = []
    bounds = []
    for n in n_values:
        t_star, bound_star = optimal_frequency_bound(n, args.gamma, args.nu)
        rows.append({"N": n, "t_star": t_star, "bound_star": bound_star})
        bounds.append(bound_star)
    spread = (max(bounds) - min(bounds)) / closed_form
    deviation = max(abs(b - closed_form) for b in bounds) / closed_form
    report.add(
        "frequency-bound-n-independence",
        spread < 1e-6 and deviation < 1e-6,
        relative_spread=spread,
        closed_form=closed_form,
        rows=rows,
    )
    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def cmd_noon(args, parser) -> int:
    if not 1 <= args.n <= MAX_N:
        parser.error(f"--n must lie in 1..{MAX_N}")
    start = time.perf_counter()
    noon_dev = fock.noon_equivalence_certificate(args.n)
    n0_dev = fock.n0_equivalence_certificate(args.n)
    report = Report("noon", {"n": args.n, "format": args.format})
    report.add("noon-fringe-equivalence", noon_dev < 1e-12, max_deviation=noon_dev)
    report.add("n0-fringe-equivalence", n0_dev < 1e-12, max_deviation=n0_dev)
    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def cmd_fisher(args, parser) -> int:
    n_values = _parse_int_list(args.n_values, parser, "--n-values")
    if max(n_values) > MAX_N or min(n_values) < 1:
        parser.error(f"--n-values entries must lie in 1..{MAX_N}")
    if args.nu < 1:
        parser.error("--nu must be >= 1")
    start = time.perf_counter()
    h = Generator.qubit()
    report = Report("fisher", {"n_values": n_values, "nu": args.nu, "format": args.format})
    ok = True
    rows = []
    for n in n_values:
        h_total = collective_generator(h, n)
        qfi_ghz = qfi_pure(ghz_state(n), h_total)
        product = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
        qfi_prod = qfi_pure(product, h_total)
        cfi = cfi_binary(n, operating_phase(n))
        heis = crb(StrategySpec(StrategyKind.ENTANGLED_PARALLEL, n), args.nu).bound
        sql = crb(StrategySpec(StrategyKind.CLASSICAL_PARALLEL, n), args.nu).bound
        rows.append(
            {
                "N": n,
                "qfi_ghz": qfi_ghz,
                "qfi_product": qfi_prod,
                "cfi_binary": cfi,
                "crb_entangled": heis,
                "crb_classical": sql,
            }
        )
        ok = ok and abs(qfi_ghz - n * n) < 1e-10 and abs(qfi_prod - n) < 1e-10
        ok = ok and abs(cfi - n * n) < 1e-9
        ok = ok and abs(heis - 1.0 / (n * math.sqrt(args.nu))) < 1e-12
        ok = ok and abs(sql - 1.0 / math.sqrt(n * args.nu)) < 1e-12
    report.add("fisher-table", ok, rows=rows)
    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metroq",
        description="Verification suites and Monte Carlo experiments for "
        "sequential vs parallel phase-estimation strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: METROQ_SEED env var, else 0)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="run the conversion certificate suite")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-12)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scaling", help="Monte Carlo error-scaling experiment")
    p.add_argument("--strategies", default="sequential,classical,entangled")
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=4000)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--out", default="scaling.csv")
    common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("noise", help="noise-conversion checks for one channel")
    p.add_argument("--channel", choices=sorted(CHANNELS), required=True)
    p.add_argument("--p", type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("frequency", help="dephasing frequency-bound optimization")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_frequency)

    p = sub.add_parser("noon", help="bosonic N0/NOON fringe equivalence")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_noon)

    p = sub.add_parser("fisher", help="Fisher information and precision-bound tables")
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_fisher)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
