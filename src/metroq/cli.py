"""Command-line surface: verification suites and experiments with JSON/CSV reports.

Exit codes are a stable contract: 0 all checks passed, 1 at least one check
failed, 2 usage error, 3 I/O error.  Every subcommand is deterministic given
its full flag set; METROQ_SEED provides the default seed, the --seed flag
overrides it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg, states


def _lazy(name: str):
    """The layer metroq.<name>, registered but not yet run: its source is
    compiled and run on the first attribute read, so a command pays only for
    the layers it uses.  The module is in sys.modules and on the package
    from the start, where perfbench's span recorder finds every layer; its
    `vars()` runs it.  A layer imported before this module is returned as is.
    Python 3.11's LazyLoader takes no lock, so a threaded host that could make
    a layer's first read from two threads at once imports the layers first."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# states and linalg load with cli: the flag ranges and the slope bands read
# them.  The layers below load with the first command that reads them.
channels, equivalence, fock, information, simulate = map(
    _lazy, ("channels", "equivalence", "fock", "information", "simulate"))

MAX_NU = 100_000
MAX_ROUNDS = 1_000

# Closed ranges of the numeric flags, by argparse dest.  Every bound is finite
# and a comparison with NaN is false, so NaN and +-inf fall outside them too.
FLAG_RANGES = {
    "n_max": (2, states.MAX_PROBES),
    "n": (1, states.MAX_PROBES),
    "nu": (1, MAX_NU),
    "rounds": (1, MAX_ROUNDS),
    "p": (0.0, 1.0),
    # keeps t* = 1/(N gamma) and bound* = e gamma / sqrt(nu) far from overflow
    "gamma": (1e-100, 1e100),
    # at 0 no check could pass; above 1 a fidelity deficit could never fail
    "tolerance": (1e-300, 1.0),
}

SLOPE_BANDS = {
    states.StrategyKind.SEQUENTIAL: (-1.15, -0.85),
    states.StrategyKind.ENTANGLED_PARALLEL: (-1.15, -0.85),
    states.StrategyKind.CLASSICAL_PARALLEL: (-0.65, -0.35),
}

# --channel's names; cmd_noise maps each to its constructor
CHANNELS = ("amplitudedamping", "bitphaseflip", "dephasing")


@dataclass
class Report:
    """A subcommand's report.  Create it before the work it reports: each
    result's `elapsed_ms` is the time since the previous result was added,
    or since the report was created."""

    command: str
    config: dict
    results: list[dict] = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter, init=False, repr=False)

    def add(self, name: str, key: str, compute: Callable, bound: float | None = None, **extras):
        """Add the result `name`.  With a `bound`, compute() returns the value of
        `key`, which passes below the bound; without, the verdict and the
        fields, `key` among them.  `extras` follow the fields.  One failure
        rule for every result: if compute raises ValueError or RuntimeError,
        or a field holds a non-finite float at any depth of its lists and
        dicts, the result FAILs with that value null and `error` saying why,
        naming a nested value by its path, e.g. rows[2].bound_star."""
        try:
            value = compute()
        except (ValueError, RuntimeError) as exc:
            ok, fields, errors = False, {key: None}, [str(exc)]
        else:
            ok, fields = value if bound is None else (value < bound, {key: value})
            errors = []
            fields = {k: _finite(v, k, errors) for k, v in fields.items()}
        if errors:
            ok, fields = False, {**fields, "error": ", ".join(errors)}
        now = time.perf_counter()
        elapsed_ms = round((now - self._mark) * 1000, 3)
        self._mark = now
        self.results.append(
            {"name": name, "pass": bool(ok), **fields, **extras, "elapsed_ms": elapsed_ms}
        )

    def finish(self, wall_time_ms: int) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "results": self.results,
            "pass": all(r["pass"] for r in self.results),
            "wall_time_ms": wall_time_ms,
        }


def _finite(value, path: str, errors: list):
    """value with every non-finite float in it, at any depth of its lists and
    dicts, replaced by None, and "<path> is not finite: <float>" appended to
    errors for each."""
    if isinstance(value, float) and not math.isfinite(value):
        errors.append(f"{path} is not finite: {value}")
        return None
    if isinstance(value, dict):
        return {k: _finite(v, f"{path}.{k}", errors) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v, f"{path}[{i}]", errors) for i, v in enumerate(value)]
    return value


def _emit(report: dict, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report, indent=2, allow_nan=False))
    else:
        print(f"# {report['command']}")
        for rec in report["results"]:
            detail = " ".join(f"{k}={v}" for k, v in rec.items() if k not in ("name", "pass"))
            print(f"{'PASS' if rec['pass'] else 'FAIL'}  {rec['name']}  {detail}".rstrip())
        print(f"OVERALL: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def _resolve_seed(args, parser) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("METROQ_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            parser.error(f"METROQ_SEED must be an integer, got {env!r}")
    if not 0 <= seed < 2**64:
        parser.error("seed must be a 64-bit unsigned integer")
    return seed


def _parse_strategies(text: str, parser) -> list[states.StrategyKind]:
    names = [name.strip() for name in text.split(",")]
    if not set(names) <= {kind.value for kind in states.StrategyKind}:
        parser.error(f"--strategies entries must be sequential, classical or entangled: {text!r}")
    if len(set(names)) < len(names):
        parser.error(f"--strategies lists a strategy more than once: {text!r}")
    return [states.StrategyKind(name) for name in names]


def _validate(args, parser) -> None:
    """Reject a bad flag with a usage error (exit 2) before any work starts,
    and replace the seed, --n-values and --strategies by their parsed values."""
    flags = vars(args)
    args.seed = _resolve_seed(args, parser)
    for dest, (lo, hi) in FLAG_RANGES.items():
        if dest in flags and not lo <= flags[dest] <= hi:
            parser.error(f"--{dest.replace('_', '-')} must lie in [{lo:g}, {hi:g}]")
    if "n_values" in flags:
        text = args.n_values
        try:
            args.n_values = [int(part) for part in text.split(",")]
        except ValueError:
            parser.error(f"--n-values must be a comma-separated integer list, got {text!r}")
        if not all(1 <= n <= states.MAX_PROBES for n in args.n_values):
            parser.error(f"--n-values entries must lie in 1..{states.MAX_PROBES}, got {text!r}")
        if len(set(args.n_values)) < len(args.n_values):
            parser.error(f"--n-values lists an entry more than once: {text!r}")
    if args.command == "frequency" and len(args.n_values) < 2:
        # the bound's spread over a single N is zero whatever the bound is
        parser.error("--n-values needs at least 2 entries")
    if "strategies" in flags:
        if len(args.n_values) < 3:
            parser.error("--n-values needs at least 3 entries")
        args.strategies = _parse_strategies(args.strategies, parser)


# The check functions below are shared with the acceptance suite, which calls
# them with its own seeds and sample counts.  Each takes (rng, n_max, **params)
# and returns a residual, or a tuple of residuals, that vanishes on success.

def check_vectorization(rng, n_max: int, samples: int) -> float:
    """Worst kron(a,b) vec(c) - vec(a c b^T) over random complex triples, d = 2..8.

    Each sample draws its d and then one (3, 2, d, d) normal block: the real
    and imaginary parts of a, b and c, in that order.  The triples are graded
    one d at a time, each group by one stacked vec_identity_residual call.
    """
    draws = {d: [] for d in range(2, 9)}
    for _ in range(samples):
        d = int(rng.integers(2, 9))
        draws[d].append(rng.standard_normal((3, 2, d, d)))
    residuals = []
    for group in draws.values():
        if group:
            z = np.stack(group)
            a, b, c = (z[:, i, 0] + 1j * z[:, i, 1] for i in range(3))
            residuals.extend(linalg.vec_identity_residual(a, b, c))
    return linalg.worst(residuals)


def _conversion_residuals(certs) -> tuple[float, float, float]:
    """Worst fidelity deficit, branch-probability error and missing-branch
    count, in one pass over every certificate's branches: each probability
    is graded against its own certificate's target 2^-(N-1).  A NaN grade
    makes its residual NaN."""
    certs = list(certs)
    fids = np.concatenate([cert.fidelities for cert in certs])
    probs = np.concatenate([cert.probabilities for cert in certs])
    sizes = [cert.probabilities.size for cert in certs]
    targets = np.repeat([0.5 ** (cert.n_probes - 1) for cert in certs], sizes)
    missing = linalg.worst(abs(size - 2 ** (cert.n_probes - 1))
                           for size, cert in zip(sizes, certs))
    return 1.0 - float(fids.min()), float(np.max(np.abs(probs - targets))), missing


def check_conversion_n2(rng, n_max: int, samples: int) -> tuple[float, float, float]:
    """Two-probe conversion at random phase pairs, drawn as one (samples, 2)
    block: the same doubles, in the same order, as one scalar draw each."""
    return _conversion_residuals(
        equivalence.convert_general_n(states.QUBIT, phis)
        for phis in rng.uniform(0, 2 * math.pi, size=(samples, 2)).tolist()
    )


def check_conversion_general_n(rng, n_max: int, per_n: int) -> tuple[float, float, float]:
    """N-probe conversion at `per_n` random phase vectors for each N in
    2..n_max.  Each N draws one (per_n, N + 1) block, a row holding the N
    phases and then lambda, the order of one draw of N phases and one of
    lambda."""
    return _conversion_residuals(
        equivalence.convert_general_n(states.QUBIT, row[:n], row[n])
        for n in range(2, n_max + 1)
        for row in rng.uniform(0, 2 * math.pi, size=(per_n, n + 1)).tolist()
    )


def check_counterexample(rng, n_max: int, basis: str, grid: int) -> tuple[float, float]:
    """Outcome-averaged single-basis counterexample on a phase grid over [0, pi]:
    worst max-abs entry of the difference from I/2, and worst trace distance
    from the state at phi = 0, the grid's first, which counterexample's stack
    makes bitwise the single-phase one.  The grid is evaluated as one stack."""
    avg = equivalence.counterexample(basis, np.linspace(0.0, math.pi, grid))
    return (float(np.max(np.abs(avg - np.eye(2) / 2))),
            float(np.max(linalg.trace_distance(avg, avg[0]))))


def check_unaveraged_fisher(rng, n_max: int) -> tuple[float, float]:
    """Worst deviation of the record-keeping counterexample's Fisher information
    from the two-probe classical value 2 * cfi_binary(1, phi), and the count of
    singular outcomes (vanishing, with a derivative that does not vanish)."""
    deviations, singular = [], 0
    for phi in (0.3, math.pi / 4, 1.1):
        fisher, vanishing = equivalence.unaveraged_counterexample_fisher(phi)
        deviations.append(abs(fisher - 2.0 * information.cfi_binary(1, phi)))
        singular += vanishing
    return linalg.worst(deviations), float(singular)


def check_useful_entanglement(rng, n_max: int, samples: int) -> float:
    """0.0 when diag(1, e^{i lam}) seeds pass with lam recovered to 1e-9 and
    `samples` Haar-random seeds and sigma_x fail, else 1.0."""
    ok = True
    for lam in (0.0, 0.8, -1.3):
        seed_op = np.diag([1.0, np.exp(1j * lam)])
        useful, lam_hat = equivalence.useful_entanglement_check(seed_op)
        ok = ok and useful and abs(lam_hat - lam) < 1e-9
    rejected = [linalg.haar_unitary(2, rng) for _ in range(samples)] + [states.PAULI_X]
    ok = ok and not any(equivalence.useful_entanglement_check(e)[0] for e in rejected)
    return 0.0 if ok else 1.0


def check_generalized_strategy(rng, n_max: int, per_n: int) -> tuple[float, float]:
    """Boxes W e^{i phi H} V: worst of max|M - e^{i phi H}| and the certificate
    fidelity deficit over `per_n` Haar-random (W, V) at each N in
    1..min(n_max, 6) and V = sigma_x at N = 2, and how far two naive sigma_x
    boxes are from accumulating no phase."""
    residuals = []
    for n in range(1, min(n_max, 6) + 1):
        for _ in range(per_n):
            w, v = linalg.haar_unitary(2, rng), linalg.haar_unitary(2, rng)
            residual, cert = equivalence.generalized_strategy_certificate(
                w, v, states.QUBIT, rng.uniform(0.1, 1.4), n
            )
            residuals += [residual, 1.0 - cert.min_fidelity]
    # With V = sigma_x naive iteration is phase-free; only tracking W, V works.
    phi = 0.6
    box = states.phase_box(states.QUBIT, phi)
    squared = np.linalg.matrix_power(box[:, None] * states.PAULI_X, 2)
    frozen = float(np.max(np.abs(squared / squared[0, 0] - np.eye(2))))
    residual, tracked = equivalence.generalized_strategy_certificate(
        np.eye(2), states.PAULI_X, states.QUBIT, phi, 2
    )
    return linalg.worst([*residuals, residual, 1.0 - tracked.min_fidelity]), frozen


@dataclass(frozen=True)
class Check:
    """A `verify` check: fn(rng, n_max, **params) gives its residuals, and it
    passes when their maximum is below max(--tolerance, floor)."""

    fn: Callable[..., float | tuple[float, ...]]
    params: dict = field(default_factory=dict)
    floor: float = 0.0


# verify runs these in order on one generator seeded by --seed.
CHECKS = {
    "vectorization-identity": Check(check_vectorization, {"samples": 200}),
    "conversion-n2": Check(check_conversion_n2, {"samples": 100}),
    "conversion-general-n": Check(check_conversion_general_n, {"per_n": 5}),
    "counterexample-computational": Check(
        check_counterexample, {"basis": "computational", "grid": 10}
    ),
    "counterexample-hadamard": Check(check_counterexample, {"basis": "hadamard", "grid": 10}),
    "counterexample-unaveraged-fisher": Check(check_unaveraged_fisher, floor=1e-9),
    "useful-entanglement": Check(check_useful_entanglement, {"samples": 10}),
    "generalized-strategy": Check(check_generalized_strategy, {"per_n": 1}),
}


def cmd_verify(args) -> Report:
    config = {"n_max": args.n_max, "tolerance": args.tolerance, "seed": args.seed,
              "format": args.format}
    report = Report("verify", config)
    rng = np.random.default_rng(args.seed)
    for name, check in CHECKS.items():
        tolerance = max(args.tolerance, check.floor)
        residuals = functools.partial(check.fn, rng, args.n_max, **check.params)
        report.add(name, "residual", lambda: linalg.worst(np.ravel(residuals())), tolerance,
                   tolerance=tolerance)
    return report


def cmd_scaling(args) -> Report:
    report = Report(
        "scaling",
        {
            "strategies": [k.value for k in args.strategies],
            "n_values": args.n_values,
            "nu": args.nu,
            "rounds": args.rounds,
            "seed": args.seed,
            "stream_version": simulate.STREAM_VERSION,
            "out": args.out,
            "format": args.format,
        },
    )
    try:
        # Opened before computing, so an unwritable --out fails at once.
        with open(args.out, "w", encoding="utf-8", newline="\n") as out:
            out.write(_scaling_csv(args, report))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {args.out}: {exc}") from exc
    return report


def check_scaling_slope(kind: states.StrategyKind, result: simulate.ScalingReport) -> bool:
    """Whether a strategy's experiment shows its scaling: no round saturated
    and a fitted slope inside the strategy's SLOPE_BANDS interval.  A
    saturated round was clamped to a branch end by fringe inversion, so a
    slope fitted through it is no evidence of the scaling; a null slope (some
    row's RMSE is zero) is none either."""
    lo, hi = SLOPE_BANDS[kind]
    in_regime = not any(row.saturated_rounds for row in result.rows)
    return in_regime and result.fitted_slope is not None and lo <= result.fitted_slope <= hi


def _scaling_csv(args, report: Report) -> str:
    """Run the experiment for each strategy, add its slope check to the
    report and return the CSV text."""
    csv_lines = ["strategy,N,nu,rounds,empirical_rmse,crb,seed"]
    for kind in args.strategies:
        def run():
            result = simulate.scaling_experiment(
                kind, args.n_values, args.nu, args.rounds, args.seed
            )
            for row in result.rows:
                csv_lines.append(
                    f"{kind.value},{row.n},{args.nu},{args.rounds},"
                    f"{float(row.empirical_rmse)!r},{float(row.crb)!r},{args.seed}"
                )
            return check_scaling_slope(kind, result), {
                "fitted_slope": result.fitted_slope,
                "slope_stderr": result.slope_stderr,
                "expected_interval": list(SLOPE_BANDS[kind]),
                "streams": result.streams,
                "draws": result.draws,
                "rows": [
                    {
                        "N": row.n,
                        "empirical_rmse": row.empirical_rmse,
                        "crb": row.crb,
                        "rmse_stderr": simulate.rmse_stderr(row.empirical_rmse, args.rounds),
                        "rmse_over_crb": row.empirical_rmse / row.crb,
                        "saturated_rounds": row.saturated_rounds,
                    }
                    for row in result.rows
                ],
            }

        report.add(f"scaling-{kind.value}", "fitted_slope", run)
    return "\n".join(csv_lines) + "\n"


def check_noise(cha, chb) -> tuple[bool, dict]:
    """Whether the two-probe noise conversion of channels (cha, chb) holds
    (its identity residual is below 1e-12) and its effective sequential
    channel is trace preserving exactly when chb is unital, and the fields:
    chb's unitality and structure flags, the residual and the trace
    preservation."""
    unital = channels.is_unital(chb)
    residual = equivalence.noise_conversion_residual(cha, chb)
    trace_preserving = equivalence.effective_sequential_channel(cha, chb).is_trace_preserving()
    return residual < 1e-12 and trace_preserving == unital, {
        "unital": unital,
        "diag_or_antidiag": channels.is_diag_or_antidiag(chb),
        "eq_residual": residual,
        "trace_preserving": trace_preserving,
        "valid_beyond_n2": channels.each_diag_or_antidiag(chb),
    }


def cmd_noise(args) -> Report:
    report = Report("noise", {"channel": args.channel, "p": args.p, "format": args.format})
    constructor = {
        "amplitudedamping": channels.amplitude_damping,
        "bitphaseflip": channels.bit_phase_flip,
        "dephasing": channels.dephasing,
    }[args.channel]
    channel = constructor(args.p)
    report.add(f"noise-{args.channel}", "eq_residual", lambda: check_noise(channel, channel))
    return report


def check_phase_bound_sqrt_n(n_values, gamma: float, nu: int) -> float:
    """Worst relative distance of the classical/entangled phase-bound ratio
    from sqrt(N) over n_values, at the short time t = 1e-8/(N gamma) where
    dephasing has not yet eroded the entangled advantage.  Scaling t by
    1/(N gamma) keeps every exponent at 1e-8 whatever gamma is."""
    deviations = []
    for n in n_values:
        t = 1e-8 / (n * gamma)
        ratio = information.phase_bound_dephasing(n, gamma, t, nu, entangled=False) / \
            information.phase_bound_dephasing(n, gamma, t, nu, entangled=True)
        deviations.append(abs(ratio - math.sqrt(n)) / math.sqrt(n))
    return linalg.worst(deviations)


def check_frequency_bound(n_values, gamma: float, nu: int) -> tuple[bool, dict]:
    """Whether the optimized frequency bound is N-independent over n_values:
    its relative spread and its worst relative deviation from the closed
    form e gamma / sqrt(nu) both below 1e-6; and the fields: that spread, the
    closed form and the rows (N, t*, bound*)."""
    closed_form = math.e * gamma / math.sqrt(nu)
    rows = []
    for n in n_values:
        t_star, bound_star = information.optimal_frequency_bound(n, gamma, nu)
        rows.append({"N": n, "t_star": t_star, "bound_star": bound_star})
    bounds = [row["bound_star"] for row in rows]
    spread = float(np.ptp(bounds)) / closed_form
    deviation = linalg.worst(abs(b - closed_form) for b in bounds) / closed_form
    return spread < 1e-6 and deviation < 1e-6, {
        "relative_spread": spread, "closed_form": closed_form, "rows": rows,
    }


def cmd_frequency(args) -> Report:
    report = Report(
        "frequency",
        {"gamma": args.gamma, "n_values": args.n_values, "nu": args.nu, "format": args.format},
    )
    report.add("frequency-bound-n-independence", "relative_spread",
               lambda: check_frequency_bound(args.n_values, args.gamma, args.nu))
    report.add("phase-bound-sqrt-n", "relative_deviation",
               lambda: check_phase_bound_sqrt_n(args.n_values, args.gamma, args.nu), 1e-6)
    return report


def check_noon_fringe_zeros(n: int, count: int) -> float:
    """Worst distance of the first `count` NOON fringe zeros, found by
    bisection on the number-difference generator itself, from their closed
    forms pi (2k + 1) / (2n).  The fringe comparisons pass when the qubit
    and bosonic paths share a fault; this analytic anchor does not."""
    zeros = fock.noon_fringe_zeros(n, count)
    return linalg.worst(abs(z - math.pi * (2 * k + 1) / (2 * n)) for k, z in enumerate(zeros))


def cmd_noon(args) -> Report:
    report = Report("noon", {"n": args.n, "format": args.format})
    for name, deviation, bound in (
        ("noon-fringe-equivalence", fock.noon_equivalence_certificate, 1e-12),
        ("n0-fringe-equivalence", fock.n0_equivalence_certificate, 1e-12),
        ("noon-fringe-zeros", functools.partial(check_noon_fringe_zeros, count=1), 1e-9),
    ):
        report.add(name, "max_deviation", functools.partial(deviation, args.n), bound)
    return report


def fisher_table(n_values, nu: int) -> tuple[bool, dict]:
    """Whether QFI(GHZ) = N^2, QFI(product) = N, the CFI at the operating
    phase = N^2 and both Cramer-Rao bounds hold for each N, and the rows."""
    ok = True
    rows = []
    for n in n_values:
        # the whole register: a reference sharing no code with crb's support QFI
        h_total = information.collective_generator(states.QUBIT, n)
        qfi_ghz = information.qfi_pure(states.ghz_like(states.QUBIT, n), h_total)
        product = np.full(2**n, 2 ** (-n / 2), dtype=np.complex128)
        qfi_prod = information.qfi_pure(product, h_total)
        cfi = information.cfi_binary(n, information.operating_phase(n))
        heis = information.crb(states.StrategySpec(states.StrategyKind.ENTANGLED_PARALLEL, n), nu)
        sql = information.crb(states.StrategySpec(states.StrategyKind.CLASSICAL_PARALLEL, n), nu)
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
        ok = ok and abs(heis - 1.0 / (n * math.sqrt(nu))) < 1e-12
        ok = ok and abs(sql - 1.0 / math.sqrt(n * nu)) < 1e-12
    return ok, {"rows": rows}


def cmd_fisher(args) -> Report:
    report = Report("fisher", {"n_values": args.n_values, "nu": args.nu, "format": args.format})
    report.add("fisher-table", "rows", lambda: fisher_table(args.n_values, args.nu))
    return report


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the six subcommands; main parses with one built once
    per process (_parser)."""
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

    p = sub.add_parser("scaling", help="Monte Carlo error-scaling experiment")
    p.add_argument("--strategies", default="sequential,classical,entangled")
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=4000)
    p.add_argument("--rounds", type=int, default=200)
    p.add_argument("--out", default="scaling.csv")
    common(p)

    p = sub.add_parser("noise", help="noise-conversion checks for one channel")
    p.add_argument("--channel", choices=CHANNELS, required=True)
    p.add_argument("--p", type=float, required=True)
    common(p)

    p = sub.add_parser("frequency", help="dephasing frequency-bound optimization")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=1)
    common(p)

    p = sub.add_parser("noon", help="bosonic N0/NOON fringe equivalence")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("fisher", help="Fisher information and precision-bound tables")
    p.add_argument("--n-values", default="1,2,4,8")
    p.add_argument("--nu", type=int, default=1)
    common(p)

    return parser


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`metroq verify | head`).  Point stdout at
        # devnull so that the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed", file=sys.stderr)
        return 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser.  Parsing keeps no state in it: every
    parse_args call fills a new namespace, and _resolve_seed reads
    METROQ_SEED at each call."""
    return build_parser()


def _run(argv) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    _validate(args, parser)
    # looked up at call time, so a cmd_* rebound in this module (a test's
    # monkeypatch, a profiler's wrapper) is the one that runs
    handler = globals()[f"cmd_{args.command}"]
    start = time.perf_counter()
    try:
        report = handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall = int(round((time.perf_counter() - start) * 1000))
    return _emit(report.finish(wall), args.format)


def entrypoint() -> None:
    """Run one command in a cold process: the console script's and
    ``python -m metroq.cli``'s way in.

    Before ``main`` runs, every object alive after import (numpy's modules
    and metroq's cli, states and linalg, their functions, classes and
    constants, some 21 000 objects) moves into the cycle collector's
    permanent generation (``gc.freeze``).  No command leaves cyclic garbage
    among them, yet every collection walks them all: the ones during the
    command, and the full passes the interpreter makes at exit, some 20 ms
    of a cold process.  Objects the command creates stay collectable, and so
    do the layers it loads lazily (see ``_lazy``), some 340 tracked objects
    for all five.  Measured on a shared 2-core host, 15 interleaved cold runs
    per subcommand, the teardown at exit is 10-14 ms median, within about
    1 ms of what it was when every layer loaded before the freeze.

    Only here, because only here is the whole process one command.
    ``import metroq.cli`` and an in-process ``main(argv)`` (a test suite, a
    benchmark's warm loop) leave the host process's collector as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
