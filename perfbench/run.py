"""metroq benchmark: cold and warm CLI latency, and an outside-in per-module trace.

Run from the root of a metroq checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed list of in-process invocations untraced, then twice traced, and
reports per-module metrics.  Every invocation passes the correctness gate in
gate.py or counts as failed.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gate
import spans
from workloads import COUNTED, WORKLOADS, expected_counts, logical_trials

SETUP_PROBES = 5
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
WORK_DIR = ".bench_work"
CSV_OUT = f"{WORK_DIR}/scaling.csv"
SETUP_CODE = "import metroq.cli; metroq.cli.build_parser()"
P90_MIN_SAMPLES = 100
# SpeedProbe kernel time on the reference host (2-core Xeon) when uncontended.
REFERENCE_PROBE_S = 0.0025
PROBE_EVERY_S = 0.05

# Per-function trace metrics: (metric prefix, span name, reported fields).
FUNCTION_METRICS = (
    ("cli.build_parser", "cli.build_parser", ("self_s",)),
    ("cli.emit", "cli.emit", ("self_s",)),
    ("run_trials", "simulate.run_trials", ("calls", "self_s")),
    ("derive_round_seed", "simulate.derive_round_seed", ("calls", "self_s")),
    ("strategy_success_probability", "simulate.strategy_success_probability", ("calls", "self_s")),
    ("evolve_parallel_entangled", "simulate.evolve_parallel_entangled", ("calls", "self_s")),
    ("estimate_phase", "simulate.estimate_phase", ("calls", "self_s")),
    ("fit_loglog_slope", "simulate.fit_loglog_slope", ("self_s",)),
    ("scaling_experiment", "simulate.scaling_experiment", ("self_s",)),
    ("convert_general_n", "equivalence.convert_general_n", ("calls", "self_s")),
    ("generalized_strategy_certificate", "equivalence.generalized_strategy_certificate",
     ("calls", "self_s")),
    ("counterexample", "equivalence.counterexample", ("self_s",)),
    ("useful_entanglement_check", "equivalence.useful_entanglement_check", ("self_s",)),
    ("noise_conversion_residual", "equivalence.noise_conversion_residual", ("self_s",)),
    ("effective_sequential_channel", "equivalence.effective_sequential_channel", ("self_s",)),
    ("noon_equivalence_certificate", "fock.noon_equivalence_certificate", ("self_s",)),
    ("n0_equivalence_certificate", "fock.n0_equivalence_certificate", ("self_s",)),
    ("fringe", "fock.fringe", ("calls", "self_s")),
    ("optimal_frequency_bound", "information.optimal_frequency_bound", ("calls", "self_s")),
    ("crb", "information.crb", ("calls", "self_s")),
    ("qfi_pure", "information.qfi_pure", ("self_s",)),
    ("apply_on_factor", "linalg.apply_on_factor", ("calls", "self_s")),
    ("fidelity_up_to_phase", "linalg.fidelity_up_to_phase", ("calls", "self_s")),
    ("vec_identity_residual", "linalg.vec_identity_residual", ("calls", "self_s")),
    ("ghz_like", "states.ghz_like", ("calls", "self_s")),
    ("u_phi", "states.u_phi", ("calls",)),
)
FIELD_UNITS = {"calls": "count", "self_s": "s"}


class Bench:
    """One benchmark run against the metroq sources of one checkout."""

    def __init__(self, root: Path, workload, seed: int, spawner):
        self.root = root
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        src = root / "src"
        self.env = child_env(root)
        sys.path.insert(0, str(src))
        import jsonschema
        import metroq.cli

        if not Path(metroq.cli.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"error: imported metroq from {metroq.cli.__file__}, not {src}")
        self.cli = metroq.cli
        schema = json.loads((root / "schema" / "report.json").read_text(encoding="utf-8"))
        self.validator = jsonschema.Draft7Validator(schema)
        self.csv_path = root / CSV_OUT
        self.attempted = 0
        self.failures = Counter()

    def argv(self, i: int) -> list[str]:
        return self.workload.argv(self.seed, i, CSV_OUT)

    def _gate(self, argv, exit_code, stdout):
        csv_text = None
        if argv[0] == "scaling" and self.csv_path.exists():
            csv_text = self.csv_path.read_text(encoding="utf-8")
        self.attempted += 1
        reason = gate.check(argv, exit_code, stdout, csv_text, self.validator)
        if reason is not None:
            self.failures[f"{' '.join(argv[:3])}: {reason}"] += 1

    def spawn(self, args):
        """Run one child interpreter through the spawner; return
        (wall s, cpu s, peak RSS MB, exit code, stdout)."""
        out_path = self.root / WORK_DIR / "child.out"
        request = {"argv": [sys.executable, *args], "stdout": str(out_path)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended unexpectedly")
        r = json.loads(reply)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        return r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024, r["exit_code"], stdout

    def cold(self, argv):
        self.csv_path.unlink(missing_ok=True)
        wall, cpu, rss, code, stdout = self.spawn(["-m", "metroq.cli", *argv])
        self._gate(argv, code, stdout)
        return wall, cpu, rss

    def warm(self, argv):
        """One in-process ``metroq.cli.main(argv)``; returns (wall s, report bytes)."""
        self.csv_path.unlink(missing_ok=True)
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback from the program is a failed invocation
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        stdout = out.getvalue()
        self._gate(argv, code, stdout)
        return wall, len(stdout.encode())

    def setup_probe(self) -> tuple[float]:
        wall, _, _, code, _ = self.spawn(["-c", SETUP_CODE])
        self.attempted += 1
        if code != 0:
            self.failures[f"set-up probe: exit code {code}"] += 1
        return (wall,)

    def warm_up(self):
        for i in range(-len(self.workload.mix), 0):
            self.warm(self.argv(i))

    def import_split(self) -> dict[str, float]:
        """Self seconds of numpy, scipy and metroq module bodies, from
        ``python -X importtime`` in a fresh interpreter (median of probes)."""
        probes = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import metroq.cli"],
                capture_output=True, text=True, env=self.env, cwd=self.root,
                timeout=CHILD_TIMEOUT_S,
            )
            self.attempted += 1
            if proc.returncode != 0:
                self.failures[f"import probe: exit code {proc.returncode}"] += 1
            split = Counter()
            for line in proc.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                self_us, _, module = line[len("import time:"):].split("|")
                package = module.strip().split(".")[0]
                if package in ("numpy", "scipy", "metroq") and self_us.strip().isdigit():
                    split[package] += int(self_us) / 1e6
            probes.append(split)
        return {p: statistics.median(s[p] for s in probes) for p in ("numpy", "scipy", "metroq")}


class SpeedProbe:
    """Scales each timing to the reference host speed, so that contention
    from other tenants of a shared host cancels out.

    A fixed calibration kernel (numpy elementwise work plus interpreted
    Python, the two kinds of work metroq does) runs in a burst after every
    sample, one kernel per PROBE_EVERY_S of the sample's duration.  A
    sample's scale is REFERENCE_PROBE_S over the mean kernel time of the
    bursts just before and just after it; a wall time times its scale is in
    reference seconds, which equal wall seconds at reference speed.
    """

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self._last = None
        self.times = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            int((self._rng.random(200_000) < 0.3).sum())
        total = 0
        for i in range(40_000):
            total += i
        return time.perf_counter() - t0

    def _burst(self, covering_s: float) -> float:
        times = [self._kernel() for _ in range(max(1, round(covering_s / PROBE_EVERY_S)))]
        self.times += times
        return statistics.fmean(times)

    def measure(self, fn, *args):
        """Run fn(*args) between two bursts; return its result and scale."""
        before = self._burst(0) if self._last is None else self._last
        t0 = time.perf_counter()
        result = fn(*args)
        self._last = self._burst(time.perf_counter() - t0)
        return result, REFERENCE_PROBE_S / ((before + self._last) / 2)


def mix_median(samples, value) -> float:
    """Median per command of the mix, averaged over the mix."""
    return statistics.fmean(statistics.median(map(value, kind)) for kind in samples)


def p90_line(name, samples) -> str:
    """Scaled wall-time p90, only when ten samples per command lie beyond it."""
    n = min(map(len, samples))
    if n < P90_MIN_SAMPLES:
        return f"{name:<16} omitted: {n} samples per command < {P90_MIN_SAMPLES}"
    p90 = statistics.fmean(
        statistics.quantiles([s[0][0] * s[1] for s in kind], n=10)[-1] for kind in samples
    )
    return f"{name:<16} {p90:.6f} s"


def end_to_end(bench: Bench, seconds: int):
    """A cold phase with the set-up probes spread through it, then a warm
    phase, each a closed loop over the command mix for half of ``seconds``.

    The warm phase follows its own warm-up directly, so that it measures
    repeated in-process calls rather than the first call after idling.
    """
    speed = SpeedProbe()
    kinds = len(bench.workload.mix)
    setup = []

    def closed_loop(run_one, budget_s, between=None):
        """Invocations until their own wall time reaches budget_s."""
        samples = [[] for _ in range(kinds)]
        spent = 0.0
        i = 0
        while i < kinds or spent < budget_s:
            if between is not None:
                between(spent / budget_s)
            sample = speed.measure(run_one, bench.argv(i))
            spent += sample[0][0]
            samples[i % kinds].append(sample)
            i += 1
        return samples

    def setup_on_schedule(progress):
        if len(setup) < min(SETUP_PROBES, 1 + progress * SETUP_PROBES):
            setup.append(speed.measure(bench.setup_probe))

    cold = closed_loop(bench.cold, seconds / 2, setup_on_schedule)
    while len(setup) < SETUP_PROBES:
        setup.append(speed.measure(bench.setup_probe))
    bench.warm_up()
    warm = closed_loop(bench.warm, seconds / 2)

    def timings(scaled: bool) -> dict[str, float]:
        def value(field):
            return lambda sample: sample[0][field] * (sample[1] if scaled else 1.0)

        return {
            "setup_s": mix_median([setup], value(0)),
            "cold_p50_s": mix_median(cold, value(0)),
            "warm_p50_s": mix_median(warm, value(0)),
            "cpu_p50_s": mix_median(cold, value(1)),
        }

    metrics = {name: (value, "s") for name, value in timings(scaled=True).items()}
    metrics["peak_rss_mb"] = (max(sample[0][2] for kind in cold for sample in kind), "MB")
    warm_s = sum(wall * scale for kind in warm for (wall, _), scale in kind)
    trials = sum(logical_trials(bench.argv(k)) * len(kind) for k, kind in enumerate(warm))
    failed = sum(bench.failures.values())
    lines = [
        f"samples          setup {len(setup)}, cold {sum(map(len, cold))}, "
        f"warm {sum(map(len, warm))}",
        p90_line("cold_p90_s", cold),
        p90_line("warm_p90_s", warm),
        f"trials_per_s     {trials / warm_s:.6g} 1/s" if trials else
        "trials_per_s     n/a: no scaling invocations in this workload",
        f"fail_ratio       {failed / bench.attempted:.6g} ratio ({failed}/{bench.attempted})",
        f"host speed       {REFERENCE_PROBE_S / statistics.median(speed.times):.4f} x reference "
        f"(median of {len(speed.times)} calibration kernels; timings above are scaled to 1)",
        "unscaled         "
        + ", ".join(f"{name} {value:.6f} s" for name, value in timings(scaled=False).items()),
    ]
    return metrics, lines, True


def traced(bench: Bench):
    """Untraced pass, then two traced passes, over the same fixed invocations.

    The list is fixed per workload, not sized by time, so that the traced
    counts repeat exactly from run to run.
    """
    imports = bench.import_split()
    bench.warm_up()
    argvs = [bench.argv(i) for i in range(len(bench.workload.mix) * bench.workload.trace_cycles)]
    t0 = time.perf_counter()
    for argv in argvs:
        bench.warm(argv)
    untraced_s = time.perf_counter() - t0
    rec = spans.Recorder()
    saved = spans.install(rec)
    passes = []
    try:
        for p in range(2):
            rec.reset()
            report_bytes = csv_bytes = 0
            t0 = time.perf_counter()
            for run_id, argv in enumerate(argvs):
                rec.run_id = run_id
                report_bytes += bench.warm(argv)[1]
                if argv[0] == "scaling" and bench.csv_path.exists():
                    csv_bytes += bench.csv_path.stat().st_size
            wall = time.perf_counter() - t0
            calls, self_s = rec.totals()
            counts = Counter(calls)
            counts.update(rec.counters)
            counts["success_inputs"] = len(rec.success_inputs)
            passes.append((wall, counts, self_s, report_bytes, csv_bytes))
            if p == 0:
                rec.write(bench.root / WORK_DIR / f"spans-{bench.workload.name}.tsv")
    finally:
        spans.uninstall(saved)

    wall, counts, self_s, report_bytes, csv_bytes = passes[0]
    expected = expected_counts(argvs)
    count_errors = [
        f"{metric}: traced {counts[key]}, expected {expected[metric]} from the flags"
        for metric, key in COUNTED.items() if counts[key] != expected[metric]
    ]
    if passes[1][1] != counts:
        count_errors.append("counts differ between the two traced passes")

    metrics = {
        "import.numpy_s": (imports["numpy"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.metroq_s": (imports["metroq"], "s"),
        "cli.report_bytes": (report_bytes, "B"),
        "cli.csv_bytes": (csv_bytes, "B"),
        "simulate.draws": (counts["simulate.draws"], "count"),
        "simulate.success_prob.useful_ratio": (
            counts["success_inputs"] / counts["simulate.strategy_success_probability"]
            if counts["simulate.strategy_success_probability"] else 0.0, "ratio"),
        "equivalence.branches": (counts["equivalence.branches"], "count"),
        "channels.calls": (sum(v for k, v in counts.items() if k.startswith("channels.")), "count"),
    }
    for prefix, span, fields in FUNCTION_METRICS:
        for field in fields:
            value = counts[span] if field == "calls" else self_s[span]
            metrics[f"{prefix}.{field}"] = (value, FIELD_UNITS[field])
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(layer + ".")), "s")
    metrics["trace.overhead_ratio"] = (wall / untraced_s, "ratio")
    trials = sum(map(logical_trials, argvs))
    metrics["trials_per_s"] = (trials / untraced_s, "1/s")

    lines = [
        f"samples          {len(argvs)} invocations per pass; untraced {untraced_s:.3f} s, "
        f"traced {wall:.3f} s and {passes[1][0]:.3f} s",
        "count check      " + ("; ".join(count_errors) if count_errors else
                               "traced counts equal the flag-derived counts in both passes"),
    ]
    return metrics, lines, not count_errors


def child_env(root: Path) -> dict[str, str]:
    """The inherited environment, BLAS thread settings included, with the
    checkout's sources first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    return env


def provenance(root: Path, workload: str, seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "commit": git_head(root),
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "workload": workload,
        "seed": seed,
    }


def git_head(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    missing = [p for p in ("src/metroq/cli.py", "schema/report.json") if not (root / p).is_file()]
    if missing:
        print(f"error: run from a metroq checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    (root / WORK_DIR).mkdir(exist_ok=True)

    spawner = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("spawner.py"))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=child_env(root), cwd=root,
    )
    with spawner:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, spawner)
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("provenance " + json.dumps(provenance(root, args.workload, args.seed)))
        # Compile the sources once, so no probe pays for writing bytecode.
        bench.spawn(["-c", SETUP_CODE])
        if args.trace:
            metrics, lines, counts_ok = traced(bench)
        else:
            metrics, lines, counts_ok = end_to_end(bench, args.seconds)
        spawner.stdin.close()

    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:.6g} {unit}")
    for line in lines:
        print(line)
    for reason, n in sorted(bench.failures.items()):
        print(f"FAILED x{n}      {reason}")
    failed = sum(bench.failures.values())
    print(json.dumps({
        "correct": failed == 0 and counts_ok,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
