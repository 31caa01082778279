import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from metroq import cli, equivalence, fock, information, linalg, simulate, states
from metroq.cli import main
from metroq.states import Generator, phase_box, plus_minus_states

from helpers import (
    BLAS_THREAD_VARS,
    check_counterexample_per_phase,
    check_vectorization_six_draws,
    child_env,
)

SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schema" / "report.json").read_text())


def strict_json(text):
    """Parse a report, rejecting the non-standard constants NaN and Infinity
    that json.loads accepts by default."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    report = strict_json(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def strip_timing(report):
    """The report without its wall time and the per-check `elapsed_ms`."""
    stripped = {k: v for k, v in report.items() if k != "wall_time_ms"}
    stripped["results"] = [
        {k: v for k, v in rec.items() if k != "elapsed_ms"} for rec in report["results"]
    ]
    return stripped


def test_verify_passes_and_validates(capsys):
    code, report = run_json(capsys, ["verify", "--n-max", "6", "--seed", "7"])
    assert code == 0
    assert report["pass"] is True
    names = {r["name"] for r in report["results"]}
    assert {"vectorization-identity", "conversion-n2", "conversion-general-n",
            "counterexample-computational", "counterexample-hadamard",
            "counterexample-unaveraged-fisher", "useful-entanglement",
            "generalized-strategy"} <= names


def test_verify_rejects_oversized_n(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max", "20"])
    assert err.value.code == 2


def test_verify_unreachable_tolerance_fails(capsys):
    code, report = run_json(
        capsys, ["verify", "--n-max", "4", "--seed", "7", "--tolerance", "1e-30"]
    )
    assert code == 1
    assert report["pass"] is False
    for rec in report["results"]:
        assert "residual" in rec or rec["name"] == "useful-entanglement"


def test_verify_text_format(capsys):
    code, out = run_cli(capsys, ["verify", "--n-max", "4", "--seed", "7", "--format", "text"])
    assert code == 0
    assert "OVERALL: PASS" in out


def test_verify_deterministic(capsys):
    _, first = run_json(capsys, ["verify", "--n-max", "5", "--seed", "3"])
    _, second = run_json(capsys, ["verify", "--n-max", "5", "--seed", "3"])
    assert strip_timing(first) == strip_timing(second)


# one argv per subcommand, with the number of results its report holds
RESULT_COUNTS = {
    ("verify", "--n-max", "4", "--seed", "7"): len(cli.CHECKS),
    ("scaling", "--nu", "200", "--rounds", "20", "--seed", "1"): 3,
    ("noise", "--channel", "dephasing", "--p", "0.25"): 1,
    ("frequency", "--gamma", "1"): 2,
    ("noon", "--n", "4"): 3,
    ("fisher",): 1,
}


@pytest.mark.parametrize("argv", RESULT_COUNTS, ids=lambda argv: argv[0])
def test_every_result_reports_elapsed_ms(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # scaling writes its CSV to the relative --out
    _, report = run_json(capsys, list(argv))
    elapsed = [rec["elapsed_ms"] for rec in report["results"]]
    assert len(elapsed) == RESULT_COUNTS[argv]
    assert all(isinstance(ms, float) and ms >= 0 and ms == round(ms, 3) for ms in elapsed)
    assert sum(elapsed) <= report["wall_time_ms"] + 1


def test_check_vectorization_matches_six_draw_loop():
    # same draws, same worst residual, same generator state afterwards
    for seed in range(30):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        worst = cli.check_vectorization(rng, 2, samples=60)
        expected = check_vectorization_six_draws(oracle_rng, 2, samples=60)
        assert worst == expected
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("basis", ["computational", "hadamard"])
@pytest.mark.parametrize("grid", [1, 10, 50])
def test_check_counterexample_matches_per_phase_loop(basis, grid):
    assert cli.check_counterexample(None, 2, basis=basis, grid=grid) == \
        check_counterexample_per_phase(basis, grid)


def test_verify_counterexample_fails_without_the_minus_projector(capsys, monkeypatch):
    # Mutant: the - projector is skipped and the + one applied twice, so the
    # "average" is the + outcome's conditional state (still of trace 1).  For
    # the hadamard-correlated state it moves with phi.
    real = equivalence.counterexample
    plus, _ = plus_minus_states(Generator.qubit())

    def plus_outcome_only(basis, phis):
        with monkeypatch.context() as m:
            m.setattr(equivalence, "plus_minus_states", lambda h: (plus, plus))
            return real(basis, phis)

    monkeypatch.setattr(equivalence, "counterexample", plus_outcome_only)
    code, report = run_json(capsys, ["verify", "--n-max", "4", "--seed", "7"])
    verdicts = {rec["name"]: rec for rec in report["results"]}
    assert code == 1 and report["pass"] is False
    assert not verdicts["counterexample-hadamard"]["pass"]
    assert verdicts["counterexample-hadamard"]["residual"] > 0.1
    assert verdicts["conversion-general-n"]["pass"]


def test_verify_reports_a_raising_check_as_fail(capsys, monkeypatch):
    # Mutant: the - projector is dropped, so the outcome "average" loses trace
    # and counterexample's density-matrix guard raises a ValueError inside
    # the check.
    real = equivalence.counterexample
    plus, _ = plus_minus_states(Generator.qubit())

    def plus_projector_only(basis, phis):
        with monkeypatch.context() as m:
            m.setattr(equivalence, "plus_minus_states", lambda h: (plus,))
            return real(basis, phis)

    monkeypatch.setattr(equivalence, "counterexample", plus_projector_only)
    # main returns instead of raising: no traceback
    code, out = run_cli(capsys, ["verify", "--n-max", "4", "--seed", "7"])

    report = strict_json(out)
    jsonschema.validate(report, SCHEMA)
    verdicts = {rec["name"]: rec for rec in report["results"]}
    assert code == 1 and report["pass"] is False
    for basis in ("computational", "hadamard"):
        rec = verdicts[f"counterexample-{basis}"]
        assert rec["pass"] is False and rec["residual"] is None
        assert "density matrix" in rec["error"]
    assert verdicts["conversion-general-n"]["pass"]


def test_closed_stdout_exits_3_without_traceback():
    # `metroq verify | head -c 10`: the reader is gone before the report is written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from metroq.cli import entrypoint; entrypoint()",
             "verify", "--n-max", "2"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            env=child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr


def _cold_cli(*argv):
    """One cold `python -m metroq.cli` process: through entrypoint, as the
    console script runs."""
    return subprocess.run([sys.executable, "-m", "metroq.cli", *argv], capture_output=True,
                          text=True, timeout=60, env=child_env())


def test_cold_usage_error_exits_2_without_traceback():
    proc = _cold_cli("verify", "--n-max", "13")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--n-max must lie in [2, 12]" in proc.stderr
    assert proc.stdout == ""


def test_cold_unwritable_out_exits_3_without_traceback(tmp_path):
    proc = _cold_cli(*SCALING_ARGS, "--out", str(tmp_path / "missing-dir" / "x.csv"))
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot write CSV" in proc.stderr
    assert proc.stdout == ""


def test_seed_env_default(capsys, monkeypatch):
    monkeypatch.setenv("METROQ_SEED", "3")
    _, via_env = run_json(capsys, ["verify", "--n-max", "4"])
    monkeypatch.delenv("METROQ_SEED")
    _, via_flag = run_json(capsys, ["verify", "--n-max", "4", "--seed", "3"])
    assert strip_timing(via_env) == strip_timing(via_flag)
    # the flag overrides the environment
    monkeypatch.setenv("METROQ_SEED", "99")
    _, overridden = run_json(capsys, ["verify", "--n-max", "4", "--seed", "3"])
    assert strip_timing(overridden) == strip_timing(via_flag)


def test_seed_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("METROQ_SEED", "not-a-number")
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max", "4"])
    assert err.value.code == 2


def test_one_parser_per_process_reads_seed_and_handler_at_call_time(capsys, monkeypatch):
    build = cli.build_parser
    assert build() is not build()  # still a new parser per call
    builds = []

    def counting_build():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    seeds = []
    for env in ("5", "6"):
        monkeypatch.setenv("METROQ_SEED", env)
        _, report = run_json(capsys, ["verify", "--n-max", "2"])
        seeds.append(report["config"]["seed"])
    assert seeds == [5, 6]

    # a handler rebound after the parser was built is the one that runs, as
    # perfbench's span wrappers of cli.cmd_* are
    def patched_noon(args):
        report = cli.Report("noon", {"n": args.n, "format": args.format})
        report.add("patched", "value", lambda: (True, {}))
        return report

    monkeypatch.setattr(cli, "cmd_noon", patched_noon)
    code, out = run_cli(capsys, ["noon", "--n", "2"])
    assert code == 0 and [rec["name"] for rec in json.loads(out)["results"]] == ["patched"]
    assert len(builds) == 1


def test_negative_seed_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--n-max", "4", "--seed", "-1"])
    assert err.value.code == 2


SCALING_ARGS = [
    "scaling", "--strategies", "entangled,classical",
    "--n-values", "1,2,4,8", "--nu", "1000", "--rounds", "100", "--seed", "7",
]


def test_scaling_csv_and_slopes(capsys, tmp_path):
    out_csv = tmp_path / "scaling.csv"
    code, report = run_json(capsys, SCALING_ARGS + ["--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "strategy,N,nu,rounds,empirical_rmse,crb,seed"
    assert len(lines) == 1 + 2 * 4
    by_name = {r["name"]: r for r in report["results"]}
    assert -1.15 <= by_name["scaling-entangled"]["fitted_slope"] <= -0.85
    assert -0.65 <= by_name["scaling-classical"]["fitted_slope"] <= -0.35
    assert "slope_stderr" in by_name["scaling-entangled"]
    assert report["config"]["stream_version"] == 2


def test_scaling_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_json(capsys, SCALING_ARGS + ["--out", str(a)])
    run_json(capsys, SCALING_ARGS + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_scaling_unwritable_path(capsys, tmp_path, monkeypatch):
    # --out is opened before any computing, so the experiment never runs.
    def must_not_run(*args):
        raise AssertionError("scaling_experiment ran before --out was checked")

    monkeypatch.setattr(simulate, "scaling_experiment", must_not_run)
    code = main(SCALING_ARGS + ["--out", str(tmp_path / "missing-dir" / "x.csv")])
    assert code == 3
    assert "cannot write CSV" in capsys.readouterr().err


def test_scaling_rejects_repeated_strategies(capsys, tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--strategies", "entangled,entangled",
              "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--strategies", "classical, sequential,classical",
              "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


def test_scaling_strategies_draw_independent_streams(capsys, tmp_path):
    # Sequential and entangled share p at every N; only the stream tells them apart.
    out_csv = tmp_path / "scaling.csv"
    code, _ = run_json(capsys, [
        "scaling", "--strategies", "sequential,entangled", "--n-values", "1,2,4",
        "--nu", "200", "--rounds", "20", "--seed", "42", "--out", str(out_csv),
    ])
    assert code in (0, 1)
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    rmse = {(row[0], row[1]): row[4] for row in rows}
    for n in ("1", "2", "4"):
        assert rmse[("sequential", n)] != rmse[("entangled", n)]


def test_scaling_zero_rmse_is_a_fail(capsys, tmp_path):
    # At nu = 2 one round can estimate phi exactly at every N; the log-log fit
    # is then undefined, which is a FAIL with a null slope, not a crash.
    out_csv = tmp_path / "scaling.csv"
    code, report = run_json(capsys, [
        "scaling", "--strategies", "sequential", "--n-values", "1,2,3",
        "--nu", "2", "--rounds", "1", "--seed", "0", "--out", str(out_csv),
    ])
    assert code == 1
    rec = report["results"][0]
    assert rec["pass"] is False
    assert rec["fitted_slope"] is None and rec["slope_stderr"] is None
    assert 0.0 in [row["empirical_rmse"] for row in rec["rows"]]
    assert len(out_csv.read_text().splitlines()) == 4


def test_scaling_saturated_rounds_fail(capsys, tmp_path):
    # At nu = 1 every N = 1 count is 0 or 1, which fringe inversion clamps to a
    # branch end; sequential and entangled would otherwise fit a slope of -1.0.
    code, report = run_json(capsys, [
        "scaling", "--nu", "1", "--rounds", "1", "--seed", "0",
        "--out", str(tmp_path / "scaling.csv"),
    ])
    assert code == 1
    assert [r["name"] for r in report["results"]] == [
        "scaling-sequential", "scaling-classical", "scaling-entangled"]
    for rec in report["results"]:
        assert rec["pass"] is False
        assert rec["rows"][0]["saturated_rounds"] == 1


def test_scaling_reports_a_raising_experiment_as_fail(capsys, tmp_path, monkeypatch):
    # Mutant: p scaled by 1.03 and left unclamped.  The classical p at N = 12
    # is then about 1.0256, which run_trials rejects with a ValueError.
    real = simulate.strategy_success_probability
    monkeypatch.setattr(simulate, "strategy_success_probability",
                        lambda strategy, phi: 1.03 * real(strategy, phi))
    out_csv = tmp_path / "scaling.csv"
    # main returns instead of raising: no traceback
    code, out = run_cli(capsys, [
        "scaling", "--strategies", "classical,entangled", "--n-values", "1,2,12",
        "--nu", "100", "--rounds", "5", "--out", str(out_csv),
    ])

    report = strict_json(out)
    jsonschema.validate(report, SCHEMA)
    classical, entangled = report["results"]
    assert code == 1 and report["pass"] is False
    assert classical["name"] == "scaling-classical" and classical["pass"] is False
    assert classical["fitted_slope"] is None
    assert classical["error"] == "p must lie in [0, 1]"
    assert entangled["name"] == "scaling-entangled"
    assert [row["N"] for row in entangled["rows"]] == [1, 2, 12]
    rows = [line.split(",") for line in out_csv.read_text().splitlines()[1:]]
    assert [(row[0], row[1]) for row in rows] == [("entangled", "1"), ("entangled", "2"),
                                                 ("entangled", "12")]


# sha256 of the scaling CSV at fixed flags (numpy 2.4.6).  The digests belong
# to stream_version 2: a deliberate change of the random stream updates them
# together with simulate.STREAM_VERSION.  The second config's N = 6 row draws
# at p = 1/2 up to roundoff, where numpy's binomial mirrors every count under
# a last-bit change of p.
CSV_DIGESTS = [
    (["--strategies", "sequential,classical,entangled", "--n-values", "1,2,4,8",
      "--nu", "4000", "--rounds", "200", "--seed", "42"],
     "e44ed523675cef7a16706a49e640c14a2413ee4b2096087d70b3e9856c51da15"),
    (["--strategies", "entangled", "--n-values", "1,2,6", "--nu", "4000", "--rounds", "20",
      "--seed", "5"],
     "35dad0dda1d069b89f6804c431b89a675bc93f3f75a0d4771ac950795e246eea"),
    (["--strategies", "sequential,classical,entangled", "--n-values", "1,2,4,8,12",
      "--nu", "100000", "--rounds", "100", "--seed", "42"],
     "bc9c9ae4bc281c7b9c927aa5127893287d1d21703a9cc42b046cc3961a766332"),
]


@pytest.mark.parametrize("flags, digest", CSV_DIGESTS)
def test_scaling_csv_digest(capsys, tmp_path, flags, digest):
    out_csv = tmp_path / "scaling.csv"
    code, report = run_json(capsys, ["scaling", *flags, "--out", str(out_csv)])
    assert code == 0
    assert report["config"]["stream_version"] == 2
    for rec in report["results"]:
        assert all(row["saturated_rounds"] == 0 for row in rec["rows"])
        assert all(row["rmse_over_crb"] > 0 for row in rec["rows"])
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest


def test_scaling_needs_three_sizes(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--n-values", "1,2"])
    assert err.value.code == 2


def test_scaling_caps(capsys):
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--nu", "1000000"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--rounds", "5000"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--n-values", "1,2,4,16"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["scaling", "--strategies", "warp"])
    assert err.value.code == 2


def test_noise_reports(capsys):
    code, report = run_json(capsys, ["noise", "--channel", "dephasing", "--p", "0.25"])
    assert code == 0
    rec = report["results"][0]
    assert rec["unital"] and rec["diag_or_antidiag"] and rec["trace_preserving"]
    assert rec["eq_residual"] < 1e-12
    assert rec["valid_beyond_n2"] is True

    code, report = run_json(capsys, ["noise", "--channel", "amplitudedamping", "--p", "0.3"])
    assert code == 0  # the unitality <-> trace-preservation metacheck still holds
    rec = report["results"][0]
    assert not rec["unital"] and not rec["trace_preserving"]
    assert not rec["diag_or_antidiag"]

    code, report = run_json(capsys, ["noise", "--channel", "bitphaseflip", "--p", "0.4"])
    assert report["results"][0]["diag_or_antidiag"] is True

    with pytest.raises(SystemExit) as err:
        main(["noise", "--channel", "dephasing", "--p", "1.5"])
    assert err.value.code == 2


def test_noise_residual_defect_is_a_fail_not_a_traceback(capsys, monkeypatch):
    # The conversion identity is checked once, by the noise check itself.
    monkeypatch.setattr("metroq.equivalence.noise_conversion_residual", lambda cha, chb: 1e-6)
    code = main(["noise", "--channel", "dephasing", "--p", "0.25"])
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert code == 1
    rec = json.loads(captured.out)["results"][0]
    assert rec["pass"] is False and rec["eq_residual"] == 1e-6


def test_frequency_reports_constant_bound(capsys):
    code, report = run_json(
        capsys, ["frequency", "--gamma", "1.0", "--n-values", "1,2,4,8", "--nu", "1"]
    )
    assert code == 0
    rec = report["results"][0]
    assert rec["relative_spread"] < 1e-6
    assert abs(rec["closed_form"] - math.e) < 1e-12
    for row in rec["rows"]:
        assert abs(row["bound_star"] - math.e) < 1e-5
        assert abs(row["t_star"] - 1.0 / row["N"]) < 1e-6

    with pytest.raises(SystemExit) as err:
        main(["frequency", "--gamma", "-1"])
    assert err.value.code == 2


def test_frequency_fails_when_the_bound_depends_on_n(capsys, monkeypatch):
    real = information.optimal_frequency_bound

    def n_dependent(n, gamma, nu):
        t_star, bound = real(n, gamma, nu)
        return t_star, bound * (1 + 1e-5 * n)

    monkeypatch.setattr(information, "optimal_frequency_bound", n_dependent)
    code, report = run_json(capsys, ["frequency", "--gamma", "1.0"])
    assert code == 1 and report["pass"] is False


@pytest.mark.parametrize("gamma", ["1e-100", "1", "1e100"])
def test_frequency_phase_bound_keeps_sqrt_n(capsys, gamma):
    code, report = run_json(
        capsys, ["frequency", "--gamma", gamma, "--n-values", "1,2,12", "--nu", "100000"]
    )
    assert code == 0
    rec = report["results"][1]
    assert rec["name"] == "phase-bound-sqrt-n" and rec["pass"]
    # ratio sqrt(N) e^{-1e-8 (N-1)/N}: 1e-8 (N-1)/N off at most
    assert 0 < rec["relative_deviation"] < 1e-8


def test_frequency_fails_when_entanglement_gives_no_phase_advantage(capsys, monkeypatch):
    real = information.phase_bound_dephasing

    def classical_only(n, gamma, t, nu, *, entangled):
        return real(n, gamma, t, nu, entangled=False)

    monkeypatch.setattr(information, "phase_bound_dephasing", classical_only)
    code, report = run_json(capsys, ["frequency", "--gamma", "1.0"])
    verdicts = {rec["name"]: rec["pass"] for rec in report["results"]}
    assert code == 1
    assert verdicts == {"frequency-bound-n-independence": True, "phase-bound-sqrt-n": False}


def test_noon_reports(capsys):
    code, report = run_json(capsys, ["noon", "--n", "4"])
    assert code == 0
    assert all(rec["max_deviation"] < 1e-12 for rec in report["results"])
    with pytest.raises(SystemExit) as err:
        main(["noon", "--n", "13"])
    assert err.value.code == 2


def _double_phase_box(m):
    # every box turns by 2 phi, patched where both states and fock bind it
    for module in (states, fock):
        m.setattr(module, "phase_box", lambda h, phis: phase_box(h, 2 * np.asarray(phis)))


def _support_without_level_selection(m):
    # ghz_phase_support multiplying in every level's factor, not the extremes'
    def support(h, phis, lam=0.0):
        phis = np.asarray(phis, dtype=float)
        factors = phase_box(h, phis)
        boxes = np.ones(phis.shape[:-1] + (2,), dtype=np.complex128)
        for j in reversed(range(phis.shape[-1])):
            boxes = factors[..., j, :] * boxes
        return np.array([1.0, np.exp(1j * lam)]) / math.sqrt(2) * boxes

    for module in (states, fock):
        m.setattr(module, "ghz_phase_support", support)


@pytest.mark.parametrize("mutate", [_double_phase_box, _support_without_level_selection])
def test_noon_fringe_zeros_catch_what_the_fringe_comparisons_miss(capsys, monkeypatch, mutate):
    # Both faults act on the qubit and the bosonic path alike, so the two
    # fringe comparisons still pass; only the analytic zero fails.
    mutate(monkeypatch)
    code, report = run_json(capsys, ["noon", "--n", "12"])
    verdicts = {rec["name"]: rec["pass"] for rec in report["results"]}
    assert code == 1
    assert verdicts == {"noon-fringe-equivalence": True, "n0-fringe-equivalence": True,
                        "noon-fringe-zeros": False}


def test_noon_reports_a_failed_zero_search_as_a_fail(capsys, monkeypatch):
    def no_sign_change(n, count):
        raise RuntimeError("overlap does not change sign")

    monkeypatch.setattr(fock, "noon_fringe_zeros", no_sign_change)
    code, report = run_json(capsys, ["noon", "--n", "3"])
    rec = report["results"][-1]
    assert code == 1 and rec["name"] == "noon-fringe-zeros" and not rec["pass"]
    assert rec["max_deviation"] is None and rec["error"] == "overlap does not change sign"


def _first_nan(values):
    return np.where(np.arange(np.size(values)) == 0, math.nan, values)


def _nan_fidelity(cert):
    return equivalence.ConversionCertificate(
        cert.n_probes, cert.probabilities, _first_nan(cert.fidelities)
    )


# (verdict, argv, value key, module, function, which call, what that call
# returns instead).  Each NaN comes after the first value of the reduction
# it reaches, where Python's max would keep the number before it.
NAN_CASES = [
    ("vectorization-identity", ["verify"], "residual",
     linalg, "vec_identity_residual", 3, _first_nan),  # the third d's group
    ("conversion-n2", ["verify"], "residual",
     equivalence, "convert_general_n", 3, _nan_fidelity),
    ("conversion-general-n", ["verify"], "residual",
     equivalence, "convert_general_n", 3, _nan_fidelity),
    ("counterexample-unaveraged-fisher", ["verify"], "residual",
     equivalence, "unaveraged_counterexample_fisher", 2, lambda out: (math.nan, out[1])),
    ("generalized-strategy", ["verify"], "residual",
     equivalence, "generalized_strategy_certificate", 2, lambda out: (math.nan, out[1])),
    ("noon-fringe-equivalence", ["noon", "--n", "4"], "max_deviation",
     fock, "fringe", 5, lambda p: math.nan),  # the bosonic side
    ("noon-fringe-equivalence", ["noon", "--n", "4"], "max_deviation",
     fock, "ghz_phase_support", 1, lambda s: np.where(np.arange(len(s))[:, None] == 4, np.nan, s)),
    ("n0-fringe-equivalence", ["noon", "--n", "4"], "max_deviation",
     fock, "fringe", 105, lambda p: math.nan),  # after noon's 100 points
    ("noon-fringe-zeros", ["noon", "--n", "4"], "max_deviation",
     fock, "noon_fringe_zeros", 1, lambda zeros: [math.nan]),
    ("frequency-bound-n-independence", ["frequency", "--gamma", "1.0"], "relative_spread",
     information, "optimal_frequency_bound", 3, lambda out: (out[0], math.nan)),  # N = 4
    ("phase-bound-sqrt-n", ["frequency", "--gamma", "1.0"], "relative_deviation",
     information, "phase_bound_dephasing", 3, lambda bound: math.nan),  # N = 2
    # a NaN inside the rows: the value at its path is null
    ("fisher-table", ["fisher"], "rows[1].crb_entangled",
     information, "crb", 3, lambda bound: math.nan),  # N = 2
    ("scaling-sequential", ["scaling", "--strategies", "sequential"], "rows[2].crb",
     simulate, "crb", 3, lambda bound: math.nan),  # N = 4
]


def _value_at(rec, path):
    """The value at a path such as rows[2].crb of a report's result."""
    for name, index in re.findall(r"(\w+)(?:\[(\d+)\])?", path):
        rec = rec[name] if not index else rec[name][int(index)]
    return rec


@pytest.mark.parametrize("verdict, argv, key, module, function, call, poison", NAN_CASES,
                         ids=[f"{case[0]}-{case[4]}" for case in NAN_CASES])
def test_a_nan_residual_is_a_fail_with_a_null_value(
    capsys, monkeypatch, tmp_path, verdict, argv, key, module, function, call, poison
):
    real = getattr(module, function)
    calls = []

    def injected(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(1)
        return poison(out) if len(calls) == call else out

    monkeypatch.setattr(module, function, injected)
    if argv == ["verify"]:
        # verify runs this check alone, so `call` counts within it
        monkeypatch.setattr(cli, "CHECKS", {verdict: cli.CHECKS[verdict]})
    monkeypatch.chdir(tmp_path)  # where scaling writes its CSV
    code, out = run_cli(capsys, argv + ["--seed", "5"])
    # no bare NaN at any depth: the frequency case's NaN bound is in its rows
    report = strict_json(out)
    rec = {rec["name"]: rec for rec in report["results"]}[verdict]
    assert len(calls) >= call
    assert code == 1 and report["pass"] is False and rec["pass"] is False
    assert _value_at(rec, key) is None and f"{key} is not finite" in rec["error"]


def test_noon_fringe_zeros_check_keeps_a_nan(monkeypatch):
    # criterion 09's form: three zeros, the second one NaN
    monkeypatch.setattr(fock, "noon_fringe_zeros",
                        lambda n, count: [math.pi / (2 * n), math.nan, 5 * math.pi / (2 * n)])
    assert math.isnan(cli.check_noon_fringe_zeros(3, 3))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_emit_refuses_a_non_finite_float(capsys, value):
    # Report.add nulls every non-finite value, so one that reaches _emit is a
    # defect: it raises rather than print NaN or Infinity, which are not JSON
    report = {"command": "fisher", "pass": True,
              "results": [{"name": "fisher-table", "pass": True, "rows": [{"crb": value}]}]}
    with pytest.raises(ValueError):
        cli._emit(report, "json")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, module, function, exc, verdict, keys", [
    (["verify", "--n-max", "4"], equivalence, "unaveraged_counterexample_fisher", RuntimeError,
     "counterexample-unaveraged-fisher", ["residual", "error", "tolerance"]),
    (["noon", "--n", "4"], fock, "noon_equivalence_certificate", ValueError,
     "noon-fringe-equivalence", ["max_deviation", "error"]),
])
def test_a_raising_verdict_is_a_fail_not_a_traceback(
    capsys, monkeypatch, argv, module, function, exc, verdict, keys
):
    def raising(*args):
        raise exc("no value")

    monkeypatch.setattr(module, function, raising)
    # main returns instead of raising: no traceback
    code, report = run_json(capsys, argv)
    verdicts = {rec["name"]: rec for rec in report["results"]}
    rec = verdicts.pop(verdict)
    assert code == 1 and rec["pass"] is False
    assert list(rec) == ["name", "pass", *keys, "elapsed_ms"]
    assert rec[keys[0]] is None and rec["error"] == "no value"
    assert all(other["pass"] for other in verdicts.values())


def test_fisher_reports(capsys):
    code, report = run_json(capsys, ["fisher", "--n-values", "1,2,4,8", "--nu", "100"])
    assert code == 0
    rows = report["results"][0]["rows"]
    assert [row["N"] for row in rows] == [1, 2, 4, 8]
    for row in rows:
        assert abs(row["qfi_ghz"] - row["N"] ** 2) < 1e-10
        assert abs(row["qfi_product"] - row["N"]) < 1e-10
        assert abs(row["crb_entangled"] - 1 / (row["N"] * 10)) < 1e-12


def test_fisher_fails_on_a_bound_off_by_1e9(capsys, monkeypatch):
    real = information.crb
    monkeypatch.setattr(information, "crb", lambda strategy, nu: real(strategy, nu) * (1 + 1e-9))
    code, report = run_json(capsys, ["fisher"])
    assert code == 1 and report["pass"] is False


# Non-finite or out-of-range float flags are usage errors, never a traceback
# or a FAIL verdict.
@pytest.mark.parametrize("argv", [
    ["frequency", "--gamma", "nan"],
    ["frequency", "--gamma", "inf"],
    ["frequency", "--gamma", "-inf"],
    ["frequency", "--gamma", "0"],
    ["frequency", "--gamma", "1e300"],
    ["verify", "--n-max", "4", "--tolerance", "nan"],
    ["verify", "--n-max", "4", "--tolerance", "-1"],
    ["verify", "--n-max", "4", "--tolerance", "0"],
    ["verify", "--n-max", "4", "--tolerance", "inf"],
    ["verify", "--n-max", "4", "--tolerance", "2"],
    ["noise", "--channel", "dephasing", "--p", "nan"],
    ["noise", "--channel", "dephasing", "--p", "-inf"],
    # desk-scale caps hold for every subcommand
    ["frequency", "--gamma", "1", "--nu", "100000000000"],
    ["frequency", "--gamma", "1", "--nu", "0"],
    ["frequency", "--gamma", "1", "--n-values", "1,2,100000"],
    ["frequency", "--gamma", "1", "--n-values", "0,1"],
    ["fisher", "--nu", "100000000000"],
    ["fisher", "--n-values", "1,13"],
    ["noise", "--channel", "dephasing", "--p", "0.5", "--seed", "-1"],
    # a repeated --n-values entry would echo in config but not match the rows
    ["scaling", "--n-values", "1,2,3,3"],
    ["fisher", "--n-values", "2,2"],
    ["frequency", "--gamma", "1", "--n-values", "2,2"],
    # an empty entry is not an N
    ["fisher", "--n-values", "1,2,"],
    ["scaling", "--n-values", "1,,2,4"],
    # the bound's spread over one N is zero by construction
    ["frequency", "--gamma", "1", "--n-values", "1"],
])
def test_bad_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


def test_conversion_residuals_count_missing_branches():
    from metroq.cli import _conversion_residuals
    from metroq.equivalence import ConversionCertificate

    complete = ConversionCertificate(3, [0.25] * 4, [1.0] * 4)
    short = ConversionCertificate(3, [0.25] * 3, [1.0] * 3)
    assert _conversion_residuals([complete]) == (0.0, 0.0, 0.0)
    assert _conversion_residuals([complete, short])[2] == 1.0


def test_verify_runs_the_acceptance_checks():
    # The acceptance suite calls these functions directly; verify must run
    # the same ones, not copies.
    assert [check.fn for check in cli.CHECKS.values()] == [
        cli.check_vectorization,
        cli.check_conversion_n2,
        cli.check_conversion_general_n,
        cli.check_counterexample,
        cli.check_counterexample,
        cli.check_unaveraged_fisher,
        cli.check_useful_entanglement,
        cli.check_generalized_strategy,
    ]


def test_cli_import_does_not_load_scipy():
    code = "import metroq.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == "[]"


def _metroq_child(modules="metroq.cli", **blas_vars):
    """Import `modules` first in a fresh process, so numpy loads after
    metroq/__init__; return the child's BLAS thread variables and its OS
    thread count (None without /proc/self/task)."""
    code = ("import %s; import json, os; print(json.dumps([{v: os.environ.get(v) for v in %r}, "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None]))"
            % (modules, BLAS_THREAD_VARS))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env(**blas_vars))
    return json.loads(proc.stdout)


def _assert_one_blas_thread(modules):
    seen, tasks = _metroq_child(modules)
    assert seen == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                    "OMP_NUM_THREADS": None}
    # with one usable CPU the pool has no worker thread either way
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if tasks is None or usable < 2:
        pytest.skip("thread count needs /proc/self/task and at least 2 usable CPUs")
    assert tasks == 1


def test_metroq_defaults_to_one_blas_thread():
    _assert_one_blas_thread("metroq.cli")


def test_metroq_before_numpy_defaults_to_one_blas_thread():
    # library order: the bare package, then numpy by itself
    _assert_one_blas_thread("metroq, numpy")


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_metroq_keeps_the_callers_blas_threads(var):
    seen, _ = _metroq_child(**{var: "2"})
    assert seen == {v: "2" if v == var else None for v in BLAS_THREAD_VARS}


# argv fuzzing.  Each flag has a strategy for valid values and one for
# invalid ones; an argv breaks at most one flag, so every rejection is tested
# on its own.  Valid sizes stay small (N <= 4, nu <= 200, rounds <= 5) so that
# no draw starts a large computation; out-of-range, NaN and infinite values
# must be rejected as usage errors before any work starts.

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _ints(lo, hi, cap):
    return st.integers(lo, hi), st.integers(cap + 1, 10**12) | st.integers(-10**6, lo - 1)


def _floats(valid, too_low, too_high):
    return valid, NON_FINITE | st.sampled_from([too_low, too_high]) | st.floats(-1e6, -1e-3)


def _n_values(min_size):
    valid = st.lists(st.integers(1, 4), min_size=min_size, max_size=4, unique=True)
    some = st.lists(st.integers(1, 4), min_size=1, max_size=4)
    out_of_range = some.flatmap(
        lambda v: st.sampled_from([0, -3, 13, 100_000]).map(lambda bad: v + [bad]))
    repeated = some.flatmap(lambda v: st.sampled_from(v).map(lambda again: v + [again]))
    empty = some.flatmap(lambda v: st.integers(0, len(v)).map(lambda i: v[:i] + [""] + v[i:]))
    return valid.map(_join), (out_of_range | repeated | empty).map(_join)


def _join(values):
    return ",".join(map(str, values))


STRATEGIES = (
    st.lists(st.sampled_from(["sequential", "classical", "entangled"]),
             min_size=1, max_size=3, unique=True).map(",".join),
    st.sampled_from(["warp", "entangled,entangled", "generalized", ""]),
)
SEED = (st.integers(0, 2**64 - 1), st.sampled_from([-1, 2**64, "x"]))
FORMAT = (st.sampled_from(["json", "text"]), st.just("xml"))

# flag -> (valid values, invalid values), per subcommand
FLAGS = {
    "verify": {"--n-max": _ints(2, 4, 12),
               "--tolerance": _floats(st.floats(1e-30, 1.0), 0.0, 1.5)},
    "scaling": {"--n-values": _n_values(3), "--nu": _ints(1, 200, 100_000),
                "--rounds": _ints(1, 5, 1_000), "--strategies": STRATEGIES},
    "noise": {"--channel": (st.sampled_from(["dephasing", "bitphaseflip", "amplitudedamping"]),
                            st.just("erasure")),
              "--p": _floats(st.floats(0.0, 1.0), -0.25, 1.25)},
    "frequency": {"--gamma": _floats(st.floats(1e-3, 1e3), 0.0, 1e300),
                  "--n-values": _n_values(2), "--nu": _ints(1, 200, 100_000)},
    "noon": {"--n": _ints(1, 4, 12)},
    "fisher": {"--n-values": _n_values(1), "--nu": _ints(1, 200, 100_000)},
}


@st.composite
def _argv(draw, command):
    flags = dict(FLAGS[command], **{"--seed": SEED, "--format": FORMAT})
    broken = draw(st.none() | st.sampled_from(sorted(flags)))
    parts = []
    for flag, (valid, invalid) in flags.items():
        # size flags are always given: their defaults are not small
        if flag == broken or flag in FLAGS[command] or draw(st.booleans()):
            value = draw(invalid if flag == broken else valid)
            parts.append([flag, str(value)])
    if command == "scaling":
        parts.append(["--out", draw(st.sampled_from(["x.csv", "missing-dir/x.csv"]))])
    order = draw(st.permutations(parts))
    return [command] + [token for part in order for token in part], broken


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_argv_fuzz(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # scaling's --out lands under tmp_path

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_argv(command))
    def run(drawn):
        argv, broken = drawn
        try:
            code = main(argv)
        except SystemExit as exc:
            capsys.readouterr()
            assert exc.code == 2 and broken is not None, argv
            return
        out = capsys.readouterr().out
        assert broken is None, f"invalid {broken} accepted: {argv}"
        assert code in (0, 1, 3), argv
        if code != 3 and "text" not in argv:
            jsonschema.validate(strict_json(out), SCHEMA)

    run()
