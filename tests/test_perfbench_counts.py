"""The benchmark's traced-count contract, checked in the ordinary test run.

perfbench's traced run wraps metroq's public functions and requires the call
and draw counts it sees to equal the counts read off each invocation's flags
(`workloads.expected_counts`).  A change of call structure that breaks that
contract (a renamed function, a fringe built once per grid instead of once
per point) would otherwise show only when the benchmark is run.  The work
counters in `scaling` reports must equal the same flag-derived counts.
"""

import contextlib
import importlib.util
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from metroq import cli

from helpers import child_env

ROOT = Path(__file__).resolve().parents[1]


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


spans = load("spans")
workloads = load("workloads")
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def test_cli_import_registers_every_traced_layer():
    # the recorder reads each layer from sys.modules; cli puts the layers it
    # loads lazily there at import, before any command has run them
    code = ("import sys, metroq.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('metroq.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=child_env())
    assert proc.stdout.strip() == str(sorted(f"metroq.{layer}" for layer in spans.LAYERS))


@pytest.mark.parametrize("name", BENCHMARKED)
def test_traced_counts_match_the_flags(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    argvs = [workload.argv(1, i, str(tmp_path / "scaling.csv")) for i in range(len(workload.mix))]
    rec = spans.Recorder()
    saved = spans.install(rec)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        spans.uninstall(saved)
    counts = Counter(rec.totals()[0])
    counts.update(rec.counters)
    expected = workloads.expected_counts(argvs)
    for metric, key in workloads.COUNTED.items():
        assert counts[key] == expected[metric], (metric, counts[key], expected[metric])


SCALING_MIXES = {
    name: argv for name, workload in workloads.WORKLOADS.items()
    for argv in workload.mix if argv[0] == "scaling"
}


@pytest.mark.parametrize("name", SCALING_MIXES)
def test_scaling_report_counters_match_the_flags(tmp_path, name):
    argv = list(SCALING_MIXES[name]) + ["--seed", "3", "--out", str(tmp_path / "scaling.csv")]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli.main(argv)
    results = json.loads(stdout.getvalue())["results"]
    expected = workloads.expected_counts([argv])
    assert sum(rec["streams"] for rec in results) == expected["run_trials.calls"]
    assert sum(rec["draws"] for rec in results) == expected["simulate.draws"]
