"""Golden transcripts: the outputs of a fixed argv list, byte for byte.

Each case runs in-process and is compared with its files under tests/golden/:
the JSON report with its timings (`wall_time_ms` and every `elapsed_ms`)
stripped, and for `scaling` the CSV.  A few cases also run as a cold
`python -m metroq.cli` process with no BLAS thread variable set, so that the
CLI's own OpenBLAS thread default must reproduce the same bytes.  A
deliberate output change reruns

    PYTHONPATH=src python tests/regenerate_golden.py

and commits the diff of tests/golden/ together with its reason.  The corpus is
pinned to one numpy and BLAS build, as the CSV digests in test_cli are.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from metroq.cli import main

from helpers import child_env

GOLDEN = Path(__file__).resolve().parent / "golden"

README_SCALING = ["scaling", "--strategies", "sequential,classical,entangled",
                  "--n-values", "1,2,4,8", "--nu", "4000", "--rounds", "200"]

CASES = {
    "verify-n12-seed0": ["verify", "--n-max", "12", "--seed", "0"],
    "verify-n12-seed7": ["verify", "--n-max", "12", "--seed", "7"],
    "verify-n2-seed0": ["verify", "--n-max", "2", "--seed", "0"],
    **{f"noon-n{n}": ["noon", "--n", str(n)] for n in range(1, 13)},
    **{
        f"noise-{channel}-p{p}": ["noise", "--channel", channel, "--p", p]
        for channel in ("dephasing", "bitphaseflip", "amplitudedamping")
        for p in ("0.25", "1")
    },
    "fisher": ["fisher"],
    "frequency-gamma1": ["frequency", "--gamma", "1"],
    # --out is relative, so config.out is the same literal wherever it runs
    "scaling-seed42": README_SCALING + ["--seed", "42", "--out", "scaling.csv"],
    "scaling-seed0": README_SCALING + ["--seed", "0", "--out", "scaling.csv"],
    # the benchmarked Monte Carlo flags: 1e5-1.2e6 trials per round, N up to 12
    "scaling-mc-draws": ["scaling", "--strategies", "sequential,classical,entangled",
                         "--n-values", "1,2,4,8,12", "--nu", "100000", "--rounds", "100",
                         "--seed", "902", "--out", "scaling.csv"],
}


# run cold as well: the largest certificate, the largest fringe grid, sampling
COLD_CASES = ("verify-n12-seed0", "noon-n12", "scaling-seed42")


def transcript(argv) -> dict[str, bytes]:
    """Run argv in the current directory; return its golden files by suffix."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(argv)
    return golden_files(argv, stdout.getvalue())


def golden_files(argv, stdout: str) -> dict[str, bytes]:
    """The golden files by suffix of argv's run in the current directory,
    given the report it printed."""
    report = json.loads(stdout)
    del report["wall_time_ms"]
    for rec in report["results"]:
        rec.pop("elapsed_ms", None)
    files = {"json": (json.dumps(report, indent=2) + "\n").encode()}
    if argv[0] == "scaling":
        files["csv"] = Path("scaling.csv").read_bytes()
    return files


@pytest.mark.parametrize("name", CASES)
def test_golden_transcript(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for suffix, output in transcript(CASES[name]).items():
        assert output == (GOLDEN / f"{name}.{suffix}").read_bytes(), f"{name}.{suffix}"


@pytest.mark.parametrize("name", COLD_CASES)
def test_golden_transcript_cold(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "metroq.cli", *CASES[name]],
                          capture_output=True, text=True, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    for suffix, output in golden_files(CASES[name], proc.stdout).items():
        assert output == (GOLDEN / f"{name}.{suffix}").read_bytes(), f"{name}.{suffix}"
