"""Golden transcripts: the outputs of a fixed argv list, byte for byte.

Each case runs in-process and is compared with its files under tests/golden/:
the JSON report with its timings (`wall_time_ms` and every `elapsed_ms`)
stripped, and for `scaling` the CSV.  A deliberate output change reruns

    PYTHONPATH=src python tests/regenerate_golden.py

and commits the diff of tests/golden/ together with its reason.  The corpus is
pinned to one numpy and BLAS build, as the CSV digests in test_cli are.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from metroq.cli import main

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
}


def transcript(argv) -> dict[str, bytes]:
    """Run argv in the current directory; return its golden files by suffix."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(argv)
    report = json.loads(stdout.getvalue())
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
