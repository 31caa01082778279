"""Correctness gate applied to every invocation, cold, warm or traced."""

from __future__ import annotations

import json
import math

from workloads import flags, scaling_grid

CSV_HEADER = "strategy,N,nu,rounds,empirical_rmse,crb,seed"


def check(argv, exit_code, stdout: str, csv_text: str | None, validator) -> str | None:
    """Return why the invocation failed, or None if its outputs are correct."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    error = next(validator.iter_errors(report), None)
    if error is not None:
        return f"report violates schema: {error.message}"
    if report["command"] != argv[0]:
        return f"report command {report['command']!r}, expected {argv[0]!r}"
    if report["pass"] is not True:
        failed = [r["name"] for r in report["results"] if not r["pass"]]
        return f"verdict FAIL: {', '.join(failed)}"
    if argv[0] == "scaling":
        return check_csv(flags(argv), csv_text)
    return None


def check_csv(f: dict[str, str], text: str | None) -> str | None:
    if text is None:
        return "scaling wrote no CSV"
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "CSV header differs"
    pairs, nu, rounds = scaling_grid(f)
    if len(lines) - 1 != len(pairs):
        return f"CSV has {len(lines) - 1} rows, expected {len(pairs)}"
    seen = set()
    for line in lines[1:]:
        try:
            strategy, n, row_nu, row_rounds, rmse, crb, seed = line.split(",")
            n, rmse, crb = int(n), float(rmse), float(crb)
        except ValueError:
            return f"CSV row unreadable: {line!r}"
        if (int(row_nu), int(row_rounds), seed) != (nu, rounds, f["--seed"]):
            return f"CSV row does not echo the flags: {line!r}"
        seen.add((strategy, n))
        if not (math.isfinite(rmse) and rmse > 0):
            return f"empirical_rmse not finite and positive: {line!r}"
        closed = 1 / math.sqrt(n * nu) if strategy == "classical" else 1 / (n * math.sqrt(nu))
        if abs(crb - closed) > 1e-12 * closed:
            return f"crb misses its closed form {closed!r}: {line!r}"
    if seen != set(pairs):
        return "CSV (strategy, N) rows differ from the flags"
    return None
