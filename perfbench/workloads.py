"""The benchmark's workloads: which argv each metroq invocation receives.

Every argv is generated from the workload seed alone, spells out every flag
(so the expected work can be read back from it) and is one of a short
command mix that the loops cycle through.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass

MC_STRATEGIES = "sequential,classical,entangled"
MC_N_VALUES = "1,2,4,8,12"
# At nu = 1e5 the fitted slope has standard error ~0.35/sqrt(rounds).  With
# 100 rounds the +-0.15 slope band sits 4.3 standard errors out, so a correct
# program fails about once in 30 000 invocations; 40 rounds would fail ~1 %.
MC_DRAWS_ROUNDS = 100

# Counts the traced run must reproduce from the flags: metric -> traced counter.
COUNTED = {
    "run_trials.calls": "simulate.run_trials",
    "derive_round_seed.calls": "simulate.derive_round_seed",
    "simulate.draws": "simulate.draws",
    "convert_general_n.calls": "equivalence.convert_general_n",
    "fringe.calls": "fock.fringe",
}


@dataclass(frozen=True)
class Workload:
    """A command mix that the closed loop cycles through; the traced run
    makes trace_cycles passes over it."""

    name: str
    mix: tuple[tuple[str, ...], ...]
    trace_cycles: int

    def argv(self, seed: int, i: int, out: str) -> list[str]:
        """Invocation i: command mix[i mod len(mix)] with its own derived seed.

        Negative i are the warm-up calls, one per command of the mix.
        """
        argv = list(self.mix[i % len(self.mix)])
        argv += ["--seed", str(invocation_seed(self.name, seed, i))]
        if argv[0] == "scaling":
            argv += ["--out", out]
        return argv


def invocation_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def flags(argv) -> dict[str, str]:
    """The --flag value pairs of a generated argv (subcommand first)."""
    return dict(zip(argv[1::2], argv[2::2]))


def scaling_grid(f: dict[str, str]):
    """(strategy, N) pairs a scaling invocation runs, with its nu and rounds."""
    ns = sorted({int(n) for n in f["--n-values"].split(",")})
    pairs = [(s, n) for s in f["--strategies"].split(",") for n in ns]
    return pairs, int(f["--nu"]), int(f["--rounds"])


def expected_counts(argvs) -> Counter:
    """Calls and draws that the given invocations must make, read off their flags."""
    c = Counter({key: 0 for key in COUNTED})
    for argv in argvs:
        f = flags(argv)
        if argv[0] == "scaling":
            pairs, nu, rounds = scaling_grid(f)
            for strategy, n in pairs:
                c["run_trials.calls"] += rounds
                c["derive_round_seed.calls"] += rounds
                c["simulate.draws"] += nu * rounds * (n if strategy == "classical" else 1)
        elif argv[0] == "verify":
            c["convert_general_n.calls"] += 100 + 5 * (int(f["--n-max"]) - 1)
        elif argv[0] == "noon":
            c["fringe.calls"] += 200
    return c


def logical_trials(argv) -> int:
    """Bernoulli trials a scaling invocation stands for: nu * rounds per
    (strategy, N), times N for the classical strategy; 0 for other commands."""
    return expected_counts([argv])["simulate.draws"]


_MC = ("scaling", "--strategies", MC_STRATEGIES, "--n-values", MC_N_VALUES)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify",
            (("verify", "--n-max", "12"), ("noon", "--n", "12")),
            trace_cycles=4,
        ),
        Workload(
            "mc-draws",
            (_MC + ("--nu", "100000", "--rounds", str(MC_DRAWS_ROUNDS)),),
            trace_cycles=1,
        ),
        # Runs by hand; not in BENCHMARK.json (see README.md).
        Workload(
            "mc-rounds",
            (_MC + ("--nu", "100", "--rounds", "1000"),),
            trace_cycles=1,
        ),
        Workload(
            "quick-cli",
            (
                ("fisher", "--n-values", "1,2,4,8", "--nu", "1"),
                ("frequency", "--gamma", "1", "--n-values", "1,2,4,8", "--nu", "1"),
                ("noise", "--channel", "dephasing", "--p", "0.25"),
                ("noise", "--channel", "bitphaseflip", "--p", "0.25"),
                ("noise", "--channel", "amplitudedamping", "--p", "0.25"),
                ("noon", "--n", "4"),
                ("verify", "--n-max", "4"),
                # The README's default scaling flags: at --nu 100 --rounds 20
                # the classical slope leaves its band on ~1 seed in 3.
                ("scaling", "--strategies", MC_STRATEGIES, "--n-values", "1,2,4,8",
                 "--nu", "4000", "--rounds", "200"),
            ),
            trace_cycles=2,
        ),
    )
}
