"""The benchmark's workloads: fixed lists of eprblab CLI commands.

Every command gets its own --seed, drawn from the workload seed, and writes
into its own directory under WORK, a path relative to the checkout root. The
paths are the same on every pass, because `events match` hashes its input
paths into summary.txt and the byte-identity check compares passes.

"full" is the measured size; "toy" is the smoke-test size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

WORK = ".bench_out/work"

#: Paper calibrations of the σ = 0 scan presets: (t_a, t_b, alpha).
SCAN_PRESETS = {
    "figure6": (0.5, 0.5, 0.0),
    "figure7": (0.5, 0.92, 0.0),
    "figure8-left": (0.5, 0.75, 0.0),
    "figure8-right": (0.5, 0.75, math.pi / 4),
}
#: CHSH runs (t_b, |S|) with t_a = 0.5: classical, quantum, super-quantum.
CHSH_RUNS = ((0.5, 2.0), (0.75, 3.0), (0.92, 4.0))
#: Event streams (name, pairs/s, seconds). At 1e6 pairs/s emissions often
#: land inside one another's 100 ns window and greedy matching loses pairs.
STREAMS = {
    "full": (("sparse", 100_000, 3.0), ("dense", 1_000_000, 0.3)),
    "toy": (("sparse", 10_000, 0.3), ("dense", 100_000, 0.03)),
}
#: Lowest recovered share of true pairs, per stream. At full size, eleven
#: seeds of the first benchmarked commit gave at least 0.99963 (sparse,
#: greedy loss 39-73 pairs) and 0.99698 (dense, 509-607 pairs).
RECOVERY_FLOORS = {"sparse": 0.999, "dense": 0.995}
#: Disk-demo angles. Figures 4/5 use alpha = pi/8, beta = 0: at alpha = pi/4
#: the target is uniform and a random guess would look exact.
THETA = math.pi / 8
ALPHA = math.pi / 8
SPECIAL_ALPHA = math.pi / 4

SIZES = {
    "full": dict(steps=33, pairs=100_000, chsh_pairs=1_000_000, path_steps=33,
                 path_pairs=10_000, trials=1_000_000, random_trials=50_000),
    "toy": dict(steps=5, pairs=2_000, chsh_pairs=100_000, path_steps=5,
                path_pairs=1_000, trials=20_000, random_trials=2_000),
}

WORKLOADS = ("scan-chsh", "event-pipeline", "disk-policies")


@dataclass(frozen=True)
class Command:
    sub: str                 # subcommand, as in the <sub>_s metric names
    argv: tuple[str, ...]    # arguments after `eprblab`
    out: str                 # output directory, relative to the checkout root
    check: Callable          # check(out_dir, lab) -> checks.Outcome
    tag: str | None = None   # event-stream label for the matcher's spans


def commands(workload: str, seed: int, size: str = "full") -> list[Command]:
    """The workload's commands, in run order, with seeds drawn from seed."""
    draw = random.Random(seed)

    def cmd(sub, out, check, *args, tag=None):
        seeded = () if sub == "events_match" else ("--seed", str(draw.randrange(2**32)))
        return Command(sub, (*args, *seeded, "--out", f"{WORK}/{out}"), f"{WORK}/{out}", check, tag)

    z = SIZES[size]
    out: list[Command] = []
    if workload == "scan-chsh":
        grid = ("--steps", str(z["steps"]), "--pairs", str(z["pairs"]))
        for name, (ta, tb, alpha) in SCAN_PRESETS.items():
            check = partial(checks.scan_oracle, ta=ta, tb=tb, alpha=alpha,
                            steps=z["steps"], pairs=z["pairs"])
            out.append(cmd("scan", f"scan-{name}", check, "scan", "--preset", name, *grid))
        out.append(cmd("scan", "scan-noisy", partial(checks.scan_shape, steps=z["steps"], pairs=z["pairs"]),
                       "scan", "--ta", "0.75", "--tb", "0.75", "--noise-b", "0.05",
                       "--efficiency-b", "0.3", *grid))
        for tb, s in CHSH_RUNS:
            out.append(cmd("chsh", f"chsh-{tb}", partial(checks.chsh_value, expected=s, pairs=z["chsh_pairs"]),
                           "chsh", "--ta", "0.5", "--tb", str(tb), "--pairs", str(z["chsh_pairs"])))
        out.append(cmd("pathology", "pathology",
                       partial(checks.pathology_rates, steps=z["path_steps"], pairs=z["path_pairs"]),
                       "pathology", "--steps", str(z["path_steps"]), "--pairs", str(z["path_pairs"])))
    elif workload == "event-pipeline":
        for name, rate, duration in STREAMS[size]:
            gen = cmd("events_gen", f"events-{name}", checks.events_gen, "events", "gen",
                      "--rate", str(rate), "--duration", str(duration), "--tb", "0.75", tag=name)
            match = cmd("events_match", f"match-{name}",
                        partial(checks.events_match, gen_dir=f"events-{name}", floor=RECOVERY_FLOORS[name]),
                        "events", "match", "--a", f"{gen.out}/events_a.csv",
                        "--b", f"{gen.out}/events_b.csv", "--window", "100", tag=name)
            out += [gen, match]
    elif workload == "disk-policies":
        n, n_random = z["trials"], z["random_trials"]
        target = checks.singlet_pmf(THETA)
        param_target = checks.singlet_pmf(ALPHA)
        theta = ("--theta", repr(THETA))
        param = ("--alpha", repr(ALPHA), "--beta", "0")
        demos = (  # (label, figure, trials, target, expected joint, extra flags)
            ("1", "1", n, target, target, theta),
            ("2", "2", n, target, target, theta),
            ("3", "3", n, target, checks.UNIFORM_PMF, theta),
            ("4", "4", n, param_target, param_target, param),
            # Side A's projection is + on [0, pi) whatever it guesses, so the
            # sampled joint is the singlet at B's estimate alpha_hat - beta:
            # 0 under assume-zero, uniform over guesses under assume-random.
            ("5-zero", "5", n, param_target, checks.singlet_pmf(0.0),
             (*param, "--policy", "assume-zero")),
            ("5-random", "5", n_random, param_target, checks.UNIFORM_PMF,
             (*param, "--policy", "assume-random")),
        )
        for label, figure, trials, tgt, expected, extra in demos:
            check = partial(checks.disk_tv, n=trials, target=tgt, expected=expected)
            out.append(cmd("disk_demo", f"disk-{label}", check, "disk-demo", "--figure", figure,
                           *extra, "--n", str(trials)))
        special = checks.singlet_pmf(SPECIAL_ALPHA)
        out.append(cmd("disk_demo", "disk-special",
                       partial(checks.disk_tv, n=n, target=special, expected=special, exact=True),
                       "disk-demo", "--figure", "special", "--alpha", repr(SPECIAL_ALPHA), "--n", str(n)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return out
