"""Smoke test of the benchmark harness: every workload at toy size.

    python3 bench/smoke.py

Run it from the root of a checkout. For each workload it makes one untraced
and one traced run and asserts that every operation passed its checks, that
every metric metrics.py names for the workload is emitted with its unit,
that BENCHMARK.json names only metrics that are emitted, that no self time
is negative and each root span's subtree self times add up to its duration,
and that the workload loads the layers it is meant to and no others.
Exit status 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import metrics
import run
import workloads
from tracer import LAYERS

#: Layers whose spans each workload must show; every other layer must stay
#: at zero self time. `events match` builds its CHSH report through scan.
LOADS = {
    "scan-chsh": {"cli", "optics", "scan"},
    "event-pipeline": {"cli", "optics", "scan", "eventio"},
    "disk-policies": {"cli", "disks"},
}


def expected_metrics(workload: str, trace: bool) -> dict[str, str]:
    if trace:
        return {name: unit for name, (unit, _, _) in metrics.PER_LAYER.items()}
    return {
        name: unit
        for name, (unit, _, where, _) in metrics.END_TO_END.items()
        if where in (metrics.ALL, workload)
    }


def smoke_one(root: Path, spec: dict, workload: str, trace: bool) -> list[str]:
    report, _ = run.run(root, workload, seed=1, seconds=0, trace=trace, size="toy")
    problems = list(report.failures) + list(report.span_problems)
    for name, unit in expected_metrics(workload, trace).items():
        m = report.metrics.get(name)
        if m is None:
            problems.append(f"metric {name} not emitted")
        elif m["unit"] != unit:
            problems.append(f"metric {name} in {m['unit']}, want {unit}")
    try:
        run.gated(report, spec, trace)
    except (KeyError, ValueError) as exc:
        problems.append(f"BENCHMARK.json names a metric the run lacks: {exc!r}")
    if trace:
        problems += [f"{n} = {m['value']} < 0" for n, m in report.metrics.items() if m["value"] < 0]
        for layer in LAYERS:
            busy = report.metrics[f"{layer}.self_s"]["value"] > 0
            if busy != (layer in LOADS[workload]):
                problems.append(f"layer {layer} {'busy' if busy else 'idle'}, expected the opposite")
    return [f"{workload} trace={int(trace)}: {p}" for p in problems]


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            found = smoke_one(root, spec, workload, trace)
            print(f"{'FAIL' if found else 'ok'} {workload} trace={int(trace)}")
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
