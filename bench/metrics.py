"""Every metric the benchmark reports: name, unit, direction, and for each
per-layer metric the end-to-end metric it should move, on which workload.

BENCHMARK.json gates a subset of these (the end-to-end metrics that exist
on every workload, and the per-layer metrics); the rest are printed and
written to the result file. This module also holds the tracer's counter
hooks and turns a traced pass into per-layer values.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

ALL = "all workloads"
SCAN_CHSH, EVENTS, DISKS = "scan-chsh", "event-pipeline", "disk-policies"

#: name -> (unit, better, workloads it exists on, meaning)
END_TO_END = {
    # Times are in reference seconds: wall time scaled to the reference
    # machine speed by the reference task timed around each launch.
    "setup_s": ("s", "lower", ALL, "fresh interpreter running `eprblab --version`: import and parser build"),
    "wall_s": ("s", "lower", ALL, "one pass over the workload's commands, each in a fresh subprocess"),
    "peak_rss_mb": ("MB", "lower", ALL, "largest max RSS of any CLI child in the pass"),
    "fail_ratio": ("ratio", "lower", ALL, "failed over attempted operations in the run"),
    "scan_s": ("s", "lower", SCAN_CHSH, "summed wall time of the pass's `scan` runs"),
    "chsh_s": ("s", "lower", SCAN_CHSH, "summed wall time of the pass's `chsh` runs"),
    "pathology_s": ("s", "lower", SCAN_CHSH, "wall time of the pass's `pathology` run"),
    "events_gen_s": ("s", "lower", EVENTS, "summed wall time of the pass's `events gen` runs"),
    "events_match_s": ("s", "lower", EVENTS, "summed wall time of the pass's `events match` runs"),
    "disk_demo_s": ("s", "lower", DISKS, "summed wall time of the pass's `disk-demo` runs"),
    "pairs_per_s": ("1/s", "higher", SCAN_CHSH, "simulated pairs per second of pass wall time"),
    "records_per_s": ("1/s", "higher", EVENTS, "event records written plus read per second"),
    "trials_per_s": ("1/s", "higher", DISKS, "disk trials per second of pass wall time"),
    # Unscaled wall-clock times, and the reference task's own time.
    "setup_clock_s": ("s", "lower", ALL, "setup_s as read on the wall clock"),
    "wall_clock_s": ("s", "lower", ALL, "wall_s as read on the wall clock"),
    "reference_s": ("s", "lower", ALL, "wall time of bench/reference.py: the machine's speed, not eprblab's"),
}

THROUGHPUT = {SCAN_CHSH: "pairs_per_s", EVENTS: "records_per_s", DISKS: "trials_per_s"}

_CLI = (("wall_s", ALL),)
_OPTICS = (("scan_s", SCAN_CHSH), ("chsh_s", SCAN_CHSH), ("pairs_per_s", SCAN_CHSH),
           ("events_gen_s", EVENTS))
_SCAN = (("scan_s", SCAN_CHSH), ("chsh_s", SCAN_CHSH), ("pathology_s", SCAN_CHSH))
_DISKS = (("disk_demo_s", DISKS), ("trials_per_s", DISKS))
_GEN = (("events_gen_s", EVENTS),)
_MATCH = (("events_match_s", EVENTS),)
_EVENTS = _GEN + _MATCH
_NONE = ()

#: name -> (unit, better, end-to-end metrics it should move as (metric, workload))
PER_LAYER = {
    "cli.self_s": ("s", "lower", _CLI),
    "cli.main.self_s": ("s", "lower", _CLI),
    "cli.output_bytes": ("bytes", "lower", _CLI),
    "optics.self_s": ("s", "lower", _OPTICS),
    "optics.emit_phis.self_s": ("s", "lower", _OPTICS),
    "optics.malus_intensities.self_s": ("s", "lower", _OPTICS),
    "optics.detect_many.self_s": ("s", "lower", _OPTICS),
    "optics.measure_many.self_s": ("s", "lower", _OPTICS),
    "optics.pairs": ("count", "higher", _OPTICS),
    "optics.ns_per_pair": ("ns", "lower", _OPTICS),
    # Computed from the array sizes of emit_phis, malus_intensities and
    # detect_many arguments and results, not measured memory traffic.
    "optics.bytes_computed": ("bytes", "lower", _OPTICS),
    "scan.self_s": ("s", "lower", _SCAN),
    "scan.run_scan.self_s": ("s", "lower", _SCAN),
    "scan.run_chsh.self_s": ("s", "lower", _SCAN),
    "scan.pathology_probe.self_s": ("s", "lower", _SCAN),
    "scan.tabulate_codes.self_s": ("s", "lower", _SCAN),
    "scan.tabulate_codes.calls": ("count", "lower", _SCAN),
    "scan.coincidence_ratio": ("ratio", "higher", _SCAN),
    # The oracle runs only in the benchmark's own checks today.
    "scan.analytic_correlation.self_s": ("s", "lower", _NONE),
    "scan.analytic_correlation.calls": ("count", "lower", _NONE),
    "disks.self_s": ("s", "lower", _DISKS),
    "disks.sample_disk_many.self_s": ("s", "lower", _DISKS),
    "disks.sample_separated.self_s": ("s", "lower", _DISKS),
    "disks.sample_param_setup.self_s": ("s", "lower", _DISKS),
    "disks.build_param_disks.self_s": ("s", "lower", _DISKS),
    "disks.build_param_disks.calls": ("count", "lower", _DISKS),
    "disks.joint_pmf_from_splits.self_s": ("s", "lower", _DISKS),
    "disks.trials": ("count", "higher", _DISKS),
    "disks.us_per_trial": ("us", "lower", _DISKS),
    "eventio.self_s": ("s", "lower", _EVENTS),
    "eventio.generate_events.self_s": ("s", "lower", _GEN),
    "eventio.write_events.self_s": ("s", "lower", _GEN),
    "eventio.read_events.self_s": ("s", "lower", _MATCH),
    "eventio.match_coincidences.sparse.self_s": ("s", "lower", _MATCH),
    "eventio.match_coincidences.dense.self_s": ("s", "lower", _MATCH),
    "eventio.records_written": ("count", "higher", _GEN),
    "eventio.records_read": ("count", "higher", _MATCH),
    "eventio.bytes_written": ("bytes", "lower", _GEN),
    "eventio.matched": ("count", "higher", _MATCH),
    "eventio.truth_pairs": ("count", "higher", _EVENTS),
    "eventio.recovery_ratio": ("ratio", "higher", _MATCH),
    "trace.overhead_ratio": ("ratio", "lower", _NONE),
}


# --- counters recorded at span boundaries -------------------------------------------


def _array_bytes(*values) -> int:
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif isinstance(v, tuple):
            total += _array_bytes(*v)
    return total


def _optics_bytes(counts: Counter, args: dict, result) -> None:
    counts["optics.bytes_computed"] += _array_bytes(*args.values(), result)


def _emit(counts: Counter, args: dict, result) -> None:
    counts["optics.pairs"] += len(result)
    _optics_bytes(counts, args, result)


def _tabulate(counts: Counter, args: dict, result) -> None:
    counts["scan.coincidences"] += result.coincidences
    counts["scan.tabulated_pairs"] += result.n_pairs


def _trials(counts: Counter, args: dict, result) -> None:
    counts["disks.trials"] += args["n"] if "n" in args else len(args["lams"])


def _write(counts: Counter, args: dict, result) -> None:
    counts["eventio.records_written"] += len(args["events"])
    counts["eventio.bytes_written"] += Path(args["path"]).stat().st_size


def _read(counts: Counter, args: dict, result) -> None:
    counts["eventio.records_read"] += len(result)


def _match(counts: Counter, args: dict, result) -> None:
    counts["eventio.matched"] += result.n_matched


def _generate(counts: Counter, args: dict, result) -> None:
    counts["eventio.truth_pairs"] += len(result.truth)


HOOKS = {
    "optics.emit_phis": _emit,
    "optics.malus_intensities": _optics_bytes,
    "optics.detect_many": _optics_bytes,
    "scan.tabulate_codes": _tabulate,
    "disks.sample_disk_many": _trials,
    "disks.sample_separated": _trials,
    "disks.sample_param_setup": _trials,
    "eventio.write_events": _write,
    "eventio.read_events": _read,
    "eventio.match_coincidences": _match,
    "eventio.generate_events": _generate,
}

#: Matcher spans are split by event stream, which sets how often the
#: greedy walk meets ambiguous candidates.
TAGGED = frozenset({"eventio.match_coincidences"})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(agg: dict[str, tuple[int, int]], counts: Counter, output_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced pass, all but trace.overhead_ratio.

    agg maps span name to (self ns, calls). A layer's self_s sums the self
    times of all its spans.
    """
    def self_ns(prefix: str) -> int:
        return sum(own for name, (own, _) in agg.items() if name == prefix or name.startswith(prefix + "."))

    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            values[name] = (self_ns(span) if "." not in span else agg.get(span, (0, 0))[0]) / 1e9
        elif name.endswith(".calls"):
            values[name] = agg.get(name[: -len(".calls")], (0, 0))[1]
    values.update(
        {
            "cli.output_bytes": output_bytes,
            "optics.pairs": counts["optics.pairs"],
            "optics.ns_per_pair": _ratio(self_ns("optics"), counts["optics.pairs"]),
            "optics.bytes_computed": counts["optics.bytes_computed"],
            "scan.coincidence_ratio": _ratio(counts["scan.coincidences"], counts["scan.tabulated_pairs"]),
            "disks.trials": counts["disks.trials"],
            "disks.us_per_trial": _ratio(self_ns("disks") / 1e3, counts["disks.trials"]),
            "eventio.recovery_ratio": _ratio(counts["eventio.matched"], counts["eventio.truth_pairs"]),
        }
    )
    for name in ("records_written", "records_read", "bytes_written", "matched", "truth_pairs"):
        values[f"eventio.{name}"] = counts[f"eventio.{name}"]
    return values
