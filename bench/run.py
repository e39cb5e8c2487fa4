"""Benchmark harness for the eprblab CLI.

    python3 bench/run.py --workload scan-chsh --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it uses the code under src/ there and
writes only under .bench_out/.

--trace 0 runs every command of the workload in a fresh `python -m
eprblab.cli` subprocess, one at a time, pass after pass until --seconds have
elapsed (at least two passes), and reports the end-to-end metrics as medians
over passes. Each launch runs between two launches of reference.py, and
times are reported in reference seconds, which a drift in the machine's
speed does not move (see README.md). --trace 1 calls eprblab.cli.main(argv) in process, alternating
an untraced pass with a pass under the span tracer, and reports per-layer
self times and counters from the traced passes plus the tracing overhead.

Every command's outputs are checked against an oracle (see checks.py) and
digested; a digest that differs between passes of one run is a failure.
Human-readable lines come first; the last line of stdout is one JSON object
with the metrics BENCHMARK.json gates. The full record, with digests and
provenance, goes to .bench_out/result-<workload>-seed<seed>-trace<t>.json.
Exit status: 0 when every operation succeeded, 1 when one failed, 2 when the
checkout holds no src/eprblab.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
import metrics
import workloads
from tracer import Tracer, aggregate, span_problems

OUT = ".bench_out"
#: `eprblab --version` launches before each pass; setup_s is their median.
SETUP_LAUNCHES_PER_PASS = 3
#: The fixed reference task, and its wall time on the 2-core VM the bounds
#: were tuned on. Times reported in reference seconds are scaled by
#: REFERENCE_S over the reference task's time around them (see README.md).
REFERENCE = Path(__file__).resolve().parent / "reference.py"
REFERENCE_S = 0.35
#: A CLI child still running after this many seconds is killed and fails.
CHILD_TIMEOUT_S = 120


class NoCheckout(Exception):
    """The working directory is not an eprblab checkout."""


def load_lab(root: Path) -> SimpleNamespace:
    """Import eprblab from the checkout's src/, and nowhere else."""
    src = root / "src"
    if not (src / "eprblab" / "cli.py").is_file():
        raise NoCheckout(f"no src/eprblab/cli.py under {root}")
    sys.path.insert(0, str(src))
    import eprblab.cli
    import eprblab.domain
    import eprblab.scan

    if Path(eprblab.__file__).resolve().parent != (src / "eprblab").resolve():
        raise NoCheckout(f"eprblab imported from {eprblab.__file__}, not from {src}")
    return SimpleNamespace(cli=eprblab.cli, scan=eprblab.scan, domain=eprblab.domain, src=src)


# --- running one command ---------------------------------------------------------------


@dataclass
class Call:
    wall_s: float
    returncode: int
    stderr: str
    rss_mb: float | None = None
    #: Mean wall time of the reference task just before and just after.
    ref_s: float | None = None

    @property
    def ref_wall_s(self) -> float:
        """wall_s in reference seconds: at the reference machine speed."""
        return self.wall_s * REFERENCE_S / self.ref_s


def run_child(root: Path, src: Path, argv: list[str]) -> Call:
    """One CLI invocation in a fresh interpreter."""
    return run_process(root, [sys.executable, "-m", "eprblab.cli", *argv], str(src))


class Bracketed:
    """Runs each launch between two launches of the reference task.

    The speed of a shared machine drifts within seconds. A launch's ref_s is
    the mean of the reference times on either side of it; each reference
    launch serves the launch before it and the one after.
    """

    def __init__(self, root: Path):
        self.root = root
        self.references: list[float] = []
        self._reference()

    def _reference(self) -> float:
        call = run_process(self.root, [sys.executable, str(REFERENCE)], "")
        if call.returncode != 0:
            raise RuntimeError(f"reference task failed: {call.stderr.strip()[-300:]}")
        self.references.append(call.wall_s)
        return call.wall_s

    def __call__(self, launch) -> Call:
        before = self.references[-1]
        call = launch()
        call.ref_s = 0.5 * (before + self._reference())
        return call


def run_process(root: Path, args: list[str], pythonpath: str) -> Call:
    """Run args from the checkout root; RSS from the child's own rusage."""
    env = dict(os.environ, PYTHONPATH=pythonpath)
    with open(root / OUT / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            args, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Call(wall, proc.returncode, stderr, usage.ru_maxrss / 1024.0)


def run_in_process(cli, argv: list[str]) -> Call:
    """One CLI invocation through eprblab.cli.main in this interpreter."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a harness crash
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return Call(wall, code, err.getvalue())


# --- passes -----------------------------------------------------------------------------


@dataclass
class Op:
    """One command of one pass: its cost, what its check found, its digests."""

    sub: str
    out: str
    call: Call
    reasons: list[str]
    work: int = 0
    info: dict = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    output_bytes: int = 0


def run_pass(root: Path, lab, cmds, invoke, tracer: Tracer | None = None) -> list[Op]:
    shutil.rmtree(root / workloads.WORK, ignore_errors=True)
    ops = []
    for cmd in cmds:
        if tracer is not None:
            tracer.tag = cmd.tag
        call = invoke(list(cmd.argv))
        if tracer is not None:
            tracer.tag = None
        op = Op(cmd.sub, cmd.out, call, [])
        if call.returncode != 0:
            op.reasons.append(f"exit code {call.returncode}: {call.stderr.strip()[-300:]}")
        if "Traceback (most recent call last)" in call.stderr:
            op.reasons.append("traceback on stderr")
        out_dir = root / cmd.out
        try:
            outcome = cmd.check(out_dir, lab)
            op.digests = checks.digests(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            op.reasons.append(f"output missing or unreadable: {exc!r}")
        else:
            op.reasons += outcome.reasons
            op.work, op.info = outcome.work, outcome.info
            op.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
        ops.append(op)
    return ops


def compare_digests(passes: list[list[Op]]) -> None:
    """Mark an op failed when its output bytes differ from the first pass."""
    for later in passes[1:]:
        for first, op in zip(passes[0], later):
            if op.digests and first.digests and op.digests != first.digests:
                changed = sorted(k for k in op.digests if op.digests[k] != first.digests.get(k))
                op.reasons.append(f"output bytes differ from the first pass: {changed}")


# --- the two modes --------------------------------------------------------------------


@dataclass
class Report:
    metrics: dict[str, dict]
    passes: list[list[Op]]
    setup_calls: list[Call] = field(default_factory=list)
    spans: dict = field(default_factory=dict)
    span_problems: list[str] = field(default_factory=list)

    @property
    def ops(self) -> list[Op]:
        return [op for p in self.passes for op in p]

    @property
    def failures(self) -> list[str]:
        out = [f"{op.out}: {r}" for op in self.ops for r in op.reasons]
        out += [f"--version: exit code {c.returncode}" for c in self.setup_calls if c.returncode]
        return out

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.setup_calls)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.reasons) + sum(1 for c in self.setup_calls if c.returncode)


def _metric(name: str, values: list[float], registry=metrics.END_TO_END) -> tuple[str, dict]:
    unit = registry[name][0]
    return name, {"value": statistics.median(values), "unit": unit, "n": len(values), "samples": values}


def _more(durations: list[float], start: float, seconds: float, at_least: int) -> bool:
    """Whether another round fits in the run, judged by the rounds so far."""
    if len(durations) < at_least:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _sum(ops: list[Op], sub: str | None = None, clock: bool = False) -> float:
    """Summed wall time of ops (of one subcommand), in reference seconds when
    the calls were bracketed by the reference task, unless clock is set."""
    return sum(
        op.call.wall_s if clock or op.call.ref_s is None else op.call.ref_wall_s
        for op in ops
        if sub is None or op.sub == sub
    )


def run_untraced(root: Path, lab, workload: str, seed: int, seconds: float, size: str) -> Report:
    cmds = workloads.commands(workload, seed, size)
    setup: list[Call] = []
    passes: list[list[Op]] = []
    rounds: list[float] = []
    bracketed = Bracketed(root)
    start = time.perf_counter()
    while _more(rounds, start, seconds, at_least=2):
        began = time.perf_counter()
        setup += [bracketed(lambda: run_child(root, lab.src, ["--version"]))
                  for _ in range(SETUP_LAUNCHES_PER_PASS)]
        passes.append(run_pass(root, lab, cmds, lambda argv: bracketed(lambda: run_child(root, lab.src, argv))))
        rounds.append(time.perf_counter() - began)
    compare_digests(passes)
    report = Report({}, passes, setup_calls=setup)
    unit = metrics.THROUGHPUT[workload]
    values = dict(
        [
            _metric("setup_s", [c.ref_wall_s for c in setup]),
            _metric("wall_s", [_sum(p) for p in passes]),
            _metric("peak_rss_mb", [max(op.call.rss_mb for op in p) for p in passes]),
            _metric(unit, [sum(op.work for op in p) / _sum(p) for p in passes]),
        ]
        + [
            _metric(f"{sub}_s", [_sum(p, sub) for p in passes])
            for sub in dict.fromkeys(cmd.sub for cmd in cmds)
        ]
        + [
            _metric("setup_clock_s", [c.wall_s for c in setup]),
            _metric("wall_clock_s", [_sum(p, clock=True) for p in passes]),
            _metric("reference_s", bracketed.references),
        ]
    )
    values["fail_ratio"] = {"value": report.failed / report.attempted, "unit": "ratio",
                            "n": report.attempted, "failed": report.failed}
    report.metrics = values
    return report


def run_traced(root: Path, lab, workload: str, seed: int, seconds: float, size: str) -> Report:
    cmds = workloads.commands(workload, seed, size)
    tracer = Tracer("eprblab", metrics.HOOKS, metrics.TAGGED)
    plain: list[list[Op]] = []
    traced: list[list[Op]] = []
    layers: list[dict[str, float]] = []
    problems: list[str] = []
    agg: dict = {}
    invoke = lambda argv: run_in_process(lab.cli, argv)  # noqa: E731

    def traced_pass() -> None:
        nonlocal agg
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(root, lab, cmds, invoke, tracer))
        finally:
            tracer.uninstall()
        spans = list(tracer.spans)
        agg = aggregate(spans)
        problems.extend(span_problems(spans))
        layers.append(metrics.layer_values(agg, tracer.counts, sum(op.output_bytes for op in traced[-1])))

    rounds: list[float] = []
    start = time.perf_counter()
    while _more(rounds, start, seconds, at_least=1):
        began = time.perf_counter()
        # Alternate which side of each pair runs first, so drift and warm-up
        # do not all land on one side of the overhead ratio.
        if len(traced) % 2:
            traced_pass()
        plain.append(run_pass(root, lab, cmds, invoke))
        if len(traced) < len(plain):
            traced_pass()
        rounds.append(time.perf_counter() - began)
    compare_digests(plain + traced)
    values = dict(_metric(name, [v[name] for v in layers], metrics.PER_LAYER) for name in layers[0])
    values.update([_metric("trace.overhead_ratio", [_sum(t) / _sum(p) for p, t in zip(plain, traced)],
                           metrics.PER_LAYER)])
    spans_out = {name: {"self_s": own / 1e9, "calls": calls} for name, (own, calls) in sorted(agg.items())}
    return Report(values, plain + traced, spans=spans_out, span_problems=problems)


# --- provenance and output -------------------------------------------------------------


def _last_level_cache() -> str | None:
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(caches.glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best[0]:
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def provenance(root: Path, src: Path) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "last_level_cache": _last_level_cache(),
        "git_commit": _git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((src / "eprblab").glob("*.py"))),
    }


def human_lines(workload: str, trace: bool, report: Report, prov: dict) -> list[str]:
    lines = [f"# eprblab benchmark, workload {workload}, {'traced in process' if trace else 'CLI subprocesses'}"]
    lines += [f"# {k} = {v}" for k, v in prov.items()]
    for name, m in report.metrics.items():
        extra = f", {m['failed']} failed of {m['n']} attempted" if "failed" in m else f" (median of {m['n']})"
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    for op in report.passes[0]:
        if op.info:
            lines.append(f"check {op.out}: " + ", ".join(f"{k} {v:.6g}" for k, v in op.info.items()))
    lines += [f"FAILED {f}" for f in report.failures]
    return lines


def result_record(workload, seed, trace, report: Report, prov: dict) -> dict:
    first_pass = report.passes[0]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "provenance": prov,
        "metrics": report.metrics,
        "attempted": report.attempted,
        "failed": report.failed,
        "failures": report.failures,
        "digests": {op.out: op.digests for op in first_pass},
        "checks": {op.out: op.info for op in first_pass},
        "spans": report.spans,
        "span_problems": report.span_problems[:50],
        "layer_map": {name: [list(m) for m in moves] for name, (_, _, moves) in metrics.PER_LAYER.items()},
    }


def gated(report: Report, spec: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json declares for this mode, value and unit only."""
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        m = report.metrics[entry["name"]]
        if m["unit"] != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {m['unit']} but BENCHMARK.json says {entry['unit']}")
        out[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run one workload; returns (report, provenance). Raises NoCheckout."""
    lab = load_lab(root)
    (root / OUT).mkdir(exist_ok=True)
    mode = run_traced if trace else run_untraced
    try:
        report = mode(root, lab, workload, seed, seconds, size)
    finally:
        shutil.rmtree(root / workloads.WORK, ignore_errors=True)
        (root / OUT / "stderr.txt").unlink(missing_ok=True)
    return report, provenance(root, lab.src)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        report, prov = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (NoCheckout, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in human_lines(args.workload, bool(args.trace), report, prov):
        print(line)
    record = result_record(args.workload, args.seed, args.trace, report, prov)
    path = root / OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"# full record: {path.relative_to(root)}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": gated(report, spec, bool(args.trace)),
    }))
    return 0 if report.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
