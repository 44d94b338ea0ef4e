"""twisteta benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload heat_eta --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's operations (see ``workloads.py``) are CLI calls
through ``twisteta.cli.main`` on configs generated from the seed.  Whole
passes over them repeat until ``--seconds`` have elapsed.  After each pass,
outside its timing, every record is checked against an independent value
(``checks.py``); an operation fails when its command exits non-zero or any of
its records fails its check.

With ``--trace 0`` the end-to-end metrics are measured with no
instrumentation; ``--trace 1`` installs the spans of ``tracing.py`` and
reports the per-layer metrics instead.

End-to-end times are corrected for the speed of the host.  On the 2-CPU
virtual machine this was written on, the same pass ran up to 1.45x slower
from one minute to the next, on both CPUs at once (README.md has the
figures), so raw times of runs minutes apart differ by more than a change
worth detecting.  Before each operation the process moves to the CPU that
runs a short interpreter loop (the probe) fastest.  The probe is timed there
before and after the operation and, from a timer signal, every 25 ms during
it; the probes' own time is not counted.  Each time is multiplied by
``REFERENCE_PROBE_S`` over the mean probe time: it is the time on a host
where the probe takes 0.2 ms.  An operation's time is the median of its
corrected repetitions in the run, and ``wall_s`` is their sum over one pass.
Set-up is timed the same way, without the probes during it.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (each ``{"value", "unit"}``).
Generated configs, records, the result, every timed sample with its scale
(``samples.json``) and the trace are written under ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 8
PROBE_KEYS = tuple((i, i + 1, i + 2) for i in range(-250, 250))
PROBE_INDEX = {key: i for i, key in enumerate(PROBE_KEYS)}
PROBE_REPEATS = 4           # probes before and after an operation
SAMPLE_INTERVAL_S = 0.025   # probes during an operation, from a timer signal
REFERENCE_PROBE_S = 2e-4    # probe time on the host speed times are scaled to
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("points_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
MAX_REPORTED_FAILURES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_sample(args, directory: Path) -> float:
    """Seconds of one set-up in a fresh interpreter (see ``setup_probe.py``)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT), args.workload,
         str(args.seed), str(directory)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("twisteta.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"twisteta imported from {cli.__file__}, not from this checkout")
    return cli


def _probe() -> tuple[float, float]:
    """(start, end) of one run of a fixed interpreter loop.

    The loop does the kind of work the CLI's Python code does (tuple keys,
    dict lookups, list appends, boxed complex numbers), so that it slows
    down with the host about as much as the operations do (README.md)."""
    start = time.perf_counter()
    rows, values = [], []
    for a, b, c in PROBE_KEYS:
        j = PROBE_INDEX.get((a - 1, b - 1, c - 1))
        if j is not None:
            rows.append(j)
            values.append(complex(j, 1.0))
    return start, time.perf_counter()


def _probes() -> list[tuple[float, float]]:
    return [_probe() for _ in range(PROBE_REPEATS)]


def _mean_probe_s(probes) -> float:
    return statistics.fmean(end - start for start, end in probes)


def _pin_fastest_cpu(allowed: set[int]) -> list[tuple[float, float]]:
    """Move this thread to the allowed CPU that runs the probe fastest and
    return the probes made there.

    On a virtual machine each CPU slows down on its own while other guests
    load its physical core; the kernel does not move the process off it."""
    timings = []
    for cpu in sorted(allowed):
        os.sched_setaffinity(0, {cpu})
        probes = _probes()
        timings.append((_mean_probe_s(probes), cpu, probes))
    _, cpu, probes = min(timings)
    os.sched_setaffinity(0, {cpu})
    return probes


def _host_timed(fn, allowed: set[int], sample: bool):
    """``fn()`` on the fastest CPU: (result, wall s, CPU s, host scale).

    A time multiplied by the scale is the time on a host where the probe
    takes ``REFERENCE_PROBE_S``.  The host's speed is the mean probe time
    before, after and, with ``sample``, every ``SAMPLE_INTERVAL_S`` during
    ``fn()``; the time of the probes made during ``fn()`` is not counted."""
    probes = _pin_fastest_cpu(allowed)
    during = []
    if sample:
        signal.signal(signal.SIGALRM, lambda signum, frame: during.append(_probe()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        start, cpu = time.perf_counter(), time.process_time()
        result = fn()
        end, cpu = time.perf_counter(), time.process_time() - cpu
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    during = [(a, b) for a, b in during if start <= a and b <= end]
    busy = sum(b - a for a, b in during)
    probes += during + _probes()
    return result, end - start - busy, cpu - busy, REFERENCE_PROBE_S / _mean_probe_s(probes)


def _call(cli, argv) -> int:
    try:
        return cli.main(argv)
    except Exception:  # an operation that crashes is a failed operation
        traceback.print_exc()
        return 1


def _run_pass(cli, argvs, allowed: set[int], sample: bool):
    """Run every operation once: (exit code, wall s, CPU s, host scale) each."""
    return [_host_timed(functools.partial(_call, cli, argv), allowed, sample)
            for argv in argvs]


def _corrected(samples, index: int) -> float:
    """Median over repetitions of sample[index] times its host scale."""
    return statistics.median(sample[index] * sample[-1] for sample in samples)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "twisteta" / "cli.py").is_file():
        print(f"no twisteta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    cli = _import_cli()
    ops = workloads.generate(args.workload, args.seed)
    configs = workloads.write_configs(ops, out / "configs")
    records = out / "records"
    records.mkdir()
    argvs = [[op.command, "--config", str(cfg), "--out", str(records / f"{op.label}.jsonl")]
             for op, cfg in zip(ops, configs)]
    points = sum(op.points for op in ops)
    specflow_points = sum(op.points for op in ops if op.command == "specflow")
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    allowed = os.sched_getaffinity(0)
    passes, layers, traces, setups = [], [], [], []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        # set-up samples are spread over the run like the passes
        elapsed = time.perf_counter() - start
        while (not args.trace and len(setups) < SETUP_REPEATS
               and elapsed >= len(setups) * args.seconds / SETUP_REPEATS):
            setups.append(_host_timed(functools.partial(
                _setup_sample, args, out / f"setup-{len(setups)}"), allowed, False))
        timed = _run_pass(cli, argvs, allowed, not args.trace)
        passes.append(timed)
        if tracer is not None:
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans, specflow_points))
            traces.append(spans)
        for op, argv, (code, *_) in zip(ops, argvs, timed):
            attempted += 1
            if code != 0:
                failed += 1
                print(f"{op.label}: exit code {code}", file=sys.stderr)
                continue
            problems = checks.check_op(op.command, op.config,
                                       checks.read_records(Path(argv[-1]).read_text()))
            if problems:
                failed += 1
                correct = False
                for line in problems[:MAX_REPORTED_FAILURES]:
                    print(f"{op.label}: {line}", file=sys.stderr)

    per_op = list(zip(*passes))
    wall_s = sum(_corrected(samples, 1) for samples in per_op)
    raw_wall_s = sum(statistics.median(sample[1] for sample in samples) for samples in per_op)
    scale = statistics.median(sample[-1] for samples in per_op for sample in samples)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for (name, unit), value in
                   zip(tracing.PER_LAYER, tracing.fastest_pass_metrics(layers).values())}
        (out / "trace.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "attrs"], "passes": traces}))
    else:
        while len(setups) < SETUP_REPEATS:
            setups.append(_host_timed(functools.partial(
                _setup_sample, args, out / f"setup-{len(setups)}"), allowed, False))
        values = {
            "setup_s": _corrected(setups, 0),
            "wall_s": wall_s,
            "cpu_s": sum(_corrected(samples, 2) for samples in per_op),
            "points_per_s": points / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    (out / "samples.json").write_text(json.dumps(
        {"setup": {"fields": ["s", "scale"], "samples": [s[:1] + s[-1:] for s in setups]},
         "operations": {"fields": ["wall_s", "cpu_s", "scale"],
                        "samples": {op.label: [s[1:] for s in samples]
                                    for op, samples in zip(ops, per_op)}}}))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out / "result.json").write_text(json.dumps(result, indent=1))
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes of "
          f"{len(ops)} operations; pass {wall_s:.4f} s corrected, {raw_wall_s:.4f} s "
          f"measured; median probe {REFERENCE_PROBE_S / scale * 1e3:.3f} ms", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
