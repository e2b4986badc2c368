"""The polyakit benchmark.

    python3 bench/run.py --workload survey-b12 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One workload runs in one process, closed loop, one item in flight.  The
run covers a fixed number of rounds (see workloads.py): ``--seconds``
divided by the workload's reference seconds per round, so every run of
one length times the same inputs and lasts about ``--seconds`` on the
reference box.  Then every output goes through the correctness gate
(checks.py).

Item times are reported in reference milliseconds: the item's wall time
scaled by REF_CALIBRATION_S over the time a fixed pure-Python loop took
around it (the median of the five calibrations nearest the item).  This
takes out the speed swings of a shared core; the raw wall-clock figures
go into the run record.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the same items run once untraced and once traced
(tracer.py) and the line carries the per-layer metrics.  The line
before it is the run record: commit, Python, CPU count, seed, item
count, tail percentile, fail_frac and the output digest.  Outputs,
per-item verdicts and spans are written to ``.bench_out/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
CALIBRATION_LOOPS = 3000
# the calibration loop's time on an unloaded core of the reference box
# (2-core x86-64 sandbox, Python 3.11); shared cores swing to ~1.4x that
REF_CALIBRATION_S = 250e-6


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all'")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, metavar="T0",
                   help="import polyakit, build the inputs, print time.time() - T0 and exit")
    return p.parse_args(argv)


def take_rounds(workload, rounds, seconds: float) -> list:
    count = max(1, round(seconds / workload.round_s))
    return [item for rnd in rounds[:count] for item in rnd]


def calibrate() -> float:
    """Seconds a fixed pure-Python integer loop takes right now."""
    t0 = time.perf_counter()
    s = 7
    for i in range(CALIBRATION_LOOPS):
        s = (s * 31 + i) % 1000003
    return time.perf_counter() - t0


def run_items(workload, items, tracer=None, calibrated=False):
    """Closed loop over items; returns [(item, code, text, seconds)] and
    the wall time.  With ``calibrated`` the seconds are reference
    seconds (see the module docstring)."""
    clock = time.perf_counter
    results, cal = [], []
    start = clock()
    for i, item in enumerate(items):
        if calibrated:
            cal.append(calibrate())
        token = tracer.begin_item(i) if tracer else None
        t0 = clock()
        try:
            code, text = workload.run_item(item)
        except Exception as exc:  # the gate counts the item as failed
            code, text = None, repr(exc)
        dt = clock() - t0
        if tracer:
            tracer.end_item(token)
        results.append((item, code, text, dt))
    wall = clock() - start
    if calibrated:
        cal.append(calibrate())
        results = [
            (item, code, text, dt * REF_CALIBRATION_S / statistics.median(cal[max(0, i - 2):i + 3]))
            for i, (item, code, text, dt) in enumerate(results)
        ]
    return results, wall


def tail_percentile(times) -> tuple[int, float]:
    """The highest percentile in TAIL_PERCENTILES with at least 10 items
    beyond it (nearest rank), and its value."""
    ordered = sorted(times)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, statistics.median(ordered)


def setup_seconds(workload: str, seed: int) -> float:
    """Median over SETUP_PROBES fresh processes of the time from spawning
    one to the end of its set-up: interpreter start, import polyakit and
    build this run's inputs.  Each probe reports its own elapsed time, so
    the parent's polling for the exit (50 ms steps) does not count."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", repr(time.time())]
        proc = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return None


def run_all(args, names) -> int:
    """Each workload in its own process; one result line per workload."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


def write_outputs(stem: str, results, verdicts, tracer) -> str:
    """Write outputs, per-item verdicts and spans; return the outputs' sha256."""
    OUT.mkdir(exist_ok=True)
    digest = hashlib.sha256()
    with open(OUT / f"{stem}.out", "w", encoding="utf-8") as fh:
        for _, _, text, _ in results:
            line = text if text.endswith("\n") else text + "\n"
            fh.write(line)
            digest.update(line.encode())
    with open(OUT / f"{stem}.items.jsonl", "w", encoding="utf-8") as fh:
        for (item, *_, dt), v in zip(results, verdicts):
            fh.write(json.dumps({"item": item.key, "status": v.status, "s": dt}) + "\n")
    if tracer:
        tracer.write_jsonl(OUT / f"{stem}.spans.jsonl")
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "polyakit" / "__init__.py").is_file():
        print(f"polyakit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = workload.rounds(args.seed)
    if args.setup_probe is not None:
        print(time.time() - args.setup_probe)
        return 0

    from checks import FAILED, OK, Gate, Verdict
    from tracer import Tracer

    tracer = None
    if args.trace:
        items = take_rounds(workload, rounds, args.seconds / 2)
        untraced, wall_untraced = run_items(workload, items)
        tracer = Tracer()
        tracer.install()
        try:
            results, wall = run_items(workload, items, tracer)
        finally:
            tracer.uninstall()
    else:
        items = take_rounds(workload, rounds, args.seconds)
        results, wall = run_items(workload, items, calibrated=True)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gate = Gate(workload.kind, ROOT)
    verdicts = [gate.check(item, code, text) for item, code, text, _ in results]
    if tracer:
        # tracing must not change what the program prints
        verdicts = [
            v if u[1:3] == r[1:3] else Verdict(FAILED, "output changed under tracing")
            for v, u, r in zip(verdicts, untraced, results)
        ]
    attempted = len(results)
    ok = sum(v.status == OK for v in verdicts)
    failed = sum(v.status == FAILED for v in verdicts)
    times = [r[3] for r in results]
    tail_p, tail_s = tail_percentile(times)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    digest = write_outputs(stem, results, verdicts, tracer)

    if tracer:
        metrics = tracer.per_layer_metrics()
        metrics["trace_overhead_frac"] = (wall / wall_untraced - 1, "ratio")
    else:
        metrics = {
            "items_ok_per_s": (ok / sum(times), "items/ref-s"),
            "item_p50_ms": (statistics.median(times) * 1000, "ref-ms"),
            "item_tail_ms": (tail_s * 1000, "ref-ms"),
            "ok_frac": (ok / attempted, "ratio"),
            "setup_s": (setup_seconds(workload.name, args.seed), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "items": attempted,
        "rounds": attempted // len(rounds[0]),
        "wall_s": wall,
        "wall_items_ok_per_s": ok / wall,
        "tail_percentile": tail_p,
        "fail_frac": (attempted - ok) / attempted,
        "incomplete": attempted - ok - failed,
        "failed": failed,
        "first_failures": [
            {"item": item.key, "status": v.status, "reason": v.reason}
            for (item, *_), v in zip(results, verdicts) if v.status != OK
        ][:5],
        "output_sha256": digest,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
