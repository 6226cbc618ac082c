"""Benchmark of the catstego CLI: one workload, one seed, one JSON line at the end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Measures the package under ``src/`` of the checkout that holds this file
and exits with status 2, printing no result, when there is none. Steps:

1. Write the workload's inputs from the seed with ``catstego.synth`` and
   record their SHA-256 (untimed, in this process).
2. Start the worker process SETUP_PROBES + 1 times. ``setup_s`` is the
   median time from starting a worker to its ``ready`` line: interpreter
   start, ``import catstego`` and one checked warm-up cycle.
3. The last worker also runs the timed closed loop and reports raw samples
   (see worker.py); its ``ru_maxrss`` is ``peak_rss_mb``.

Everything else goes to stdout as a readable report; the last line is
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics of BENCHMARK.json for ``--trace 0`` and its per-layer metrics for
``--trace 1``. Temporary files live under ``.perfbench-work/`` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 2  # with the measured worker, set-up is a median of three processes
DEADLINE_S = 170.0  # for the whole run, workers included
COMMANDS = ("keygen", "embed", "extract", "scramble", "unscramble")
CAVEATS = ("shared 2-core sandbox; wall-clock timing (perf_counter) only; no system-wide "
           "tracing; RSS is getrusage ru_maxrss of the worker; numpy thread pools set to 1")
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[var] = "1"


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker; return (seconds to its ``ready`` line, its JSON result)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    ready, lines = None, []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - start
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready is None or not lines:
        raise RuntimeError(f"worker {' '.join(args)} failed with exit status {code}")
    return ready, json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(samples)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def latencies(cycles: list) -> tuple[dict[str, list[float]], list[float]]:
    """Per-command samples of successful calls, and totals of error-free cycles."""
    per_cmd: dict[str, list[float]] = {}
    totals = []
    for done in cycles:
        for cmd, elapsed, error in done:
            if error is None:
                per_cmd.setdefault(cmd, []).append(elapsed)
        if all(error is None for _, _, error in done):
            totals.append(sum(elapsed for _, elapsed, _ in done))
    return per_cmd, totals


def end_to_end(result: dict, setup: list[float]) -> list[tuple[str, float | None, str, str]]:
    """(name, value, unit, note) rows; value None means too few samples."""
    per_cmd, totals = latencies(result["cycles"]["plain"])
    rows = [("setup_s", statistics.median(setup), "s",
             "median of " + " ".join(f"{s:.4f}" for s in setup))]
    for cmd in COMMANDS:
        if cmd not in per_cmd:
            continue
        samples = per_cmd[cmd]
        rows.append((f"{cmd}_p50_s", statistics.median(samples), "s", f"n={len(samples)}"))
        if cmd in ("embed", "extract", "keygen"):
            t = tail(samples)
            rows.append((f"{cmd}_tail_s", t and t[1], "s",
                         f"p{t[0]}, n={len(samples)}" if t else
                         f"n={len(samples)}; a tail needs 20 or more samples"))
    ok = sum(len(s) for s in per_cmd.values())
    busy = sum(e for done in result["cycles"]["plain"] for _, e, _ in done)
    rows += [
        ("cycle_p50_s", statistics.median(totals) if totals else None, "s",
         f"n={len(totals)} error-free cycles"),
        ("ops_per_s", ok / busy, "1/s", f"{ok} calls in {busy:.3f} s of timed calls"),
        ("error_rate", result["failed"] / result["attempted"], "ratio",
         f"{result['failed']} of {result['attempted']} calls"),
        ("peak_rss_mb", result["rss_kib"] / 1024, "MiB", "ru_maxrss of the worker"),
    ]
    return rows


def per_layer(result: dict) -> list[tuple[str, float, str, str]]:
    """Median per traced cycle; a layer that never ran in this workload is 0."""
    from spans import METRICS

    rows = []
    for metric in result["layer_metrics"]:
        samples = result["layers"].get(metric, [])
        value = statistics.median(samples) if samples else 0.0
        rows.append((metric, value, METRICS[metric][2], f"n={len(samples)}"))
    keys = result["keys"]
    rows.append(("schedule.identity_key_ratio", keys["identity"] / keys["count"] if keys["count"] else 0.0,
                 "ratio", f"{keys['identity']} of {keys['count']} keys compose to I"))
    return rows


def environment() -> list[str]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "catstego").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return [
        f"env python {platform.python_version()} numpy {numpy.__version__} nproc {os.cpu_count()} "
        f"cpu {cpu!r}",
        f"env commit {commit} src_sha256 {src.hexdigest()}",
        f"caveats {CAVEATS}",
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="catstego CLI benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "catstego" / "__init__.py").is_file():
        print(f"error: no catstego package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        digests = workload.generate(work, args.seed)
        base = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
        setup = [spawn([*base, "--seconds", "0"], deadline)[0] for _ in range(SETUP_PROBES)]
        ready, result = spawn([*base, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              deadline)
        setup.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"why {workload.why}")
    for line in environment():
        print(line)
    for name, digest in digests.items():
        print(f"input {name} sha256 {digest}")
    keys = result["keys"]
    print(f"keys {keys['count']} written by keygen, {keys['identity']} compose to I, "
          f"first 16 sha256 {keys['first16_sha256']}")
    counts = ", ".join(f"{len(c)} {mode}" for mode, c in result["cycles"].items())
    print(f"cycles {counts}; {result['attempted']} calls attempted, {result['failed']} failed")
    for error in result["warmup_errors"] + result["errors"]:
        print(f"failure {error}")

    e2e = end_to_end(result, setup)
    print("end-to-end (plain cycles):")
    for name, value, unit, note in e2e:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12} {unit:<6} {note}")
    if args.trace:
        traced_cmd, traced_totals = latencies(result["cycles"]["traced"])
        plain = {name: value for name, value, _, _ in e2e}
        print("tracing overhead (traced median - plain median):")
        traced = {f"{cmd}_p50_s": statistics.median(s) for cmd, s in traced_cmd.items()}
        if traced_totals:
            traced["cycle_p50_s"] = statistics.median(traced_totals)
        for name, value in traced.items():
            if plain.get(name) is not None:
                print(f"  {name:<34} {value - plain[name]:>+12.6f} s")
        if result["missing"]:
            print("missing wrap targets (their metrics are left out): " + " ".join(result["missing"]))
        layer = per_layer(result)
        print("per-layer (traced cycles, median per cycle):")
        for name, value, unit, note in layer:
            print(f"  {name:<34} {value:>12.6g} {unit:<6} {note}")
        chosen = layer
    else:
        gated = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        chosen = [row for row in e2e if row[0] in gated]
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["warmup_errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in chosen},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
