"""One measured workload process: warm up, then time CLI calls in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --dir WORKDIR --seconds S --trace 0|1

Started by run.py after the inputs are in WORKDIR. Prints ``ready`` once
catstego is imported and one warm-up cycle has run and been checked (run.py
times set-up up to that line), then, after the timed loop, one JSON line
with the raw samples. ``--seconds 0`` stops after ``ready``.

One thread, one client: each CLI call starts after the previous one and its
check have finished. The loop stops once the calls themselves (checks
excluded) have taken ``--seconds`` and at least MIN_CYCLES cycles ran. With
``--trace 1``, cycles alternate between plain and traced, so one process
yields per-layer spans and the tracing overhead.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from catstego import cli  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_CYCLES = 3  # per mode, so that every median has a middle


def run_op(main, argv, check, tracer) -> tuple[float, str | None]:
    """Time one CLI call, then check its output; returns (seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:  # a crashing call is one failed op, not a failed run
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, f"{argv[0]} exited with {code}: {err.getvalue().strip()[:200]}"
    if tracer is not None:
        tracer.recording = False
    try:
        check(out.getvalue())
    except (workloads.CheckFailed, ValueError, OSError) as exc:
        return elapsed, f"{argv[0]}: {exc}"
    finally:
        if tracer is not None:
            tracer.recording = True
    return elapsed, None


def run_cycle(workload, i, main, tracer=None) -> list[tuple[str, float, str | None]]:
    """Run cycle i's calls in order; a failed call ends the cycle."""
    done = []
    for cmd, argv, check in workload.ops(i):
        elapsed, error = run_op(main, argv, check, tracer)
        done.append((cmd, elapsed, error))
        if error is not None:
            break
    return done


def measure(args) -> dict:
    work = Path(args.dir)
    workload = workloads.WORKLOADS[args.workload](work, args.seed, cli.main)
    warmup = run_cycle(workload, 0, cli.main)
    print("ready", flush=True)
    result = {"warmup_errors": [e for _, _, e in warmup if e is not None]}
    if args.seconds == 0:
        return result

    tracer = Tracer() if args.trace else None
    modes = ("plain", "traced") if args.trace else ("plain",)
    cycles = {m: [] for m in modes}  # per cycle: [(command, seconds, error)]
    layers: dict[str, list[float]] = {}
    timed, i = 0.0, 1
    while timed < args.seconds or min(len(c) for c in cycles.values()) < MIN_CYCLES:
        mode = modes[(i - 1) % len(modes)]
        if mode == "traced":
            tracer.install()
            try:
                done = run_cycle(workload, i, tracer.cli(cli.main), tracer)
            finally:
                tracer.uninstall()
            for metric, samples in tracer.cycle_metrics().items():
                layers.setdefault(metric, []).extend(samples)
        else:
            done = run_cycle(workload, i, cli.main)
        cycles[mode].append(done)
        timed += sum(elapsed for _, elapsed, _ in done)
        i += 1

    ops = [op for runs in cycles.values() for done in runs for op in done]
    errors = [e for _, _, e in ops if e is not None]
    result.update(
        cycles=cycles,
        attempted=len(ops),
        failed=len(errors),
        errors=errors[:5],
        keys=workload.keys.summary(),
        rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if tracer is not None:
        result.update(layers=layers, layer_metrics=tracer.metrics, missing=tracer.missing)
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = measure(p.parse_args(argv))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
