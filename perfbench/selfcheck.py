"""Tests of the benchmark harness itself (not of catstego).

    python3 -m pytest perfbench/selfcheck.py

The file name keeps these out of the package's own test run.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402
from catstego import cli  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import SmallKeyedBatch  # noqa: E402

SEED = 3


@pytest.fixture
def small(tmp_path):
    digests = SmallKeyedBatch.generate(tmp_path, SEED)
    return SmallKeyedBatch(tmp_path, SEED, cli.main), digests


def corrupting(command: str, prefix: str, flip):
    """cli.main, except that after ``command`` it flips one bit of the
    output file whose name starts with ``prefix``; ``flip(data)`` picks it."""

    def main(argv):
        code = cli.main(argv)
        if argv[0] == command:
            path = next(Path(a) for a in argv if Path(a).name.startswith(prefix))
            data = bytearray(path.read_bytes())
            byte, bit = flip(data)
            data[byte] ^= 1 << bit
            path.write_bytes(bytes(data))
        return code

    return main


def test_clean_cycles_pass_every_check(small):
    workload, _ = small
    for i in range(1, 5):
        done = worker.run_cycle(workload, i, cli.main)
        assert [(cmd, err) for cmd, _, err in done] == [
            ("keygen", None), ("embed", None), ("extract", None)]
    assert workload.keys.count == 4


PIXEL = len(b"P5\n128 128\n255\n") + 100  # one pixel of the stego image


@pytest.mark.parametrize("command, prefix, flip, reason", [
    ("keygen", "key.txt", lambda data: (0, 0), "unparsable"),
    ("embed", "stego", "unused plane", "outside the key's PLANES"),
    ("embed", "stego", "used plane", "composite-matrix reference"),
    ("extract", "out0", lambda data: (len(data) - 1, 0), "differs from its input"),
])
def test_corrupted_output_is_counted_as_failure(small, command, prefix, flip, reason):
    workload, _ = small
    if flip == "unused plane":
        flip = lambda data: (PIXEL, min(set(range(8)) - set(workload.key.planes)))  # noqa: E731
    elif flip == "used plane":
        flip = lambda data: (PIXEL, workload.key.planes[0])  # noqa: E731
    done = worker.run_cycle(workload, 1, corrupting(command, prefix, flip))
    failed = [(cmd, err) for cmd, _, err in done if err is not None]
    assert len(failed) == 1 and failed[0][0] == command and reason in failed[0][1], done
    assert done[-1][0] == command  # the cycle stops at the failed call


def test_missing_wrap_target_drops_its_metric(small, monkeypatch):
    workload, _ = small
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + [
        ("catstego.schedule", "renamed_away", "schedule.gone", None)])
    monkeypatch.setattr(spans, "METRICS", dict(spans.METRICS, **{
        "schedule.gone_s": ("total", "schedule.gone", "s")}))
    tracer = spans.Tracer()
    assert tracer.missing == ["catstego.schedule.renamed_away"]
    assert "schedule.gone_s" not in tracer.metrics
    tracer.install()
    try:
        done = worker.run_cycle(workload, 1, tracer.cli(cli.main), tracer)
    finally:
        tracer.uninstall()
    assert all(err is None for _, _, err in done)
    layers = tracer.cycle_metrics()
    key = workload.key
    assert layers["arnold.scatter_calls_per_embed"] == [len(key.stages) * len(key.planes)]
    assert layers["arnold.scatter_calls"] == [2 * len(key.stages) * len(key.planes)]
    assert "schedule.gone_s" not in layers


def test_same_seed_same_inputs_and_keys(tmp_path):
    a, b, c = (tmp_path / d for d in "abc")
    for d in (a, b, c):
        d.mkdir()
    assert SmallKeyedBatch.generate(a, SEED) == SmallKeyedBatch.generate(b, SEED)
    assert SmallKeyedBatch.generate(c, SEED + 1) != SmallKeyedBatch.generate(a, SEED)
    runs = [SmallKeyedBatch(d, SEED, cli.main) for d in (a, b)]
    for w in runs:
        for i in range(1, 4):
            worker.run_cycle(w, i, cli.main)
    assert runs[0].keys.summary() == runs[1].keys.summary()
