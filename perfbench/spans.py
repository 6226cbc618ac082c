"""Spans around catstego's public functions, recorded from outside the package.

The package's modules import each other with ``from .x import y``, so a
function is wrapped by rebinding the name in the module that calls it
(``catstego.schedule.scramble`` is the arnold scatter as schedule sees it).
A target that no longer exists is skipped, and every metric built only from
skipped targets is left out of the result instead of crashing the run.

Spans stay in memory; ``Tracer.cycle_metrics`` turns one cycle's spans into
per-layer numbers and clears them.
"""

from __future__ import annotations

import importlib
import os
import time
from dataclasses import dataclass, field


def _pixels(args, kwargs, result):
    return args[0].shape[0] * args[0].shape[1]


def _returned(args, kwargs, result):
    return result


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


def _data_len(args, kwargs, result):
    return len(args[1])


# (module, attribute, span name, what the span counts)
TARGETS = [
    ("catstego.schedule", "scramble", "arnold.scatter", _pixels),
    ("catstego.schedule", "unscramble", "arnold.scatter", _pixels),
    ("catstego.schedule", "period", "arnold.period", _returned),
    ("catstego.schedule", "parse_key", "schedule.parse_key", None),
    ("catstego.schedule", "schedule_scramble", "schedule.scramble", None),
    ("catstego.schedule", "schedule_unscramble", "schedule.scramble", None),
    ("catstego.bitplane", "schedule_scramble", "schedule.scramble", None),
    ("catstego.bitplane", "schedule_unscramble", "schedule.scramble", None),
    ("catstego.schedule", "random_schedule", "schedule.random_schedule", None),
    ("catstego.bitplane", "embed", "bitplane.embed", None),
    ("catstego.bitplane", "extract", "bitplane.extract", None),
    ("catstego.bitplane", "as_binary", "bitplane.as_binary", None),
    ("catstego.netpbm", "as_binary", "bitplane.as_binary", None),
    ("catstego.bitplane", "pack_payload", "bitplane.pack_payload", None),
    ("catstego.bitplane", "unpack_payload", "bitplane.unpack_payload", None),
    ("catstego.netpbm", "read_gray", "netpbm.read", _file_size),
    ("catstego.netpbm", "read_binary", "netpbm.read", _file_size),
    ("catstego.netpbm", "read_auto", "netpbm.read", _file_size),
    ("catstego.netpbm", "write_gray", "netpbm.write", None),
    ("catstego.netpbm", "write_binary", "netpbm.write", None),
    ("catstego.netpbm", "atomic_write_bytes", "netpbm.write", _data_len),
    ("catstego.metrics", "compare", "metrics.compare", None),
]

CLI = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    info: object = None  # the count the target records, or the CLI command
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


# per-layer metric -> (kind, span name, unit); kinds are explained in _value
METRICS = {
    "arnold.scatter_s": ("total", "arnold.scatter", "s"),
    "arnold.scatter_calls": ("calls", "arnold.scatter", "count"),
    "arnold.pixels_moved": ("info", "arnold.scatter", "count"),
    "arnold.scatter_calls_per_embed": ("calls_in:embed", "arnold.scatter", "count"),
    "arnold.scatter_calls_per_extract": ("calls_in:extract", "arnold.scatter", "count"),
    "arnold.period_s": ("total", "arnold.period", "s"),
    "arnold.period_steps": ("info", "arnold.period", "count"),
    "schedule.parse_key_s": ("total", "schedule.parse_key", "s"),
    "schedule.scramble_self_s": ("self", "schedule.scramble", "s"),
    "schedule.random_schedule_self_s": ("self", "schedule.random_schedule", "s"),
    "bitplane.embed_self_s": ("self", "bitplane.embed", "s"),
    "bitplane.extract_self_s": ("self", "bitplane.extract", "s"),
    "bitplane.as_binary_s": ("total", "bitplane.as_binary", "s"),
    "bitplane.pack_s": ("total", "bitplane.pack_payload", "s"),
    "bitplane.unpack_s": ("total", "bitplane.unpack_payload", "s"),
    "netpbm.read_s": ("total", "netpbm.read", "s"),
    "netpbm.write_s": ("total", "netpbm.write", "s"),
    "netpbm.bytes_read": ("info", "netpbm.read", "B"),
    "netpbm.bytes_written": ("info", "netpbm.write", "B"),
    "metrics.compare_s": ("total", "metrics.compare", "s"),
    "cli.self_s": ("self", CLI, "s"),
}


class Tracer:
    """Installs wrappers, records spans, and reduces them per cycle."""

    def __init__(self):
        self.spans: list[Span] = []
        self.recording = True  # off while the benchmark checks outputs
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.missing = sorted(
            f"{mod}.{attr}" for mod, attr, _, _ in TARGETS if not hasattr(_module(mod), attr)
        )
        present = {name for mod, attr, name, _ in TARGETS if f"{mod}.{attr}" not in self.missing}
        self.metrics = [m for m, (_, name, _) in METRICS.items() if name in present or name == CLI]

    def span(self, name: str, fn, info=None):
        """Call ``fn`` inside a span; ``info`` maps (args, kwargs, result) to a count."""

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            idx = len(self.spans)
            rec = Span(name, time.perf_counter(), parent=parent)
            self.spans.append(rec)
            if parent is not None:
                self.spans[parent].children.append(idx)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = time.perf_counter()
                self._stack.pop()
            if info is not None:
                rec.info = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mod, attr, name, info in TARGETS:
            if f"{mod}.{attr}" in self.missing:
                continue
            module = _module(mod)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self.span(name, orig, info))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    def cli(self, main):
        """``main`` wrapped as the root span of one CLI command."""
        return self.span(CLI, main, _command)

    def cycle_metrics(self) -> dict[str, list[float]]:
        """Reduce and clear this cycle's spans.

        Returns metric -> samples; most metrics give one sample per cycle,
        the ``calls_in`` metrics one per CLI command of that kind. A metric
        whose span never occurred in the cycle gives no sample.
        """
        spans, self.spans = self.spans, []
        out: dict[str, list[float]] = {}
        for metric in self.metrics:
            kind, name, _ = METRICS[metric]
            samples = _value(spans, kind, name)
            if samples:
                out[metric] = samples
        return out


def _module(name: str):
    """The module, or None when it no longer exists."""
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _command(args, kwargs, result):
    return args[0][0]


def _root(spans: list[Span], i: int) -> int:
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def _outermost(spans: list[Span], name: str, counted=False) -> list[Span]:
    """Spans called ``name`` that no other such span encloses; with
    ``counted``, only spans that recorded a count are considered."""
    found = []
    for s in spans:
        if s.name != name or (counted and s.info is None):
            continue
        p = s.parent
        while p is not None and not (
            spans[p].name == name and (spans[p].info is not None or not counted)
        ):
            p = spans[p].parent
        if p is None:
            found.append(s)
    return found


def _value(spans: list[Span], kind: str, name: str) -> list[float]:
    """total: summed time of the outermost spans; self: that minus their
    direct child spans; calls: span count; info: summed counts of the
    outermost counting spans; calls_in:<cmd>: span count under each CLI
    command <cmd>, one sample per command."""
    top = _outermost(spans, name)
    if not top:
        return []
    if kind == "total":
        return [sum(s.duration for s in top)]
    if kind == "self":
        return [sum(s.duration - sum(spans[c].duration for c in s.children) for s in top)]
    if kind == "calls":
        return [float(sum(1 for s in spans if s.name == name))]
    if kind == "info":
        return [float(sum(s.info for s in _outermost(spans, name, counted=True)))]
    cmd = kind.split(":", 1)[1]
    per_cmd = {i: 0 for i, s in enumerate(spans) if s.name == CLI and s.info == cmd}
    for i, s in enumerate(spans):
        if s.name == name and _root(spans, i) in per_cmd:
            per_cmd[_root(spans, i)] += 1
    return [float(v) for v in per_cmd.values()]
