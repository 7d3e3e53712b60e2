"""Closed-loop timing and the per-phase record shared by every workload."""

from __future__ import annotations

import os
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scratch_dir() -> str:
    """A fresh temporary directory inside the checkout; the caller
    removes it."""
    return tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class Phase:
    """What one timed closed-loop phase produced."""

    def __init__(self) -> None:
        #: ``(kind, latency_seconds)`` per completed op; kind "write"
        #: marks mutate-mixed writes, every other kind is a read.
        self.ops: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0
        #: Workload-specific accumulators for the layer metrics.
        self.layer: Dict[str, float] = {}

    def bump(self, name: str, amount: float = 1) -> None:
        self.layer[name] = self.layer.get(name, 0) + amount

    def record(self, kind: str, started: float, ended: float) -> None:
        self.ops.append((kind, ended - started))

    def reads(self) -> List[float]:
        return [op[1] for op in self.ops if op[0] != "write"]

    def writes(self) -> List[float]:
        return [op[1] for op in self.ops if op[0] == "write"]

    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def closed_loop(
    seconds: float, phase: Phase, op: Callable[[int], Optional[str]]
) -> None:
    """Run ``op(i)`` back to back for ``seconds``; ``op`` returns the
    op kind, or raises / returns ``None`` on a failed op."""
    index = 0
    start = time.perf_counter()
    deadline = start + seconds
    now = start
    while now < deadline:
        phase.attempted += 1
        try:
            kind = op(index)
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"op {index} failed: {exc!r}", file=sys.stderr)
            kind = None
        after = time.perf_counter()
        if kind is None:
            phase.failed += 1
        else:
            phase.record(kind, now, after)
        now = after
        index += 1
    phase.wall_s = now - start
