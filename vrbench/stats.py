"""Sample statistics and failure accounting for benchmark operations."""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = MIN_BEYOND):
    """Highest percentile that has at least ``min_beyond`` samples above it.

    Returns ``(percentile, value)``: the value is the sorted sample at index
    ``n - min_beyond - 1``, which leaves exactly ``min_beyond`` samples above
    it, and the percentile is the share of samples at or below it.  Returns
    None when there are too few samples for any such percentile.
    """
    values = sorted(samples)
    n = len(values)
    if n <= min_beyond:
        return None
    idx = n - min_beyond - 1
    return 100.0 * (idx + 1) / n, values[idx]


def tail_or_max(samples, min_beyond: int = MIN_BEYOND):
    """``tail_percentile`` when it lies above the median; otherwise, with
    ``2 * min_beyond`` samples or fewer, the maximum, labelled p100."""
    tail = tail_percentile(samples, min_beyond)
    if tail is None or tail[0] <= 50.0:
        return 100.0, max(samples)
    return tail


@dataclass
class OpLog:
    """Attempted and failed operations, with the latency of each attempt.

    An operation fails when it raises or when any gate checked on its output
    fails later; each operation counts at most once toward ``failed``.
    """

    attempted: int = 0
    latencies: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    errors: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def run(self, fn, *args):
        """Time ``fn(*args)`` as one operation; returns (op_id, result or None)."""
        op_id = self.attempted
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an operation that raises is a counted failure
            self.latencies.append(time.perf_counter() - start)
            self.fail(op_id, traceback.format_exc(limit=4))
            return op_id, None
        self.latencies.append(time.perf_counter() - start)
        return op_id, result

    def fail(self, op_id: int, reason: str) -> None:
        self.failed_ops.add(op_id)
        self.errors.append(f"op {op_id}: {reason}")

    def check(self, op_id: int, reasons) -> None:
        """Record each failed gate reason against one operation."""
        for reason in reasons:
            self.fail(op_id, reason)
