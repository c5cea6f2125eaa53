"""Encoder throughput measurement (in-memory; file I/O excluded)."""

from __future__ import annotations

import time

import numpy as np

from .encode import encode_chsr
from .errors import SpecInvalid
from .events import _INT64_MAX, EventStream, _integer


def synthetic_uniform_stream(n_events: int) -> EventStream:
    """Seeded stream with exactly n_events uniform events over 10 s on a
    346x260 sensor, for benchmarking."""
    n_events = _integer("n_events", n_events, SpecInvalid, 0, _INT64_MAX)
    w, h = 346, 260
    rng = np.random.default_rng(0)
    x = rng.integers(0, w, n_events)
    y = rng.integers(0, h, n_events)
    t = np.sort(rng.integers(0, 10_000_000, n_events))
    p = rng.choice(np.array([-1, 1], dtype=np.int64), n_events)
    return EventStream.from_arrays((w, h), x, y, t, p).normalized()


def encode_throughput(stream: EventStream, repeats: int, workers: int = 1) -> dict:
    """Time encode_chsr (default config) over `repeats` runs and summarize.

    events_per_sec is derived from the mean wall time, so the two timing
    fields and the rate are mutually consistent. `workers` must be an
    integer >= 1 and leaves the result unchanged.
    """
    repeats = _integer("repeats", repeats, SpecInvalid)
    samples_ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        encode_chsr(stream, workers=workers)
        samples_ms.append((time.perf_counter() - t0) * 1e3)
    mean_ms = float(np.mean(samples_ms))
    return {
        "events": len(stream),
        "repeats": repeats,
        "encode_chsr_mean_ms": mean_ms,
        "encode_chsr_p95_ms": float(np.percentile(samples_ms, 95)),
        "events_per_sec": len(stream) / (mean_ms / 1e3) if mean_ms > 0 else 0.0,
    }
