"""Work counters and timing spans, off unless a recording is active.

The kernels call ``count(name, k)`` once per batch and ``span(name)``
around whole operations.  Outside ``recording()`` both do nothing beyond
one context-variable lookup, so outputs and random streams are the same
with counting on and off.  Counts are exact and, under a seed, the same
from run to run; span times are wall-clock seconds.

    with obs.recording() as rec:
        clifford_overlap_sweep(psi1, psi2, 100, 0, 0.99999)
    rec.counts["paulis.cliffords_drawn"]    # 100
"""
from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Recording:
    counts: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)     # name -> [calls, seconds]


_ACTIVE: ContextVar[Optional[Recording]] = ContextVar("stateiso_obs", default=None)


@contextmanager
def recording() -> Iterator[Recording]:
    """Collect counts and spans of the code run inside the block."""
    rec = Recording()
    token = _ACTIVE.set(rec)
    try:
        yield rec
    finally:
        _ACTIVE.reset(token)


def count(name: str, k: int = 1) -> None:
    rec = _ACTIVE.get()
    if rec is not None:
        rec.counts[name] = rec.counts.get(name, 0) + int(k)


@contextmanager
def _timed(rec: Recording, name: str) -> Iterator[None]:
    t0 = time.perf_counter()
    try:
        yield
    finally:
        calls_secs = rec.spans.setdefault(name, [0, 0.0])
        calls_secs[0] += 1
        calls_secs[1] += time.perf_counter() - t0


def span(name: str):
    """A context manager that adds its wall time to ``name``."""
    rec = _ACTIVE.get()
    return nullcontext() if rec is None else _timed(rec, name)
