"""In-memory spans and counters around the public functions of ``stateiso``.

The tracer replaces each public function of the nine package modules with
a wrapper at every module attribute that holds it, so calls resolved
through a ``from .x import y`` binding (``stateiso.reductions.random_clifford_rows``)
or a call-time import inside a function are traced too.  A few methods
that carry the hot kernels are wrapped on their class.

A wrapped call is one of three kinds:

* a span (the default): a frame on the thread's stack and a span record
  (id, name, start, end, parent) kept in memory;
* ``TIMED``: the same frame, no span record, for functions called many
  thousands of times per run;
* ``COUNTED``: only a call counter, plus the duration of every
  ``SAMPLE_EVERY``-th call, for microsecond-scale functions whose frame
  would cost as much as the call.  Their time stays in the caller's self
  time, as they are not spans.

Generator functions (``enumerate_cliffords``) count calls and items and
time every ``SAMPLE_EVERY``-th item the same way.

Self time is a frame's duration minus the time covered by its children's
frames.  Totals are kept per thread and merged on export, so the hot path
takes no lock.  Only the standard library is used.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = ("linalg", "paulis", "groups", "psgi", "graphs", "reductions",
           "bosonic", "protocols", "cli")

# Methods whose cost the per-layer metrics name; wrapped on their class.
METHODS = {
    "paulis": {"CliffordElement": ("apply", "to_unitary", "stabilized_state"),
               "PauliOp": ("apply",)},
    "groups": {"FiniteGroupRep": ("unitary",)},
}

TIMED = frozenset({
    "paulis.PauliOp.apply", "paulis.random_clifford_rows", "paulis.rows_to_clifford",
    "paulis.symplectic_from_index", "paulis.CliffordElement.stabilized_state",
    "paulis.CliffordElement.to_unitary",
})
COUNTED = frozenset({
    "bosonic.permanent", "bosonic.transition_amplitude", "bosonic.sector_basis",
    "bosonic.sector_dimension", "groups.FiniteGroupRep.unitary",
    "paulis.symplectic_group_order", "paulis.clifford_group_order",
    "paulis.r_overlap_sq_images", "paulis.is_qubit_permutation_images",
})
SAMPLE_EVERY = 16
SPAN_CAP = 200_000

# per-function totals: calls, total_s, self_s, items, sampled calls, sampled_s
CALLS, TOTAL, SELF, ITEMS, SAMPLED, SAMPLED_S = range(6)


def _new_stat():
    return [0, 0.0, 0.0, 0, 0, 0.0]


class Tracer:
    """Aggregates per-function calls, total and self time, and spans."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent_id, thread)
        self.child_spans = []      # span dicts read back from traced child processes
        self.spans_dropped = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._threads = []         # (stats, edges) of every thread that traced
        self._lock = threading.Lock()
        self._undo = []            # (owner, attr, original)
        self.t0 = time.perf_counter()

    # -- per-thread state ----------------------------------------------
    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.stats, loc.edges
        except AttributeError:
            loc.stack, loc.stats, loc.edges = [], {}, {}
            with self._lock:
                self._threads.append((loc.stats, loc.edges))
            return loc.stack, loc.stats, loc.edges

    # -- frames ----------------------------------------------------------
    def enter(self, name, span=True):
        """Push a frame: [name, start, child_s, span_id]."""
        stack = self._state()[0]
        frame = [name, time.perf_counter(), 0.0, next(self._ids) if span else None]
        stack.append(frame)
        return frame

    def leave(self, frame):
        end = time.perf_counter()
        stack, stats, edges = self._state()
        stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        st = stats.get(name)
        if st is None:
            st = stats[name] = _new_stat()
        st[CALLS] += 1
        st[TOTAL] += dur
        st[SELF] += dur - child
        if stack:
            parent = stack[-1]
            parent[2] += dur
            key = (parent[0], name)
            edges[key] = edges.get(key, 0) + 1
        if span_id is not None:
            if len(self.spans) < SPAN_CAP:
                pid = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans.append((span_id, name, start - self.t0, end - self.t0,
                                   pid, threading.get_ident()))
            else:
                self.spans_dropped += 1

    def _stat(self, name):
        """This thread's totals for ``name``."""
        try:
            stats = self._local.stats
        except AttributeError:
            stats = self._state()[1]
        st = stats.get(name)
        if st is None:
            st = stats[name] = _new_stat()
        return st

    # -- wrapping ------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                st = tracer._stat(name)
                st[CALLS] += 1
                while True:
                    timed = (st[ITEMS] + 1) % SAMPLE_EVERY == 0
                    t0 = time.perf_counter() if timed else 0.0
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    if timed:
                        st[SAMPLED] += 1
                        st[SAMPLED_S] += time.perf_counter() - t0
                    st[ITEMS] += 1
                    yield item
            return gen_wrapper

        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st = tracer._stat(name)
                st[CALLS] += 1
                if st[CALLS] % SAMPLE_EVERY:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    st[SAMPLED] += 1
                    st[SAMPLED_S] += time.perf_counter() - t0
            return counted

        span = name not in TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leave(frame)
        return wrapper

    def install(self):
        """Wrap every public function of the package modules in place."""
        mods = {m: importlib.import_module(f"stateiso.{m}") for m in MODULES}
        wrapped = {}               # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for short, classes in METHODS.items():
            for cls_name, meths in classes.items():
                cls = getattr(mods[short], cls_name)
                for meth in meths:
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- totals ----------------------------------------------------------
    def export(self) -> dict:
        """Totals of every thread, plus those merged from child processes."""
        stats, edges = {}, {}
        with self._lock:
            threads = list(self._threads)
        for t_stats, t_edges in threads:
            for name, st in list(t_stats.items()):
                acc = stats.setdefault(name, _new_stat())
                for i, v in enumerate(st):
                    acc[i] += v
            for key, n in list(t_edges.items()):
                edges[key] = edges.get(key, 0) + n
        return {"stats": stats, "edges": [[list(k), v] for k, v in edges.items()]}

    def merge(self, exported: dict):
        """Fold in the ``export()`` of another tracer."""
        _, stats, edges = self._state()
        for name, st in exported["stats"].items():
            acc = stats.setdefault(name, _new_stat())
            for i, v in enumerate(st):
                acc[i] += v
        for key, n in exported["edges"]:
            key = tuple(key)
            edges[key] = edges.get(key, 0) + n

    def work_snapshot(self) -> dict:
        """Deterministic work: calls and items per function, calls per edge."""
        exp = self.export()
        snap = {k: (v[CALLS], v[ITEMS]) for k, v in exp["stats"].items()}
        snap.update({"->".join(k): (n, 0) for k, n in exp["edges"]})
        return snap

    def write_jsonl(self, path):
        """One JSON object per span, then one per function total."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread in self.spans:
                fh.write(json.dumps({"span": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")
            for rec in self.child_spans:
                fh.write(json.dumps(rec) + "\n")
            for name, st in sorted(self.export()["stats"].items()):
                fh.write(json.dumps({"total": name, "calls": st[CALLS], "total_s": st[TOTAL],
                                     "self_s": st[SELF], "items": st[ITEMS],
                                     "sampled_calls": st[SAMPLED],
                                     "sampled_s": st[SAMPLED_S]}) + "\n")
