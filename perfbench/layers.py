"""Traced mode: spans around the program's layer boundaries, from outside.

Nothing under ``src/`` changes.  :class:`LayerTracer` replaces the
callables listed in :data:`TIMED` and :data:`COUNTED` *where they are
looked up* -- every ``repro.*`` module global bound to the function
object, or the class attribute for methods -- with wrappers, and puts
the originals back on :meth:`LayerTracer.uninstall`.

A timed wrapper records one span (callable, start, end, parent) per call
in a per-thread buffer, so spans of worker threads never interleave.  A
span's self time is its duration minus the time covered by its child
spans; a layer's self time is the sum over the spans of its callables.
Callables that run more than about 10^5 times per operation
(``Polynomial`` construction, ``SteadyValue`` comparisons) are counted,
not timed: their cost stays in the self time of the enclosing span.
Spans stay in memory and are written to ``out/`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array

#: (layer, module, qualified attribute) of each timed callable.
TIMED = [
    ("kinetics.root", "repro.kinetics.batch", "warm_root_candidates"),
    ("kinetics.root", "repro.kinetics.batch", "batch_real_roots"),
    ("kinetics.root", "repro.kinetics.polynomial", "Polynomial.real_roots"),
    ("kinetics.root", "repro.kinetics.polynomial", "Polynomial.batch_roots"),
    ("core.family.crossing", "repro.core.family",
     "CurveFamily.prefetch_crossings"),
    ("core.family.crossing", "repro.core.family",
     "PolynomialFamily.crossings"),
    ("core.family.crossing", "repro.core.hull_membership",
     "AngleFamily.crossings"),
    ("core.envelope.combine", "repro.core.envelope", "combine_pairwise"),
    ("machines.charge", "repro.machines.metrics", "Metrics.charge_comm"),
    ("machines.charge", "repro.machines.metrics", "Metrics.charge_local"),
    ("ops.plan", "repro.ops.plans", "execute_plan"),
    ("ops.plan", "repro.ops.vexec", "execute_plan_vectorized"),
    ("geometry.hull", "repro.geometry.convex_hull", "convex_hull"),
    ("service.plan", "repro.service.planner", "plan_batches"),
    ("service.worker", "repro.service.workers", "execute_batch"),
    ("service.driver", "repro.service.model", "run_driver"),
    ("service.payload", "repro.service.model", "response_payload"),
    ("incremental.update", "repro.incremental.engine",
     "IncrementalEnvelope.insert"),
    ("incremental.update", "repro.incremental.engine",
     "IncrementalEnvelope.delete"),
    ("incremental.update", "repro.incremental.engine",
     "IncrementalEnvelope.retarget"),
    ("obs.telemetry", "repro.obs.telemetry", "ServiceTelemetry.emit"),
    ("obs.telemetry", "repro.obs.telemetry", "ServiceTelemetry.observe"),
]

#: (counter, module, qualified attribute) of each counted callable.
COUNTED = [
    ("kinetics.polys_built", "repro.kinetics.polynomial",
     "Polynomial.__init__"),
    ("core.steady.compares", "repro.core.steady.reduction",
     "SteadyValue.__lt__"),
    ("core.steady.compares", "repro.core.steady.reduction",
     "SteadyValue.__le__"),
    ("core.steady.compares", "repro.core.steady.reduction",
     "SteadyValue.__gt__"),
    ("core.steady.compares", "repro.core.steady.reduction",
     "SteadyValue.__ge__"),
    ("core.steady.compares", "repro.core.steady.reduction",
     "SteadyValue.__eq__"),
]

#: Root-isolation entry points and how many polynomials one call hands in.
_ROOTED = {
    "warm_root_candidates": lambda args: len(args[0]),
    "batch_real_roots": lambda args: len(args[0]),
    "Polynomial.batch_roots": lambda args: len(args[0]),
    "Polynomial.real_roots": lambda args: 1,
}

#: Callables whose individual span durations are kept (for medians).
_KEEP_DURATIONS = {"run_driver"}


class _ThreadState:
    """One thread's open-span stack, span buffer and accumulators."""

    def __init__(self, n_names: int, thread: str) -> None:
        self.thread = thread
        self.stack: list[list] = []
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.self_s = [0.0] * n_names
        self.total_s = [0.0] * n_names
        self.calls = [0] * n_names
        self.items = [0] * n_names
        self.durations: dict[int, list] = {}
        self.entries: list[tuple] = []


class LayerTracer:
    """Installs span/count wrappers; aggregates per-layer figures."""

    def __init__(self, on_execute_batch=None) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._on_execute_batch = on_execute_batch
        for layer, _, attr in TIMED + COUNTED:
            self.names.append(attr)
            self.layer_of.append(layer)

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(len(self.names),
                              threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _timed(self, nid: int, fn):
        local = self._local
        make_state = self._state
        clock = time.perf_counter
        weigh = _ROOTED.get(self.names[nid])
        keep = self.names[nid] in _KEEP_DURATIONS
        on_enter = (self._on_execute_batch
                    if self.names[nid] == "execute_batch" else None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = getattr(local, "st", None) or make_state()
            stack = st.stack
            idx = len(st.starts)
            st.names.append(nid)
            st.parents.append(stack[-1][2] if stack else -1)
            st.starts.append(0.0)
            st.ends.append(0.0)
            frame = [0.0, 0.0, idx]
            stack.append(frame)
            t0 = frame[0] = clock()
            if on_enter is not None:
                st.entries.append(on_enter(args, t0))
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.starts[idx] = t0
                st.ends[idx] = t1
                st.self_s[nid] += dur - frame[1]
                st.total_s[nid] += dur
                st.calls[nid] += 1
                if weigh is not None:
                    st.items[nid] += weigh(args)
                if keep:
                    st.durations.setdefault(nid, []).append(dur)
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _counted(self, nid: int, fn):
        local = self._local
        make_state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = getattr(local, "st", None) or make_state()
            st.calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every listed callable at each place it is looked up."""
        if self._patches:
            return
        for nid, (_, modname, attr) in enumerate(TIMED + COUNTED):
            module = importlib.import_module(modname)
            owner_name, _, name = attr.rpartition(".")
            make = self._timed if nid < len(TIMED) else self._counted
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[name]
                if isinstance(raw, staticmethod):
                    self._patch(owner, name,
                                staticmethod(make(nid, raw.__func__)))
                else:
                    self._patch(owner, name, make(nid, raw))
                continue
            fn = getattr(module, name)
            wrapped = make(nid, fn)
            for modname2, mod in list(sys.modules.items()):
                if mod is None or not modname2.startswith("repro"):
                    continue
                for gname, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, gname, wrapped)

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        """Put every original callable back (reverse order of patching)."""
        for owner, name, raw in reversed(self._patches):
            setattr(owner, name, raw)
        self._patches.clear()

    # ------------------------------------------------------------------
    def _sum(self, field: str) -> list:
        out = [0] * len(self.names)
        for st in self._states:
            for i, v in enumerate(getattr(st, field)):
                out[i] += v
        return out

    def layer_totals(self) -> dict:
        """Per-layer ``self_s``, ``total_s``, ``calls`` and ``items``."""
        out: dict[str, dict] = {}
        sums = {f: self._sum(f)
                for f in ("self_s", "total_s", "calls", "items")}
        for i, layer in enumerate(self.layer_of):
            rec = out.setdefault(layer, {"self_s": 0.0, "total_s": 0.0,
                                         "calls": 0, "items": 0})
            for f, vals in sums.items():
                rec[f] += vals[i]
        return out

    def durations(self, attr: str) -> list:
        nid = self.names.index(attr)
        out: list = []
        for st in self._states:
            out.extend(st.durations.get(nid, ()))
        return out

    def entries(self) -> list:
        out: list = []
        for st in self._states:
            out.extend(st.entries)
        return out

    def span_count(self) -> int:
        return sum(len(st.starts) for st in self._states)

    def write_spans(self, path) -> None:
        """Write every recorded span to ``path`` (a NumPy ``.npz``).

        Columns: ``thread`` (index into ``threads``), ``name`` (index
        into ``names``; ``layers`` maps it to its layer), ``parent``
        (row of the parent span within the same thread, -1 for roots),
        ``start``/``end`` (``time.perf_counter`` seconds).
        """
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        cols = {"thread": [], "name": [], "parent": [], "start": [],
                "end": []}
        for t, st in enumerate(self._states):
            cols["thread"].append(np.full(len(st.starts), t, np.int32))
            cols["name"].append(np.frombuffer(st.names, np.int32))
            cols["parent"].append(np.frombuffer(st.parents, np.int32))
            cols["start"].append(np.frombuffer(st.starts, np.float64))
            cols["end"].append(np.frombuffer(st.ends, np.float64))
        arrays = {k: (np.concatenate(v) if v else np.zeros(0))
                  for k, v in cols.items()}
        np.savez(path, names=np.array(self.names),
                 layers=np.array(self.layer_of),
                 threads=np.array([st.thread for st in self._states]),
                 **arrays)
