"""In-memory spans around the public function of each layer.

A Tracer replaces a layer function at every spectral_walks module that
binds it (the defining module, any module that imported it by name, and
the package namespace) with a wrapper that records a span: name, start,
end, parent span, session id and a few counts taken from the call.  The
program itself is not edited; the wrappers are installed for traced
sessions and removed again for untraced ones.  Spans stay in memory until
the run ends and are then written out once as JSON lines.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

import numpy as np

# (span name, module that defines it, attribute); one row per layer function
SPAN_TARGETS = (
    ("rng.step_uniforms", "spectral_walks.rng", "step_uniforms"),
    ("walks.simulate", "spectral_walks.walks", "simulate"),
    ("walks.martingale_check", "spectral_walks.walks", "martingale_check"),
    ("walks.markov_check", "spectral_walks.walks", "markov_check"),
    ("walks.stationary_measure", "spectral_walks.walks", "stationary_measure"),
    ("walks.harmonic_solve", "spectral_walks.walks", "harmonic_solve"),
    ("spectra.eigh", "spectral_walks.spectra", "eigh"),
    ("spectra.gram_matrix", "spectral_walks.spectra", "gram_matrix"),
    ("spectra.dipole_combination", "spectral_walks.spectra", "dipole_combination"),
    ("spectra.reciprocity_spectrum", "spectral_walks.spectra", "reciprocity_spectrum"),
    ("tree.dipole_function", "spectral_walks.tree", "dipole_function"),
    ("tree.dipole_defect", "spectral_walks.tree", "dipole_defect"),
    ("graphs.energy_inner", "spectral_walks.graphs", "energy_inner"),
    ("graphs.laplacian_apply", "spectral_walks.graphs", "laplacian_apply"),
    ("graphs.load_graph", "spectral_walks.graphs", "load_graph"),
    ("circle.solenoid_walk", "spectral_walks.circle", "solenoid_walk"),
    ("cli._emit", "spectral_walks.cli", "_emit"),
)

# called about a million times per session: counted, not spanned, so the
# trace stays small and its overhead stays below the work it measures
COUNT_TARGETS = (
    ("tree.common_prefix_length", "spectral_walks.tree", "common_prefix_length"),
)


def _items(name, args, kwargs, result) -> dict:
    """Counts recorded on a span, read from the call's arguments and result."""
    if name == "rng.step_uniforms":
        return {"draws": int(np.size(args[0]))}
    if name == "walks.simulate":
        n_steps = kwargs.get("n_steps", args[1] if len(args) > 1 else 0)
        n_paths = kwargs.get("n_paths", args[2] if len(args) > 2 else 0)
        return {"path_steps": int(n_steps) * int(n_paths)}
    if name == "walks.martingale_check":
        return {"tested": len(result.rows), "states": len(result.rows) + len(result.skipped)}
    if name == "spectra.eigh":
        return {"n": len(args[0])}
    if name == "circle.TrigPoly.call":
        return {"points": int(np.size(args[1]))}
    return {}


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, session, items)
        self.counts = {}  # (name, session) -> calls
        self.session = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._saved = []

    # -- the stack of open spans; pool threads hang under the main thread's span

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        main = self._main_stack
        if main and threading.current_thread() is not threading.main_thread():
            return main[-1]
        return None

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            # sessions capture stdout in a StringIO; _emit's bytes are what it appends
            out_pos = sys.stdout.tell() if name == "cli._emit" else 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            items = _items(name, args, kwargs, result)
            if name == "cli._emit":
                items["bytes"] = len(sys.stdout.getvalue()[out_pos:].encode())
            self.spans.append((sid, name, start, end, parent, self.session, items))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            key = (name, self.session)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target at every spectral_walks module that binds it."""
        if self._saved:
            return
        modules = [m for k, m in sys.modules.items() if k == "spectral_walks" or k.startswith("spectral_walks.")]
        for targets, make in ((SPAN_TARGETS, self._span_wrapper), (COUNT_TARGETS, self._count_wrapper)):
            for name, modname, attr in targets:
                original = getattr(importlib.import_module(modname), attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, value))
                            setattr(mod, key, wrapper)
        circle = importlib.import_module("spectral_walks.circle")
        call = circle.TrigPoly.__call__
        self._saved.append((circle.TrigPoly, "__call__", call))
        circle.TrigPoly.__call__ = self._span_wrapper("circle.TrigPoly.call", call)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._saved):
            setattr(owner, key, value)
        self._saved = []

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, session, items in self.spans:
                rec = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "session": session}
                rec.update(items)
                fh.write(json.dumps(rec) + "\n")
            for (name, session), calls in sorted(self.counts.items(), key=str):
                fh.write(json.dumps({"name": name, "session": session, "calls": calls}) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it that child spans cover.

    spans are (id, start, end, parent) tuples.  Children of one parent may
    overlap each other (pool threads), so their union is subtracted, each
    child clipped to the parent's interval.
    """
    by_id = {sid: (start, end) for sid, start, end, _ in spans}
    children = {}
    for sid, start, end, parent in spans:
        if parent in by_id:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in by_id.items():
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if min(e, end) > max(s, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out
