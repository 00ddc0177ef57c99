"""Spans around calls into witnesskit's public functions, from outside it.

``Tracer.install`` replaces each traced function wherever a witnesskit module
binds it (``detection`` calls ``numkit.hermitian_eigenvalues`` through the
module but ``rotated_rank4_value`` and ``reorder`` through names imported into
its own namespace), so every call site is seen without editing the package.
Spans are kept in memory; ``run.py`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

from spec import ENTRY_MODES_N, PER_LAYER

# (module, function) pairs wrapped by the traced run.
TRACED = [
    ("numkit", "hermitian_eigenvalues"),
    ("numkit", "hermitian_eigensystem"),
    ("numkit", "singular_values"),
    ("states", "partial_transpose_first"),
    ("states", "realignment"),
    ("states", "reorder"),
    ("states", "example_34"),
    ("states", "example_35"),
    ("states", "state_from_dict"),
    ("states", "validate"),
    ("witnesses", "rotated_rank4_value"),
    ("detection", "detect"),
    ("detection", "ppt_check"),
    ("detection", "ccnr_check"),
    ("detection", "entry_search"),
    ("detection", "assignment_min_forbidden"),
    ("detection", "distill_search"),
    ("detection", "report_to_dict"),
    ("cli", "main"),
]


def _order(args, kwargs, out):
    return {"order": int(np.shape(args[0])[0])}


def _bound(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, out):
        ba = sig.bind(*args, **kwargs)
        ba.apply_defaults()
        return dict(ba.arguments)

    return note


def _entry_note(fn):
    bound = _bound(fn)

    def note(args, kwargs, out):
        a = bound(args, kwargs, out)
        return {"n": int(a["n"]), "mode": a["mode"], "hit": out is not None}

    return note


def _distill_note(fn):
    bound = _bound(fn)

    def note(args, kwargs, out):
        return {"restarts": int(bound(args, kwargs, out)["restarts"]), "hit": out is not None}

    return note


NOTES = {
    "numkit.hermitian_eigenvalues": lambda fn: _order,
    "numkit.hermitian_eigensystem": lambda fn: _order,
    "detection.entry_search": _entry_note,
    "detection.distill_search": _distill_note,
}


class Tracer:
    """Records spans [name, start, end, parent, item, note] while installed."""

    def __init__(self):
        self.spans = []
        self.item = None
        self.active = True
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        make_note = NOTES.get(name)
        note = make_note(fn) if make_note else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every TRACED function at each place a witnesskit module binds it.
        Functions a later version no longer has are skipped."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "witnesskit" or n.startswith("witnesskit.")}
        for mod_name, fn_name in TRACED:
            mod = mods.get(f"witnesskit.{mod_name}")
            orig = getattr(mod, fn_name, None)
            if orig is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched = []

    def take(self):
        """The spans recorded since the last take, and a fresh buffer."""
        out = self.spans[:]
        del self.spans[:]
        return out


def layer_metrics(spans):
    """Per-layer values of one pass from its spans (times in ms)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    calls, incl, self_t, notes = {}, {}, {}, {}
    for idx, (name, start, end, _parent, _item, note) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur * 1e3
        self_t[name] = self_t.get(name, 0.0) + (dur - child[idx]) * 1e3
        if note is not None:
            notes.setdefault(name, []).append((note, dur * 1e3))

    out = {}
    for name, _unit in PER_LAYER:
        base, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = calls.get(base, 0)
        elif what == "self_ms":
            out[name] = self_t.get(base, 0.0)
        elif what == "ms":
            out[name] = incl.get(base, 0.0)

    orders = [n["order"] for n, _ in notes.get("numkit.hermitian_eigenvalues", [])]
    out["numkit.hermitian_eigenvalues.max_order"] = max(orders, default=0)

    distill = notes.get("detection.distill_search", [])
    restarts = sum(n["restarts"] for n, _ in distill)
    out["detection.distill_search.ms_per_restart"] = (
        incl.get("detection.distill_search", 0.0) / restarts if restarts else 0.0)
    out["detection.distill_search.hit_ratio"] = (
        sum(n["hit"] for n, _ in distill) / len(distill) if distill else 0.0)

    entry = notes.get("detection.entry_search", [])
    for mode, n in ENTRY_MODES_N:
        sel = [ms for note, ms in entry if note["mode"] == mode and note["n"] == n]
        out[f"detection.entry_search.{mode}.n{n}.calls"] = len(sel)
        out[f"detection.entry_search.{mode}.n{n}.ms"] = sum(sel)
    out["detection.entry_search.hit_ratio"] = (
        sum(n["hit"] for n, _ in entry) / len(entry) if entry else 0.0)
    return out
