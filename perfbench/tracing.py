"""Spans around heatback's public entry points, installed without editing heatback.

Every wrapper is patched onto the name where the *calling* module looks the
function up (``from .x import y`` binds ``y`` at import time, so patching the
home module would miss those calls).  Methods are patched on their class.
A lookup site that no longer exists is recorded as absent and skipped, so a
later refactor leaves the benchmark running with that layer reported absent.

Spans are kept in memory as tuples and written out when the run ends.  A
layer's self time is its span time minus the union of its child spans.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (span name, module the caller looks the name up in, attribute path)
SITES = (
    ("spectral.eigmat", "heatback.spectral", "EigenBasis.eigenfunction_matrix"),
    ("spectral.evaluate", "heatback.spectral", "SpectralField.evaluate"),
    ("spectral.project", "heatback.filtering", "project"),
    ("spectral.project", "heatback.harness", "project"),
    ("spectral.gram", "heatback.harness", "gram_subdomain"),
    ("control.solve", "heatback.control", "solve_control"),
    ("control.factor", "heatback.control", "cho_factor"),
    ("control.cho_solve", "heatback.control", "cho_solve"),
    ("control.h_values", "heatback.pipeline", "h_values"),
    ("pipeline.local", "heatback.harness", "local_reconstruct"),
    ("pipeline.fbar", "heatback.pipeline", "assemble_fbar"),
    ("pipeline.certify", "heatback.pipeline", "certified_delta_3T"),
    ("filtering.global", "heatback.harness", "global_backward"),
    ("filtering.global", "heatback.filtering", "global_backward"),
    ("filtering.select_alpha", "heatback.filtering", "select_alpha"),
    ("filtering.select_alpha", "heatback.pipeline", "select_alpha"),
    ("filtering.apply_filter", "heatback.filtering", "apply_filter"),
    ("filtering.apply_filter", "heatback.pipeline", "apply_filter"),
    ("filtering.baseline", "heatback.harness", "truncation_baseline"),
    ("observability.chain", "heatback.harness", "fit_empirical_constants"),
    ("observability.chain", "heatback.harness", "constants_convex"),
    ("observability.chain", "heatback.harness", "chain_full_domain"),
    ("harness.sweep", "heatback.harness", "run_sweep"),
    ("harness.cell", "heatback.harness", "_sweep_cell"),
    ("harness.noise", "heatback.harness", "inject_noise"),
    ("harness.synth", "heatback.harness", "synthesize_initial"),
    ("observability.synth", "heatback.observability", "synthesize_initial"),
    ("harness.csv", "heatback.harness", "rows_to_csv"),
    ("fd.evolve", "heatback.fd", "fd_evolve"),
    ("fd.banded_solve", "heatback.fd", "solve_banded"),
)


def _eigmat_note(args, kwargs, result):
    # the grid itself is kept and hashed when metrics are computed, outside every span
    xs = args[1] if len(args) > 1 else kwargs["xs"]
    return (result.shape[0] * result.shape[1] * 8, result.shape[1], xs)


def _grid_key(n_modes, xs) -> str:
    import numpy as np

    data = np.ascontiguousarray(xs, dtype=float)
    return f"{n_modes}:{hashlib.blake2b(memoryview(data), digest_size=8).hexdigest()}"


def _fd_note(args, kwargs, result):
    steps = args[4] if len(args) > 4 else kwargs["steps"]
    return (steps, result.size)


# values the per-layer metrics need from a call, taken after its span closed
NOTES = {
    "spectral.eigmat": _eigmat_note,
    "control.solve": lambda a, k, r: r.identity_residual,
    "pipeline.local": lambda a, k, r: r.claimed_delta / r.certified_delta,
    "filtering.select_alpha": lambda a, k, r: bool(r.gate_zero),
    "fd.evolve": _fd_note,
}


PER_LAYER_UNITS = {
    "spectral.eigmat.calls": "count/op",
    "spectral.eigmat.self_s": "s/op",
    "spectral.eigmat.bytes": "B/op",
    "spectral.eigmat.distinct_frac": "ratio",
    "spectral.project.self_s": "s/op",
    "spectral.evaluate.self_s": "s/op",
    "spectral.gram.s": "s/op",
    "control.solve.calls": "count/op",
    "control.solve.self_s": "s/op",
    "control.factor.calls": "count/op",
    "control.factor.per_system": "count",
    "control.cho_solve.calls": "count/op",
    "control.h_values.self_s": "s/op",
    "control.identity_resid_max": "abs",
    "pipeline.local.s": "s/op",
    "pipeline.fbar.self_s": "s/op",
    "pipeline.certify.s": "s/op",
    "pipeline.claim_slack_min": "ratio",
    "filtering.global.s": "s/op",
    "filtering.select_alpha.s": "s/op",
    "filtering.apply_filter.s": "s/op",
    "filtering.baseline.s": "s/op",
    "filtering.gate_zero_frac": "ratio",
    "observability.chain.s": "s/op",
    "observability.chain.calls": "count/op",
    "harness.sweep.s": "s/op",
    "harness.cells": "count/op",
    "harness.noise.s": "s/op",
    "harness.synth.s": "s/op",
    "harness.csv.s": "s/op",
    "harness.orchestration.self_s": "s/op",
    "harness.worker_busy_frac": "ratio",
    "fd.evolve.s": "s/op",
    "fd.steps": "count/op",
    "fd.banded_solves": "count/op",
    "fd.point_steps_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans (name, start, end, parent, op, thread) from patched call sites."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.notes: dict[int, object] = {}
        self.calls: dict = defaultdict(int)  # code object of a wrapped function -> calls
        self.absent: list[str] = []
        self.note_errors: dict[str, int] = defaultdict(int)
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------
    def install(self, sites=SITES):
        resolved = []
        for name, module_name, path in sites:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{name} ({module_name}.{path})")
                continue
            resolved.append((name, owner, attr, original))
        for name, owner, attr, original in resolved:
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((name, owner, attr, original))

    def uninstall(self):
        for name, owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def wrapped_functions(self) -> dict:
        """Code object of each wrapped function -> its qualified name."""
        out = {}
        for name, owner, attr, original in self._patched:
            fn = inspect.unwrap(original)
            if hasattr(fn, "__code__"):  # a builtin cannot be profiled by code object
                out[fn.__code__] = f"{fn.__module__}.{fn.__qualname__}"
        return out

    # -- recording --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        note = NOTES.get(name)
        perf = time.perf_counter
        spans = self.spans
        calls = self.calls
        # a decorator's inner code object is shared by every function it decorates
        code = getattr(inspect.unwrap(fn), "__code__", None)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # pool thread: attach to the span that is waiting for it
                root = tracer._root_stack
                parent = root[-1] if root else 0
            sid = next(tracer._ids)
            calls[code] += 1
            stack.append(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, tracer.op, threading.get_ident()))
            if note is not None:
                try:
                    tracer.notes[sid] = note(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ZeroDivisionError):
                    tracer.note_errors[name] += 1  # a refactored result must not fail the op
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id):
        """Open the root span of one op on the calling thread."""
        self.op = op_id
        stack = self._stack()
        self._root_stack = stack
        sid = next(self._ids)
        stack.append(sid)
        return sid, time.perf_counter()

    def end_op(self, handle):
        sid, t0 = handle
        t1 = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, "op", t0, t1, 0, self.op, threading.get_ident()))

    def reset(self):
        self.spans.clear()
        self.notes.clear()
        self.calls.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, op, thread in self.spans:
                rec = {"id": sid, "name": name, "start": t0, "end": t1,
                       "parent": parent, "op": op, "thread": thread}
                note = self.notes.get(sid)
                if isinstance(note, tuple):
                    note = [v for v in note if isinstance(v, (int, float))]
                if note is not None:
                    rec["note"] = note
                fh.write(json.dumps(rec) + "\n")


def count_calls(codes, run) -> dict:
    """Run ``run()`` under a profiler and count the calls of each code object.

    This is independent of the wrappers: it sees every call of the original
    function, however the caller looked it up.
    """
    codes = set(codes)
    counts = defaultdict(int)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[frame.f_code] += 1

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return counts


def _union_within(intervals, lo, hi) -> float:
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_stats(spans):
    """Per span name: calls, total time and self time."""
    children = defaultdict(list)
    for sid, name, t0, t1, parent, op, thread in spans:
        if parent:
            children[parent].append((t0, t1))
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    for sid, name, t0, t1, parent, op, thread in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_time[name] += (t1 - t0) - _union_within(children.get(sid, ()), t0, t1)
    return calls, total, self_time


def per_layer_metrics(tracer: Tracer, n_ops: int, workers: int,
                      untraced_ms: list[float], traced_ms: list[float]) -> dict:
    """The per-layer metrics of one traced phase; every time is per op."""
    calls, total, self_time = layer_stats(tracer.spans)
    notes_by_name = defaultdict(list)
    names = {sid: name for sid, name, *_ in tracer.spans}
    for sid, note in tracer.notes.items():
        notes_by_name[names[sid]].append(note)
    per_op = 1.0 / max(n_ops, 1)

    eig = notes_by_name["spectral.eigmat"]
    eig_ops = defaultdict(list)
    for sid, name, t0, t1, parent, op, thread in tracer.spans:
        if name == "spectral.eigmat" and sid in tracer.notes:
            _, n_modes, xs = tracer.notes[sid]
            eig_ops[op].append(_grid_key(n_modes, xs))
    distinct = [len(set(keys)) / len(keys) for keys in eig_ops.values()]

    locals_ = calls["pipeline.local"]
    selects = notes_by_name["filtering.select_alpha"]
    fd = notes_by_name["fd.evolve"]
    fd_points = sum(steps * points for steps, points in fd)
    sweep_wall = total["harness.sweep"]
    overhead = (statistics.median(traced_ms) / statistics.median(untraced_ms) - 1.0
                if traced_ms and untraced_ms else 0.0)

    metrics = {
        "spectral.eigmat.calls": calls["spectral.eigmat"] * per_op,
        "spectral.eigmat.self_s": self_time["spectral.eigmat"] * per_op,
        "spectral.eigmat.bytes": sum(note[0] for note in eig) * per_op,
        "spectral.eigmat.distinct_frac": statistics.fmean(distinct) if distinct else 0.0,
        "spectral.project.self_s": self_time["spectral.project"] * per_op,
        "spectral.evaluate.self_s": self_time["spectral.evaluate"] * per_op,
        "spectral.gram.s": total["spectral.gram"] * per_op,
        "control.solve.calls": calls["control.solve"] * per_op,
        "control.solve.self_s": self_time["control.solve"] * per_op,
        "control.factor.calls": calls["control.factor"] * per_op,
        "control.factor.per_system": calls["control.factor"] / locals_ if locals_ else 0.0,
        "control.cho_solve.calls": calls["control.cho_solve"] * per_op,
        "control.h_values.self_s": self_time["control.h_values"] * per_op,
        "control.identity_resid_max": max(notes_by_name["control.solve"], default=0.0),
        "pipeline.local.s": total["pipeline.local"] * per_op,
        "pipeline.fbar.self_s": self_time["pipeline.fbar"] * per_op,
        "pipeline.certify.s": total["pipeline.certify"] * per_op,
        "pipeline.claim_slack_min": min(notes_by_name["pipeline.local"], default=0.0),
        "filtering.global.s": total["filtering.global"] * per_op,
        "filtering.select_alpha.s": total["filtering.select_alpha"] * per_op,
        "filtering.apply_filter.s": total["filtering.apply_filter"] * per_op,
        "filtering.baseline.s": total["filtering.baseline"] * per_op,
        "filtering.gate_zero_frac": sum(selects) / len(selects) if selects else 0.0,
        "observability.chain.s": total["observability.chain"] * per_op,
        "observability.chain.calls": calls["observability.chain"] * per_op,
        "harness.sweep.s": sweep_wall * per_op,
        "harness.cells": calls["harness.cell"] * per_op,
        "harness.noise.s": total["harness.noise"] * per_op,
        "harness.synth.s": total["harness.synth"] * per_op,
        "harness.csv.s": total["harness.csv"] * per_op,
        "harness.orchestration.self_s": self_time["harness.sweep"] * per_op,
        "harness.worker_busy_frac": (
            total["harness.cell"] / (workers * sweep_wall) if sweep_wall else 0.0
        ),
        "fd.evolve.s": total["fd.evolve"] * per_op,
        "fd.steps": sum(steps for steps, _ in fd) * per_op,
        "fd.banded_solves": calls["fd.banded_solve"] * per_op,
        "fd.point_steps_per_s": fd_points / total["fd.evolve"] if fd else 0.0,
        "trace.overhead_frac": overhead,
    }
    return metrics
