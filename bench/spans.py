"""Span tracing of hatstory's public functions, installed from outside.

The tracer wraps functions by name in every ``hatstory`` module that binds
them, so a call resolved through any module's globals (``model`` calling
``gru_step`` it imported from ``layers``, or ``Tensor.__add__`` calling
``add``) records one span. A name the program no longer defines is
reported as absent, so the trace keeps working when functions move
between modules, are fused or are removed.

Each span holds its name, start, end, parent span and the benchmark
operation it ran under, plus whether it returned a tensor recorded on the
gradient tape. Spans stay in memory in flat arrays and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "hatstory"

# The 22 differentiable tensor ops; each records at most one tape entry.
TENSOR_OPS = (
    "add", "sub", "mul", "div", "neg", "sigmoid", "tanh", "relu", "log", "exp",
    "matmul", "vecmat", "softmax", "log_softmax", "concat", "stack_rows",
    "tile_rows", "reshape", "narrow", "row", "pick", "sum_all",
)

# layer -> function names traced in it. A span is named "<layer>.<function>".
TRACED = {
    "tensor": TENSOR_OPS + ("backward",),
    "layers": ("gru_step", "bi_gru", "mlp", "embed"),
    "model": (
        "encode_album", "select_summary", "story_log_prob", "enc_attn_dec_log_prob",
        "decode_word_step", "generate_story", "enc_attn_dec_generate",
    ),
    "training": ("train", "combined_loss", "variant_log_prob", "make_negative", "adam_step"),
    "metrics": (
        "retrieval_scores", "hard_selection_ids", "attention_aggregate_topk",
        "summary_precision_recall", "bleu_n", "cider",
    ),
    "data": ("synth_generate", "save_dataset", "load_dataset"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
}


def span_names():
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def _bindings(func_name):
    """{id(function): (function, [modules binding it])} for a function name
    defined somewhere in the package."""
    found = {}
    for mod in _package_modules():
        obj = vars(mod).get(func_name)
        if isinstance(obj, type) or not callable(obj):
            continue
        if not getattr(obj, "__module__", "").startswith(PACKAGE):
            continue
        found.setdefault(id(obj), (obj, []))[1].append(mod)
    return found


class NullTracer:
    """Stands in for a Tracer when the run is untraced."""

    @contextmanager
    def operation(self, phase):
        yield


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.absent = []
        self.phases = []  # operation id -> phase name
        self._op = [-1]
        self._name = array("i")
        self._parent = array("i")
        self._opid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._taped = array("b")
        self._stack = [-1]
        self._patches = []

    # -- installing -----------------------------------------------------

    def install(self):
        """Wrap every traced name in every package module binding it."""
        for nid, span in enumerate(self.names):
            func_name = span.split(".", 1)[1]
            bindings = _bindings(func_name)
            if not bindings:
                self.absent.append(span)
                continue
            for fn, modules in bindings.values():
                wrapper = self._wrap(fn, nid)
                for mod in modules:
                    self._patches.append((mod, func_name, fn))
                    setattr(mod, func_name, wrapper)

    def uninstall(self):
        for mod, func_name, fn in reversed(self._patches):
            setattr(mod, func_name, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, nid):
        names, parents, opids = self._name, self._parent, self._opid
        starts, ends, taped = self._start, self._end, self._taped
        stack, op = self._stack, self._op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            opids.append(op[0])
            starts.append(0.0)
            ends.append(0.0)
            taped.append(0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if getattr(out, "requires_grad", False) is True:
                taped[idx] = 1
            return out

        return traced

    # -- operations -------------------------------------------------------

    @contextmanager
    def operation(self, phase):
        """Spans recorded inside share one operation id, tagged with `phase`."""
        previous = self._op[0]
        self._op[0] = len(self.phases)
        self.phases.append(phase)
        try:
            yield
        finally:
            self._op[0] = previous

    # -- results ----------------------------------------------------------

    def arrays(self):
        """Views of the span columns; take them once recording has ended."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "op": np.frombuffer(self._opid, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
            "taped": np.frombuffer(self._taped, dtype=np.int8),
        }

    def save(self, path):
        """Write every span, the span names and operation phases to .npz."""
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            op_phases=np.array(self.phases, dtype=str),
            **self.arrays(),
        )

    def summary(self):
        return SpanSummary(self.names, self.phases, **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class SpanSummary:
    """Per (span name, phase) totals: calls, inclusive and self seconds,
    and calls whose result was recorded on the tape."""

    def __init__(self, names, phases, name, parent, op, start, end, taped):
        self.names = list(names)
        self.phase_names = sorted(set(phases)) + ["<none>"]
        self._phase_index = {p: i for i, p in enumerate(self.phase_names)}
        op_phase = np.array([self._phase_index[p] for p in phases] + [len(self.phase_names) - 1])
        span_phase = op_phase[op]  # op == -1 picks the trailing "<none>"
        key = name.astype(np.int64) * len(self.phase_names) + span_phase
        size = len(self.names) * len(self.phase_names)
        shape = (len(self.names), len(self.phase_names))
        dur = end - start
        self.calls = np.bincount(key, minlength=size).reshape(shape)
        self.seconds = np.bincount(key, weights=dur, minlength=size).reshape(shape)
        self.self_seconds = np.bincount(
            key, weights=self_times(start, end, parent), minlength=size
        ).reshape(shape)
        self.taped = np.bincount(key, weights=taped, minlength=size).reshape(shape)
        self._name_index = {n: i for i, n in enumerate(self.names)}

    def _cell(self, table, span, phase):
        column = self._phase_index.get(phase)
        return 0.0 if column is None else float(table[self._name_index[span], column])

    def calls_in(self, span, phase):
        return int(self._cell(self.calls, span, phase))

    def seconds_in(self, span, phase):
        return self._cell(self.seconds, span, phase)

    def self_seconds_in(self, span, phase):
        return self._cell(self.self_seconds, span, phase)

    def taped_in(self, span, phase):
        return int(self._cell(self.taped, span, phase))
