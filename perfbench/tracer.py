"""Span tracing for the traced benchmark run, recorded from outside the library.

Each traced function is replaced by a wrapper at every binding the library
calls through: the library imports functions by name, so patching only the
defining module would miss most calls. A wrapper records one span (start,
end, parent span, operation id) and keeps per-function totals of calls,
inclusive time, self time (the span minus the time its child spans cover)
and raised exceptions. Wrapper overhead is charged to nobody: a parent's
child time runs from the wrapper's entry to its exit, hooks included.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import array
import os
import time
from collections import Counter
from functools import wraps

import numpy as np

# The functions the benchmark wraps, as (module, function). Hot helpers that
# run inside forward_sequence (sigmoid, softmax, the private layer loops) are
# left unwrapped: they are the LSTM cost that forward_sequence's self time
# measures, and a span per gate call would swamp it.
TRACED = (
    ("network", "forward_sequence"),
    ("network", "backward_sequence"),
    ("network", "total_loss"),
    ("network", "build_network"),
    ("historical", "historical_update"),
    ("historical", "initial_trace"),
    ("historical", "replay_update"),
    ("historical", "inference_losses"),
    ("historical", "step_loss"),
    ("cells", "head_predict"),
    ("numerics", "cross_entropy"),
    ("numerics", "finite_diff"),
    ("trainer", "train"),
    ("trainer", "evaluate"),
    ("trainer", "adam_step"),
    ("trainer", "grad_check"),
    ("dataio", "synth_train_test"),
    ("dataio", "load_manifest"),
    ("dataio", "read_fseq"),
)

# Modules whose bindings are patched. The CLI is not: its only work is
# argument parsing and small file writes, and no workload calls it.
PATCHED_MODULES = ("", "cells", "dataio", "historical", "network", "numerics", "trainer")

# Bindings the library calls through that must be patched, beyond the
# defining module; a missing one would silently drop spans.
REQUIRED_BINDINGS = {
    "forward_sequence": ("network", "trainer"),
    "backward_sequence": ("trainer",),
    "total_loss": ("trainer",),
    "build_network": ("trainer",),
    "historical_update": ("network",),
    "inference_losses": ("network",),
    "initial_trace": ("network",),
    "replay_update": ("network",),
    "step_loss": ("network",),
    "head_predict": ("historical", "network"),
    "cross_entropy": ("historical", "network"),
    "finite_diff": ("trainer",),
}

KEYS = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
MODES = ("train", "eval", "replay")


class PhaseStats:
    """Per-function totals and event counts for one phase of the run."""

    def __init__(self):
        n = len(KEYS)
        self.calls = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.errors = [0] * n
        self.count = Counter()
        self.time_s = Counter()


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


class Tracer:
    """Records spans and totals while installed; see install(). clock gives
    the time spans are measured in."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phases = {"setup": PhaseStats(), "rounds": PhaseStats()}
        self.cur = self.phases["setup"]
        self.rounds = 0
        self.stack = []  # open spans as [child seconds, span id]
        self.modes = []  # forward_sequence modes, innermost last
        self.op = 0
        self.next_op = 1
        self.in_gradcheck = 0
        self.n_spans = 0
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_key = array.array("i")
        self.span_op = array.array("q")
        self.span_round = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._saved = []

    # -- phases -----------------------------------------------------------

    def begin_round(self):
        self.cur = self.phases["rounds"]
        self.rounds += 1

    # -- operation ids ----------------------------------------------------

    def _new_op(self):
        self.op = self.next_op
        self.next_op += 1

    def _mode(self):
        return self.modes[-1] if self.modes else "other"

    # -- hooks: enter(args, kwargs) runs before the call, leave(args, kwargs,
    # result, dur) after it, with result None when the call raised.

    def _enter_forward(self, args, kwargs):
        x = _arg(args, kwargs, 1, "x")
        steps = len(getattr(x, "frames", x))
        if not _arg(args, kwargs, 3, "training", False):
            mode = "eval"
        elif _arg(args, kwargs, 5, "replay_from") is not None:
            mode = "replay"
        else:
            mode = "train"
        if mode != "replay" and not self.in_gradcheck:
            self._new_op()
        self.modes.append(mode)
        self.cur.count["steps." + mode] += steps

    def _leave_forward(self, args, kwargs, result, dur):
        self.modes.pop()

    def _enter_build(self, args, kwargs):
        if self.in_gradcheck:  # one gradient-check case per built network
            self._new_op()

    def _enter_gradcheck(self, args, kwargs):
        self.in_gradcheck += 1
        self.op = 0

    def _leave_gradcheck(self, args, kwargs, result, dur):
        self.in_gradcheck -= 1

    def _enter_container(self, args, kwargs):
        self.op = 0

    def _enter_train(self, args, kwargs):
        self.op = 0
        dataset = _arg(args, kwargs, 0, "dataset")
        cfg = _arg(args, kwargs, 1, "cfg")
        self.cur.count["train.seqs"] += len(dataset) * cfg.epochs

    def _enter_evaluate(self, args, kwargs):
        self.op = 0
        self.cur.count["evaluate.seqs"] += len(_arg(args, kwargs, 1, "dataset"))

    def _enter_backward(self, args, kwargs):
        self.cur.count["backward.steps"] += _arg(args, kwargs, 1, "trace").T

    def _leave_trace_lists(self, args, kwargs, result, dur):
        # Each update rebuilds the trace's three lists by concatenation.
        if result is not None:
            self.cur.count["buffer_elems"] += (
                len(result.h_buffer) + len(result.records) + len(result.l_history)
            )

    def _leave_hist(self, args, kwargs, result, dur):
        count = self.cur.count
        self.cur.time_s["historical_update." + self._mode()] += dur
        if result is None:
            return
        self._leave_trace_lists(args, kwargs, result, dur)
        rec = result.records[-1]
        count["branch." + rec.branch] += 1
        if rec.weights is not None:
            count["weights.stored"] += rec.weights.size
            count["weights.nonzero"] += int(np.count_nonzero(rec.weights))
            count["weights.bytes"] += rec.weights.nbytes

    def _leave_head(self, args, kwargs, result, dur):
        self.cur.count["head_predict." + self._mode()] += 1

    def _leave_fseq(self, args, kwargs, result, dur):
        if result is not None:
            self.cur.count["fseq.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def _hooks(self, fn_name):
        return {
            "forward_sequence": (self._enter_forward, self._leave_forward),
            "build_network": (self._enter_build, None),
            "grad_check": (self._enter_gradcheck, self._leave_gradcheck),
            "train": (self._enter_train, None),
            "evaluate": (self._enter_evaluate, None),
            "adam_step": (self._enter_container, None),
            "backward_sequence": (self._enter_backward, None),
            "historical_update": (None, self._leave_hist),
            "initial_trace": (None, self._leave_trace_lists),
            "replay_update": (None, self._leave_trace_lists),
            "head_predict": (None, self._leave_head),
            "read_fseq": (None, self._leave_fseq),
        }.get(fn_name, (None, None))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, k, fn, enter, leave):
        tracer = self
        clock = self.clock

        @wraps(fn)
        def traced(*args, **kwargs):
            t_enter = clock()
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            frame = [0.0, tracer.n_spans]
            tracer.n_spans += 1
            stack.append(frame)
            if enter is not None:
                enter(args, kwargs)
            op = tracer.op
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                tracer.cur.errors[k] += 1
                tracer._close(k, frame, parent, op, t0, t1, t_enter, args, kwargs, None, leave)
                raise
            t1 = clock()
            tracer._close(k, frame, parent, op, t0, t1, t_enter, args, kwargs, result, leave)
            return result

        return traced

    def _close(self, k, frame, parent, op, t0, t1, t_enter, args, kwargs, result, leave):
        dur = t1 - t0
        st = self.cur
        st.calls[k] += 1
        st.total_s[k] += dur
        st.self_s[k] += dur - frame[0]
        self.span_id.append(frame[1])
        self.span_parent.append(parent)
        self.span_key.append(k)
        self.span_op.append(op)
        self.span_round.append(self.rounds)
        self.span_start.append(t0)
        self.span_end.append(t1)
        if leave is not None:
            leave(args, kwargs, result, dur)
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += self.clock() - t_enter

    def install(self, package):
        """Patch every binding of each traced function in the library's
        modules; uninstall() restores them. Returns the patched bindings as
        {function name: [module names]}."""
        import importlib

        modules = {
            name: importlib.import_module(package + ("." + name if name else ""))
            for name in PATCHED_MODULES
        }
        patched = {}
        for k, (mod_name, fn_name) in enumerate(TRACED):
            original = getattr(modules[mod_name], fn_name)
            enter, leave = self._hooks(fn_name)
            wrapper = self._wrap(k, original, enter, leave)
            for name, module in modules.items():
                if getattr(module, fn_name, None) is original:
                    self._saved.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)
                    patched.setdefault(fn_name, []).append(name or package)
        for fn_name, needed in REQUIRED_BINDINGS.items():
            missing = [m for m in needed if m not in patched.get(fn_name, [])]
            if missing:
                self.uninstall()
                raise RuntimeError(f"{fn_name} is not bound in {missing}; tracing would miss calls")
        return patched

    def uninstall(self):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        np.savez_compressed(
            path,
            keys=np.array(KEYS),
            id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            key=np.frombuffer(self.span_key, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            round=np.frombuffer(self.span_round, dtype=np.int32),
            start_s=np.frombuffer(self.span_start, dtype=np.float64),
            end_s=np.frombuffer(self.span_end, dtype=np.float64),
        )

    def per_layer(self, scale=1.0):
        """Per-layer metrics as {name: (value, unit)}.

        Totals are per measured round, plus the one traced set-up; ratios
        and per-step or per-call figures pool every round. A figure whose
        denominator never occurred (say, replay_update outside gradcheck)
        reads 0. Times (units s and us) are multiplied by scale.
        """
        setup, rounds = self.phases["setup"], self.phases["rounds"]
        n = max(self.rounds, 1)
        idx = {key: k for k, key in enumerate(KEYS)}

        def per_round(values, k):
            return values(setup)[k] + values(rounds)[k] / n

        def div(a, b):
            return a / b if b else 0.0

        out = {}
        for k, key in enumerate(KEYS):
            out[key + ".calls"] = (per_round(lambda s: s.calls, k), "count")
            out[key + ".self_s"] = (per_round(lambda s: s.self_s, k), "s")
            out[key + ".errors"] = (setup.errors[k] + rounds.errors[k], "count")

        def total(key):
            return rounds.total_s[idx[key]]

        def self_s(key):
            return rounds.self_s[idx[key]]

        def calls(key):
            return rounds.calls[idx[key]]

        c, t = rounds.count, rounds.time_s
        all_steps = sum(c["steps." + m] for m in MODES)
        us = 1e6
        out["network.forward_sequence.self_us_per_step"] = (
            us * div(self_s("network.forward_sequence"), all_steps), "us")
        out["network.backward_sequence.us_per_step"] = (
            us * div(total("network.backward_sequence"), c["backward.steps"]), "us")
        out["network.total_loss.us_per_call"] = (
            us * div(total("network.total_loss"), calls("network.total_loss")), "us")
        for mode in ("train", "eval"):
            out[f"historical.historical_update.{mode}_us_per_step"] = (
                us * div(t["historical_update." + mode], c["steps." + mode]), "us")
        for key in ("historical.inference_losses", "historical.replay_update",
                    "cells.head_predict", "numerics.cross_entropy",
                    "trainer.adam_step"):
            out[key + ".us_per_call"] = (us * div(total(key), calls(key)), "us")
        out["historical.window_useful_ratio"] = (
            div(c["weights.nonzero"], c["weights.stored"]), "ratio")
        out["historical.buffer_elems_copied"] = (
            div(c["buffer_elems"], all_steps), "count/step")
        # Replay reuses the recorded weights, so only live steps store any.
        out["historical.record_weight_bytes"] = (
            div(c["weights.bytes"], c["steps.train"] + c["steps.eval"]), "B/step")
        out["historical.trunc_share"] = (
            div(c["branch.trunc"], c["branch.trunc"] + c["branch.blend"]), "ratio")
        for mode in ("train", "eval"):
            out[f"cells.head_predict.{mode}_calls_per_step"] = (
                div(c["head_predict." + mode], c["steps." + mode]), "count")
        out["numerics.cross_entropy.calls_per_step"] = (
            div(calls("numerics.cross_entropy"), all_steps), "count")
        out["trainer.adam_step.share"] = (
            div(total("trainer.adam_step"), total("trainer.train")), "ratio")
        out["trainer.train.self_us_per_seq"] = (
            us * div(self_s("trainer.train"), c["train.seqs"]), "us")
        out["trainer.evaluate.self_us_per_seq"] = (
            us * div(self_s("trainer.evaluate"), c["evaluate.seqs"]), "us")
        for key in ("dataio.synth_train_test", "dataio.load_manifest"):
            out[key + ".s"] = (setup.total_s[idx[key]], "s")
        k = idx["dataio.read_fseq"]
        out["dataio.read_fseq.us_per_call"] = (us * div(setup.total_s[k], setup.calls[k]), "us")
        out["dataio.read_fseq.bytes"] = (setup.count["fseq.bytes"], "B")
        out["trace.spans_per_round"] = (sum(rounds.calls) / n, "count")
        return {name: (v * scale if unit in ("s", "us") else v, unit)
                for name, (v, unit) in out.items()}
