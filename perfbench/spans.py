"""In-memory span tracing for the benchmark's traced runs.

Wrappers are installed at the module attributes the program's callers
look up at call time (for example `authverify.train.encoder_backward`),
so nothing under `src/` changes.  Each call records one span: its id,
the id of the span open on the same thread when it started (its
parent), its name, start and end times, and an optional count taken
from the arguments or the result.  A layer's self time is its spans'
durations minus the durations of their child spans.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    """Collects spans in memory; `write` saves them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, count)
        self.absent: list[str] = []
        self.extra: dict[str, int] = defaultdict(int)  # counters beside spans
        self._extra_lock = threading.Lock()  # cv counts from two fold threads
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._wrapped: list[tuple] = []  # (module, attr, original, wrapper)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around code in the benchmark itself (one operation)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, None))

    def add(self, key: str, n: int) -> None:
        """Add `n` to the counter `key`; safe from several threads."""
        with self._extra_lock:
            self.extra[key] += n

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Make a recording wrapper for `module.attr`; `enable` puts it in
        place and `disable` restores the original.

        `name` is a span name, or a function of the call's arguments that
        returns one.  `count(args, result)` gives the span's count.  A
        missing attribute is recorded as absent instead of failing.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
            label = name(args) if callable(name) else name
            n = count(args, result) if count is not None else None
            tracer.spans.append((sid, parent, label, start, end, n))
            return result

        self._wrapped.append((module, attr, original, wrapper))

    def enable(self) -> None:
        for module, attr, _, wrapper in self._wrapped:
            setattr(module, attr, wrapper)

    def disable(self) -> None:
        for module, attr, original, _ in reversed(self._wrapped):
            setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,count\n")
            for sid, parent, name, start, end, n in self.spans:
                fh.write(f"{sid},{parent},{name},{start!r},{end!r},"
                         f"{'' if n is None else n}\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds,
        summed count, every duration, and the inclusive seconds of its
        spans whose parent is a given name (`under`)."""
        names = {sid: name for sid, _, name, _, _, _ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total": 0.0, "self": 0.0, "count": 0,
                     "durations": [], "under": defaultdict(float)}
        )
        for sid, parent, name, start, end, n in self.spans:
            s = out[name]
            dur = end - start
            s["calls"] += 1
            s["total"] += dur
            s["self"] += dur - child_time[sid]
            s["count"] += n or 0
            s["durations"].append(dur)
            s["under"][names.get(parent, "")] += dur
        return out


def wrap_authverify(tracer: Tracer, level_of_d_in: dict[int, int]) -> None:
    """Make wrappers for every layer boundary of `authverify` that the
    benchmark times; `tracer.enable()` installs them.

    `level_of_d_in` maps an LSTM's input width to its hierarchy level
    (d_w -> 1, d_s -> 2).
    """
    import authverify.encoder as encoder
    import authverify.evaluate as evaluate
    import authverify.train as train

    def lstm_name(kind):
        return lambda args: f"lstm.level{level_of_d_in.get(args[0].d_in, 0)}.{kind}"

    def doc_stats(args, doc):
        tracer.add("padded_bytes", doc.words.nbytes)
        tracer.add("slots", doc.max_sentences * doc.max_words)
        return doc.token_count

    for module in (train, evaluate):
        tracer.wrap(module, "encode_document", "preprocess.encode", doc_stats)
        tracer.wrap(module, "embed_document", "encoder.forward_eval")
        tracer.wrap(module, "encode_instance", "train.encode_instance")
    tracer.wrap(train, "encode_document_training", "encoder.forward_train")
    tracer.wrap(train, "encoder_backward", "encoder.backward")
    tracer.wrap(encoder, "lstm_run_frozen", lstm_name("forward"),
                lambda args, out: int(args[2]))
    tracer.wrap(encoder, "lstm_backward", lstm_name("backward"),
                lambda args, out: int(args[1].true_len))
    tracer.wrap(train, "contrastive_loss", "siamese.loss")
    tracer.wrap(train, "contrastive_loss_grad", "siamese.loss")
    tracer.wrap(train, "clip_by_global_norm", "train.optimizer")
    tracer.wrap(train, "adadelta_update", "train.optimizer")
    tracer.wrap(train, "train_step", "train.step",
                lambda args, out: int(out[1] > args[3].clip_norm))
    tracer.wrap(train, "_dev_metrics", "train.dev_eval")
    tracer.wrap(evaluate, "fit", "train.fit")
    tracer.wrap(evaluate, "pair_distances", "evaluate.pair_distances")
    tracer.wrap(evaluate, "calibrate_tau", "evaluate.calibrate")
    tracer.wrap(evaluate, "_run_fold", "evaluate.fold")


def layer_metrics(tracer: Tracer, n_ops: int, op_span: str) -> dict[str, tuple]:
    """Per-layer metrics of a traced phase, as {name: (value, unit)}.

    Seconds and counts are per workload operation (`n_ops` spans named
    `op_span`).  Layer `_s` metrics are self time; the phase metrics
    train.step_s, train.reencode_s, train.dev_eval_s,
    evaluate.pair_distances_s and evaluate.fold_s are inclusive.
    """
    s = tracer.summary()
    ops = max(n_ops, 1)

    def get(name, key):
        return s[name][key] if name in s else 0

    def per_op(name, key="self"):
        return get(name, key) / ops

    lstm_names = [f"lstm.level{lv}.{kind}" for lv in (1, 2)
                  for kind in ("forward", "backward")]
    lstm_time = sum(get(n, "self") for n in lstm_names)
    lstm_steps = sum(get(n, "count") for n in lstm_names)
    tokens = get("preprocess.encode", "count")
    slots = tracer.extra["slots"]
    steps = get("train.step", "calls")
    folds = s["evaluate.fold"]["durations"] if "evaluate.fold" in s else []
    op_time = get(op_span, "total")
    m = {
        "preprocess.encode_s": (per_op("preprocess.encode"), "s"),
        "preprocess.docs": (get("preprocess.encode", "calls") / ops, "count"),
        "preprocess.tokens": (tokens / ops, "count"),
        "preprocess.padded_mb": (tracer.extra["padded_bytes"] / 2**20 / ops, "MB"),
        "preprocess.fill_ratio": (tokens / slots if slots else 0.0, "fraction"),
        "encoder.forward_train_s": (per_op("encoder.forward_train"), "s"),
        "encoder.forward_eval_s": (per_op("encoder.forward_eval"), "s"),
        "encoder.backward_s": (per_op("encoder.backward"), "s"),
        "encoder.docs": ((get("encoder.forward_train", "calls")
                          + get("encoder.forward_eval", "calls")) / ops, "count"),
    }
    for lv in (1, 2):
        for kind in ("forward", "backward"):
            m[f"lstm.level{lv}.{kind}_s"] = (per_op(f"lstm.level{lv}.{kind}"), "s")
        m[f"lstm.level{lv}.calls"] = (get(f"lstm.level{lv}.forward", "calls") / ops,
                                      "count")
    m["lstm.steps"] = ((get("lstm.level1.forward", "count")
                        + get("lstm.level2.forward", "count")) / ops, "count")
    m["lstm.us_per_step"] = (1e6 * lstm_time / lstm_steps if lstm_steps else 0.0,
                             "us")
    m.update({
        "siamese.loss_s": (per_op("siamese.loss"), "s"),
        "train.optimizer_s": (per_op("train.optimizer"), "s"),
        "train.step_s": (per_op("train.step", "total"), "s"),
        "train.steps": (steps / ops, "count"),
        "train.reencode_s": (
            s["preprocess.encode"]["under"].get("train.fit", 0.0) / ops
            if "preprocess.encode" in s else 0.0, "s"),
        "train.dev_eval_s": (per_op("train.dev_eval", "total"), "s"),
        "train.clip_rate": (get("train.step", "count") / steps if steps else 0.0,
                            "fraction"),
        "evaluate.fold_s": (statistics.median(folds) if folds else 0.0, "s"),
        "evaluate.fold_overlap": (sum(folds) / op_time if folds and op_time else 0.0,
                                  "ratio"),
        "evaluate.calibrate_s": (per_op("evaluate.calibrate", "total"), "s"),
        "evaluate.pair_distances_s": (per_op("evaluate.pair_distances", "total"),
                                      "s"),
    })
    return m


# Spans whose inclusive time `shares` reports, in report order.
SHARE_SPANS = (
    "encoder.forward_train", "encoder.backward", "train.optimizer", "siamese.loss",
    "train.dev_eval", "encoder.forward_eval", "preprocess.encode",
    "evaluate.pair_distances", "evaluate.calibrate",
)


def shares(tracer: Tracer, op_span: str) -> dict[str, float]:
    """Inclusive time of each span in SHARE_SPANS that ran, and of all
    LSTM calls together, as a share of the operations' wall time.  The
    names overlap (dev evaluation runs the eval forward pass), so the
    shares need not sum to 1; on cv, fold threads run side by side, so
    they can exceed it."""
    s = tracer.summary()
    op_time = s[op_span]["total"] if op_span in s else 0.0
    if not op_time:
        return {}
    out = {name: s[name]["total"] / op_time for name in SHARE_SPANS if name in s}
    lstm = sum(v["total"] for k, v in s.items() if k.startswith("lstm."))
    if lstm:
        out["lstm (all calls)"] = lstm / op_time
    return out
