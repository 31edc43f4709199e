"""Spans and counters around the calls ncdkit.trainer makes into each layer.

The probe replaces names in the `ncdkit.trainer` namespace (and
`Tensor.backward`) with wrappers for the duration of a `with` block, so the
program itself is unchanged. Untimed, a probe only captures what the output
checks need (histories, the last assignment, k-means input and result),
counts batches and views, and marks the time each batch is drawn and each
epoch's evaluation ends, so that the call can be cut into pieces. Timed,
each wrapped call also becomes a span whose self time (duration minus the
time of wrapped calls inside it) is added to the layer metric it belongs to.

`evaluate_acc` is timed as one opaque unit: the forward pass and matching
it runs are evaluation cost, not training forward or loss cost.

The probe's own captures (graph walks, pair bookkeeping, copies) are timed
apart as `trace.hooks_s` and kept out of every layer's self time, so the
layer self times, `trainer.self_s` and `trace.hooks_s` add up to the call.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

# trainer-namespace name -> layer metric its self time is added to
TIMED = {
    "sample_batch": "data.sample_batch_s",
    "forward": "model.forward_s",
    "unified_cl": "losses.cl_s",
    "nce_instance": "losses.cl_s",
    "nce_category": "losses.cl_s",
    "bce_pairwise": "losses.bce_s",
    "cross_entropy": "losses.ce_s",
    "mse_consistency": "losses.mse_s",
    "softmax": "losses.mse_s",        # the trainer applies it only for the consistency term
    "pairwise_labels": "pairing.labels_s",
    "sgd_momentum_step": "numerics.sgd_s",
    "evaluate_acc": "evaluation.evaluate_acc_s",
    "kmeans": "evaluation.kmeans_s",
    "clustering_acc": "evaluation.clustering_acc_s",
}
OPAQUE = {"evaluate_acc"}
BACKWARD = "numerics.backward_s"
# every WTA call with this index modulo the stride is kept for the oracle
PAIR_SAMPLE_STRIDE = 25


def graph_size(root) -> int:
    """Nodes reachable from `root` through the autodiff parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Probe:
    """Wraps trainer calls inside a `with` block; see the module docstring.

    `truth` maps record id to class and is the benchmark's own copy of the
    ground truth, read from the dataset file.
    """

    def __init__(self, ncdkit, timed: bool, truth: dict[int, int]):
        self._nk = ncdkit
        self.timed = timed
        self.truth = truth
        self.self_s = defaultdict(float)
        self.hooks_s = 0.0
        self.counts = defaultdict(int)
        self.spans: list[list] = []      # [name, start, end, parent span index]
        self.histories = []
        self.acc_args = None             # (y_true, y_pred, n) of the last clustering_acc
        self.kmeans_io = None            # (X, k, labels) of the last kmeans
        self.pair_samples = []           # (Z, s, strategy) of sampled WTA calls
        self.marks: list[tuple[str, float]] = []   # ("batch" | "eval", perf_counter())
        self._stack: list[list] = []     # [span index, seconds in wrapped children]
        self._opaque = 0
        self._batch = None
        self._undo = []

    # ---- install / remove ---------------------------------------------------

    def __enter__(self):
        tr = self._nk.trainer
        hooks = {"train": self._on_train, "sample_batch": self._on_batch,
                 "evaluate_acc": self._on_eval, "clustering_acc": self._on_acc,
                 "kmeans": self._on_kmeans}
        names = set(hooks)
        if self.timed:
            hooks["pairwise_labels"] = self._on_pairs
            names |= set(TIMED)
        for name in sorted(names):
            metric = TIMED.get(name) if self.timed else None
            self._patch(tr, name, self._wrap(getattr(tr, name), metric, hooks.get(name),
                                             name in OPAQUE))
        if self.timed:
            tensor = self._nk.numerics.Tensor
            self._patch(tensor, "backward",
                        self._wrap(tensor.backward, BACKWARD, self._on_backward, False))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, fn, metric, hook, opaque):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if metric is None or probe._opaque:
                result = fn(*args, **kwargs)
            else:
                result = probe._span(metric, fn, args, kwargs, opaque)
            if hook is not None:
                probe._hook(hook, args, result)
            return result

        return wrapper

    def _hook(self, hook, args, result):
        start = perf_counter()
        hook(args, result)
        seconds = perf_counter() - start
        self.hooks_s += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def _span(self, metric, fn, args, kwargs, opaque):
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append([metric, 0.0, 0.0, parent])
        self._stack.append(frame)
        self._opaque += opaque
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._opaque -= opaque
            self._stack.pop()
            self.spans[index][1:3] = [start, end]
            self.self_s[metric] += (end - start) - frame[1]
            self.counts[metric] += 1
            if self._stack:
                self._stack[-1][1] += end - start

    # ---- captures and counters ------------------------------------------------

    def _on_train(self, args, result):
        self.histories.append(result[1])

    def _on_batch(self, args, batch):
        self.marks.append(("batch", perf_counter()))
        self._batch = batch
        self.counts["data.batches"] += 1
        self.counts["data.views"] += len(batch.labels)

    def _on_eval(self, args, result):
        self.marks.append(("eval", perf_counter()))

    def _on_acc(self, args, result):
        self.acc_args = (np.asarray(args[0]), np.asarray(args[1]), int(args[2]))

    def _on_kmeans(self, args, result):
        self.kmeans_io = (np.array(args[0], dtype=np.float64), int(args[1]), np.asarray(result[0]))

    def _on_backward(self, args, result):
        self.counts["numerics.graph_nodes"] += graph_size(args[0])

    def _on_pairs(self, args, s):
        strategy, Z = args[0], np.asarray(args[1])
        calls = self.counts["pairing.calls"]
        self.counts["pairing.calls"] += 1
        self.counts["pairing.items"] += len(Z)
        if strategy.kind == "wta" and calls % PAIR_SAMPLE_STRIDE == 0:
            self.pair_samples.append((Z.copy(), np.array(s), strategy))
        # the trainer labels the batch rows whose training label is UNLABELLED
        batch = self._batch
        rows = np.flatnonzero(batch.labels == self._nk.losses.UNLABELLED)
        if len(rows) != len(Z):
            self.counts["pairing.unmatched_calls"] += 1
            return
        classes = np.array([self.truth[int(r)] for r in batch.record_ids[rows]])
        off = ~np.eye(len(Z), dtype=bool)
        same = (classes[:, None] == classes[None, :]) & off
        said = (np.asarray(s) == 1) & off
        self.counts["pairing.pairs"] += int(off.sum())
        self.counts["pairing.said_same"] += int(said.sum())
        self.counts["pairing.truly_same"] += int(same.sum())
        self.counts["pairing.true_positives"] += int((said & same).sum())

    # ---- layer metrics ------------------------------------------------------

    def layer_metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer values of one timed round that took `run_s` seconds."""
        c, t = self.counts, self.self_s

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        wrapped = sum(t.values())
        backward_calls = c[BACKWARD]
        return {
            "data.sample_batch_s": (t["data.sample_batch_s"], "s"),
            "data.batches": (c["data.batches"], "count"),
            "data.views": (c["data.views"], "count"),
            "model.forward_s": (t["model.forward_s"], "s"),
            "model.forward_calls": (c["model.forward_s"], "count"),
            "losses.cl_s": (t["losses.cl_s"], "s"),
            "losses.bce_s": (t["losses.bce_s"], "s"),
            "losses.ce_s": (t["losses.ce_s"], "s"),
            "losses.mse_s": (t["losses.mse_s"], "s"),
            "pairing.labels_s": (t["pairing.labels_s"], "s"),
            "pairing.items": (c["pairing.items"], "count"),
            "pairing.positive_rate": (ratio("pairing.said_same", "pairing.pairs"), "fraction"),
            "pairing.precision": (ratio("pairing.true_positives", "pairing.said_same"), "fraction"),
            "pairing.recall": (ratio("pairing.true_positives", "pairing.truly_same"), "fraction"),
            "numerics.backward_s": (t[BACKWARD], "s"),
            "numerics.sgd_s": (t["numerics.sgd_s"], "s"),
            "numerics.graph_nodes_per_step": (
                c["numerics.graph_nodes"] / backward_calls if backward_calls else 0.0, "count"),
            "evaluation.evaluate_acc_s": (t["evaluation.evaluate_acc_s"], "s"),
            "evaluation.kmeans_s": (t["evaluation.kmeans_s"], "s"),
            "evaluation.clustering_acc_s": (t["evaluation.clustering_acc_s"], "s"),
            "trainer.self_s": (run_s - wrapped - self.hooks_s, "s"),
            "trace.hooks_s": (self.hooks_s, "s"),
            "trainer.steps": (c["numerics.sgd_s"], "count"),
        }
