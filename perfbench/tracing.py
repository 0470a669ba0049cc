"""Traced mode: spans around the public functions of each ``pjfit`` layer.

The tracer replaces each function by a wrapper under the name the program
looks it up by (``ops.matmul`` in ``pjfit.numerics.ops``, ``score_pair`` in
both ``pjfit.training`` and ``pjfit.cli``, ...) and restores the originals
on exit. Each call opens a span that knows its parent; when it closes, its
duration minus its children's is its self time, which is added to a
bucket. Calls of layer functions are kept as (name, parent, start, end)
spans; calls of the numerics ops, which number in the hundreds of
thousands, are only aggregated. The program itself is not modified.
"""

from __future__ import annotations

import sys
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from pjfit import augment, checkpoint, cli, domain, encoder, moe, training
from pjfit.numerics import matrix, ops, params

OPS = ("matmul", "affine", "relu", "softmax_rows", "scaled_dot_attention", "concat_cols",
       "concat_rows", "gather_rows", "add", "sub", "mul", "scale", "square", "logsigmoid",
       "sum_all", "mean_all")

MHI = "encoder.multi_head_interaction"
# Self time of the ops a function calls directly goes to the function's
# bucket; the encoder's attention-internal ops are split further below.
PARENT_BUCKET = {
    "encoder.encode_side": "encoder.fusion",
    "moe.moe_predict": "moe.gate",
    "moe.gate_weights": "moe.gate",
    "moe.expert_forward": "moe.experts",
}


class _Frame:
    __slots__ = ("name", "parent", "start", "child", "bucket", "info")

    def __init__(self, name, parent, bucket):
        self.name = name
        self.parent = parent
        self.bucket = bucket
        self.child = 0.0
        self.info = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.flops: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[_Frame] = []
        self._patched: list[tuple] = []
        self._scope = 0
        self._blocks: dict[int, tuple] = {}     # id(history array) -> (key, weakref)
        self._kv_unique: set = set()
        self._gate_unique: set = set()
        self._category_pair = None

    # ------------------------------------------------------------ patching

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self._targets():
            self._patch(owner, attr, name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _targets(self):
        yield domain, "load_data_dir", "domain.load_data_dir"
        yield training, "pad_sequence", "domain.pad_sequence"
        yield training.SequenceCache, "get", "domain.SequenceCache.get"
        yield training, "sample_training_pairs", "domain.sample_training_pairs"
        yield augment, "augment_batch", "augment.augment_batch"
        yield encoder, "multi_head_interaction", MHI
        yield training, "encode_side", "encoder.encode_side"
        yield moe, "gate_weights", "moe.gate_weights"
        yield moe, "expert_forward", "moe.expert_forward"
        yield training, "moe_predict", "moe.moe_predict"
        yield training, "score_pair", "training.score_pair"
        yield cli, "score_pair", "training.score_pair"
        yield training, "bpr_loss_graph", "training.bpr_loss_graph"
        yield training, "train", "training.train"
        yield training, "score_all", "training.score_all"
        yield training, "evaluate", "training.evaluate"
        for name in ("auc", "gauc", "ndcg", "ap"):
            yield training, name, f"metrics.{name}"
        for name in OPS:
            yield ops, name, f"ops.{name}"
        yield matrix.Tape, "backward", "numerics.Tape.backward"
        yield training, "adam_step", "numerics.adam_step"
        yield params.ParamStore, "bind", "numerics.ParamStore.bind"
        yield checkpoint, "save_checkpoint", "checkpoint.save_checkpoint"
        yield checkpoint, "load_checkpoint", "checkpoint.load_checkpoint"
        yield cli, "rank_candidates", "cli.rank_candidates"

    def _patch(self, owner, attr, name) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            # a renamed or removed entry point: its metrics read 0
            self.missing.append(name)
            print(f"trace: {name} not found, not traced", file=sys.stderr)
            return
        before = getattr(self, "_before_" + name.rsplit(".", 1)[-1], None)
        after = getattr(self, "_after_" + name.rsplit(".", 1)[-1], None)
        keep_span = not name.startswith("ops.")
        bucket = PARENT_BUCKET.get(name, name)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name, parent, bucket)
            if not keep_span and parent is not None:
                frame.bucket = PARENT_BUCKET.get(parent.name, name)
            if before is not None:
                before(frame, args)
            stack.append(frame)
            frame.start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, end, keep_span)
            if after is not None:
                after(frame, args, out)
            return out

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _close(self, frame: _Frame, end: float, keep_span: bool) -> None:
        duration = end - frame.start
        if frame.parent is not None:
            frame.parent.child += duration
        self.self_time[frame.bucket] += duration - frame.child
        self.total_time[frame.name] += duration
        self.calls[frame.name] += 1
        if keep_span:
            parent = frame.parent.name if frame.parent is not None else None
            self.spans.append((frame.name, parent, frame.start, end))

    # ------------------------------------------------------------ hooks

    def _after_get(self, frame, args, out) -> None:
        record = args[1]
        for stage, (block, _) in enumerate(out):
            self._blocks[id(block)] = ((record.kind, record.id, stage), weakref.ref(block))

    def _after_bind(self, frame, args, out) -> None:
        # a new binding is a new set of weights: blocks projected under the
        # previous one can no longer be reused
        self._scope += 1

    def _before_multi_head_interaction(self, frame, args) -> None:
        query, seq, valid, attention = args
        roles = {id(w): "encoder.q_proj" for w in attention.wq}
        roles.update({id(w): "encoder.kv_proj" for w in attention.wk + attention.wv})
        roles[id(attention.wo)] = "encoder.out_proj"
        frame.info = (roles, int(np.count_nonzero(valid)))
        entry = self._blocks.get(id(seq.data))
        key = entry[0] if entry is not None and entry[1]() is seq.data else ("anonymous", id(seq.data))
        self.counts["kv_projections"] += 1
        self._kv_unique.add((self._scope, id(attention.wk[0]), key))

    def _before_matmul(self, frame, args) -> None:
        a, b = args
        self.counts["matmul_calls"] += 1
        flops = 2 * a.rows * a.cols * b.cols
        self.flops["matmul"] += flops
        parent = frame.parent
        if parent is None or parent.name != MHI:
            return
        roles, valid_rows = parent.info
        frame.bucket = roles.get(id(b), frame.bucket)
        if frame.bucket == "encoder.kv_proj":
            self.flops["kv_proj"] += flops
            self.counts["history_rows_projected"] += a.rows
            self.counts["history_rows_valid"] += valid_rows

    def _before_concat_cols(self, frame, args) -> None:
        if frame.parent is not None and frame.parent.name == MHI:
            frame.bucket = "encoder.out_proj"

    def _before_scaled_dot_attention(self, frame, args) -> None:
        frame.bucket = "encoder.attention"

    def _before_moe_predict(self, frame, args) -> None:
        self._category_pair = (args[1], args[2])

    def _before_gate_weights(self, frame, args) -> None:
        self.counts["gate_evals"] += 1
        self._gate_unique.add((self._scope, self._category_pair))

    def _before_score_pair(self, frame, args) -> None:
        self.counts["pairs_scored"] += 1
        if frame.parent is not None and frame.parent.name == "training.train":
            self.counts["train_pairs_scored"] += 1

    def _before_backward(self, frame, args) -> None:
        self.counts["tape_nodes"] += len(args[0])

    def _after_augment_batch(self, frame, args, out) -> None:
        records = out[1]
        self.counts["jds_selected"] += len(records)
        self.counts["jds_accepted"] += sum(1 for r in records if r.accepted)

    def _after_save_checkpoint(self, frame, args, out) -> None:
        self.counts["checkpoint_bytes"] = Path(args[2]).stat().st_size

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict:
        """The per-layer figures of everything traced so far."""
        c, t, s = self.counts, self.total_time, self.self_time
        op_calls = sum(self.calls[f"ops.{name}"] for name in OPS)
        train_forward = sum(end - start for name, parent, start, end in self.spans
                            if name == "training.score_pair" and parent == "training.train")
        return {
            "encoder.kv_proj_s": s["encoder.kv_proj"],
            "encoder.kv_proj_gflop": self.flops["kv_proj"] / 1e9,
            "encoder.kv_projections": c["kv_projections"],
            "encoder.kv_blocks_per_unique": _ratio(c["kv_projections"], len(self._kv_unique)),
            "encoder.q_proj_s": s["encoder.q_proj"],
            "encoder.attention_s": s["encoder.attention"],
            "encoder.out_proj_s": s["encoder.out_proj"],
            "encoder.fusion_s": s["encoder.fusion"],
            "domain.history_rows_projected": c["history_rows_projected"],
            "domain.history_rows_valid_share": _ratio(c["history_rows_valid"], c["history_rows_projected"]),
            "domain.load_s": t["domain.load_data_dir"],
            "domain.sample_pairs_s": t["domain.sample_training_pairs"],
            "moe.gate_s": s["moe.gate"],
            "moe.experts_s": s["moe.experts"],
            "moe.gate_evals": c["gate_evals"],
            "moe.gate_evals_per_unique": _ratio(c["gate_evals"], len(self._gate_unique)),
            "training.pairs_scored": c["pairs_scored"],
            "training.forward_s": train_forward,
            "training.loss_s": t["training.bpr_loss_graph"],
            "training.tape_nodes_per_pair": _ratio(c["tape_nodes"], c["train_pairs_scored"]),
            "numerics.backward_s": t["numerics.Tape.backward"],
            "numerics.adam_s": t["numerics.adam_step"],
            "numerics.op_calls_per_pair": _ratio(op_calls, c["pairs_scored"]),
            "numerics.matmul_calls": c["matmul_calls"],
            "numerics.matmul_gflop": self.flops["matmul"] / 1e9,
            "augment.batch_s": t["augment.augment_batch"],
            "augment.jds_selected": c["jds_selected"],
            "augment.jds_accepted": c["jds_accepted"],
            "checkpoint.save_s": t["checkpoint.save_checkpoint"],
            "checkpoint.load_s": t["checkpoint.load_checkpoint"],
            "checkpoint.bytes": c["checkpoint_bytes"],
            "metrics.compute_s": sum(t[f"metrics.{name}"] for name in ("auc", "gauc", "ndcg", "ap")),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
