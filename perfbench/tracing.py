"""Outside-in tracing for the benchmark's traced run.

`instrument(tracer)` swaps timed wrappers onto public functions and methods
of the omnibot modules, and onto every tape node's backward closure (via
`Tensor._make`), then restores the original objects when the block exits.
Nothing is patched outside that block, so an untraced run executes the
unmodified program.

A span is `[name, start, end, parent, counts]`: `parent` is the index of the
enclosing span (-1 for a root) and `counts` an optional dict of work counts
recorded at that boundary. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

from omnibot import assembler, backbone, datapipe, envs, heads
from omnibot import autodiff as ad
from omnibot.autodiff.tensor import Tensor
from omnibot.encoders import EncoderBank
from omnibot.policy import Policy

OPS = (
    "masked_attention",
    "linear",
    "layer_norm",
    "gelu",
    "conv2d",
    "take",
    "scatter_tokens",
    "concat",
    "embedding",
)
ROLLOUT_EMBODIMENTS = ("arm1", "nav", "bimanual", "quad")
STEP_ROOTS = ("train_step", "control_step")


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def add(self, idx: int, key: str, value: float) -> None:
        counts = self.spans[idx][4]
        if counts is None:
            counts = self.spans[idx][4] = {}
        counts[key] = counts.get(key, 0) + value

    def add_open(self, key: str, value: float) -> None:
        if self._open:
            self.add(self._open[-1], key, value)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, counts) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "counts": counts}))
                fh.write("\n")


# ------------------------------------------------------------ count recorders
# Each takes (tracer, span index, call args, call result) and runs after the
# span has ended, so the counting itself is not billed to the layer.


def _shard_bytes(tr, idx, args, out):
    tr.add(idx, "shard_bytes", os.path.getsize(args[0]))


def _images(tr, idx, args, out):
    tr.add(idx, "images", out.shape[0])


def _window_fill(tr, idx, args, out):
    tr.add(idx, "live_tokens", int(np.count_nonzero(~out.pad)))
    tr.add(idx, "slots", out.pad.size)
    tr.add(idx, "permitted", int(np.count_nonzero(out.attn_mask)))
    tr.add(idx, "mask_entries", out.attn_mask.size)


def _tokens(tr, idx, args, out):
    tr.add(idx, "tokens", out.shape[0] * out.shape[1])


def patch_points() -> list[tuple[object, str, str, object]]:
    """Every (owner, attribute, span name, count recorder) the traced run wraps."""
    points = [
        (envs, "generate_dataset", "envs.generate", None),
        (datapipe, "read_shard", "datapipe.read_shard", _shard_bytes),
        (datapipe.BatchSampler, "batch", "datapipe.batch", None),
        (EncoderBank, "encode_image", "encoders.image", _images),
        (EncoderBank, "encode_proprio", "encoders.proprio", None),
        (EncoderBank, "embed_language", "encoders.language", None),
        (assembler, "assemble_batch", "assembler", _window_fill),
        (assembler, "build_attention_mask", "assembler.mask", None),
        (backbone, "forward", "backbone.forward", _tokens),
        (heads, "project", "heads.project", None),
        (heads, "training_loss", "heads.loss", None),
        (heads, "decode", "heads.decode", None),
        (ad, "backward", "autodiff.backward", None),
        (Policy, "act", "policy.act", None),
    ]
    for cls in dict.fromkeys(envs.ENVS.values()):
        for attr in ("step", "frame"):
            if attr in cls.__dict__:
                points.append((cls, attr, f"envs.{attr}", None))
    points += [(ad, op, f"autodiff.fwd.{op}", None) for op in OPS]
    points.append((Tensor, "_make", "autodiff.bwd", None))
    return points


def _timed(tracer: Tracer, fn, name: str, record):
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        idx = begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            end(idx)
        if record is not None:
            record(tracer, idx, args, out)
        return out

    return wrapper


def _timed_act(tracer: Tracer, fn):
    # one span name per embodiment, so act latency splits by robot
    begin, end = tracer.begin, tracer.end

    def act(self, frames, head):
        idx = begin("policy.act." + frames[0].embodiment)
        try:
            return fn(self, frames, head)
        finally:
            end(idx)

    return act


def _taping_make(tracer: Tracer, make):
    begin, end, add_open = tracer.begin, tracer.end, tracer.add_open

    def _make(data, parents, bwd_factory, op):
        out = make(data, parents, bwd_factory, op)
        bwd = out.bwd
        if bwd is not None:
            add_open("tape_nodes", 1)
            add_open("tape_bytes", out.data.nbytes)
            name = "autodiff.bwd." + op

            def timed_bwd(g):
                idx = begin(name)
                try:
                    return bwd(g)
                finally:
                    end(idx)

            out.bwd = timed_bwd
        return out

    return staticmethod(_make)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install the timed wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, record in patch_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if attr == "_make":
                wrapped = _taping_make(tracer, original.__func__)
            elif owner is Policy:
                wrapped = _timed_act(tracer, original)
            else:
                wrapped = _timed(tracer, original, name, record)
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ------------------------------------------------------------ aggregation


# metric -> (span name, "total" | "self" time of that span)
LAYER_TIMES = {
    "datapipe.batch_ms": ("datapipe.batch", "total"),
    "envs.step_ms": ("envs.step", "total"),
    "envs.frame_ms": ("envs.frame", "total"),
    "encoders.image_ms": ("encoders.image", "total"),
    "encoders.proprio_ms": ("encoders.proprio", "total"),
    "encoders.language_ms": ("encoders.language", "total"),
    "assembler.self_ms": ("assembler", "self"),
    "assembler.mask_ms": ("assembler.mask", "total"),
    "backbone.forward_ms": ("backbone.forward", "total"),
    "heads.project_ms": ("heads.project", "total"),
    "heads.loss_ms": ("heads.loss", "total"),
    "heads.decode_ms": ("heads.decode", "total"),
    "autodiff.backward_ms": ("autodiff.backward", "total"),
    **{f"autodiff.{d}.{op}_ms": (f"autodiff.{d}.{op}", "total") for op in OPS for d in ("fwd", "bwd")},
}
# metric -> (count key, scale)
LAYER_COUNTS = {
    "encoders.images": ("images", 1.0),
    "backbone.tokens": ("tokens", 1.0),
    "autodiff.tape_nodes": ("tape_nodes", 1.0),
    "autodiff.tape_mb": ("tape_bytes", 1.0 / 2**20),
}
LAYER_RATIOS = {
    "assembler.live_token_frac": ("live_tokens", "slots"),
    "assembler.permitted_frac": ("permitted", "mask_entries"),
}


class _Scope:
    """Sums over the descendants of a set of root step spans."""

    def __init__(self, spans, dur, self_t, roots: list[int], root_of: list[int], lo: int, hi: int):
        self.roots = roots
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.span_roots: dict[str, set] = {}
        self.count_roots: dict[str, set] = {}
        wanted = set(roots)
        for i in range(lo, hi):
            r = root_of[i]
            if r not in wanted:
                continue
            name, _, _, _, counts = spans[i]
            if i != r:
                self.time[name] = self.time.get(name, 0.0) + dur[i]
                self.self_time[name] = self.self_time.get(name, 0.0) + self_t[i]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.span_roots.setdefault(name, set()).add(r)
            if counts:
                for key, v in counts.items():
                    self.counts[key] = self.counts.get(key, 0.0) + v
                    self.count_roots.setdefault(key, set()).add(r)


def per_layer(tracer: Tracer, loop_start: int) -> tuple[dict, dict]:
    """Per-layer metrics from a traced run, plus the scope each was taken in.

    Spans before `loop_start` belong to set-up (shard generation, shard read,
    warm-up steps); the rest to the measured loop. A metric is per step of
    the measured loop when the loop makes that call, and otherwise per
    warm-up step that makes it (scope "warmup"). Shard generation and reading
    happen only in set-up and are reported per set-up.
    """
    spans = tracer.spans
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    root_of = list(range(n))
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            self_t[parent] -= dur[i]
            root_of[i] = root_of[parent]

    def roots(lo, hi):
        return [i for i in range(lo, hi) if spans[i][3] < 0 and spans[i][0] in STEP_ROOTS]

    loop = _Scope(spans, dur, self_t, roots(loop_start, n), root_of, loop_start, n)
    warm = _Scope(spans, dur, self_t, roots(0, loop_start), root_of, 0, loop_start)
    if not loop.roots:
        raise RuntimeError("traced loop recorded no steps")

    metrics: dict[str, dict] = {}
    scopes: dict[str, str] = {}

    def put(name, value, unit, scope):
        metrics[name] = {"value": float(value), "unit": unit}
        scopes[name] = scope

    def pick(table, key, per_call=False):
        """Sum of `table[key]` per loop step, else per warm-up step making the call."""
        loop_t, warm_t = getattr(loop, table), getattr(warm, table)
        roots = "count_roots" if table == "counts" else "span_roots"
        if key in loop_t:
            div = loop.calls[key] if per_call else len(loop.roots)
            return loop_t[key] / div, "loop"
        if key in warm_t:
            div = warm.calls[key] if per_call else len(getattr(warm, roots)[key])
            return warm_t[key] / div, "warmup"
        raise RuntimeError(f"traced run never reached {key!r}")

    for metric, (span_name, kind) in LAYER_TIMES.items():
        value, scope = pick("time" if kind == "total" else "self_time", span_name)
        put(metric, value * 1e3, "ms", scope)
    for op in OPS:
        value, scope = pick("calls", f"autodiff.fwd.{op}")
        put(f"autodiff.calls.{op}", value, "count", scope)
    for metric, (key, scale) in LAYER_COUNTS.items():
        value, scope = pick("counts", key)
        put(metric, value * scale, "MiB" if metric.endswith("_mb") else "count", scope)
    for metric, (num, den) in LAYER_RATIOS.items():
        (a, scope), (b, _) = pick("counts", num), pick("counts", den)
        put(metric, a / b, "fraction", scope)
    for emb in ROLLOUT_EMBODIMENTS:
        value, scope = pick("time", f"policy.act.{emb}", per_call=True)
        put(f"policy.act_ms.{emb}", value * 1e3, "ms", scope)

    setup = [i for i in range(loop_start) if spans[i][3] < 0]
    gen = sum(dur[i] for i in setup if spans[i][0] == "envs.generate")
    reads = [i for i in setup if spans[i][0] == "datapipe.read_shard"]
    put("envs.generate_s", gen, "s", "setup")
    put("datapipe.read_shard_ms", sum(dur[i] for i in reads) * 1e3, "ms", "setup")
    put("datapipe.shard_mb", sum(spans[i][4]["shard_bytes"] for i in reads) / 2**20, "MiB", "setup")

    cover = [(dur[r] - self_t[r]) / dur[r] for r in loop.roots]
    put("trace.coverage", float(np.mean(cover)), "fraction", "loop")
    return metrics, scopes
