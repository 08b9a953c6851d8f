"""Set-up, measured loops and correctness gate of the benchmark's workloads.

Every workload uses the desk config in float32 and derives all of its inputs
(shards, policy parameters, batch draws, episode seeds) from one seed.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import hashlib
import os
import resource
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from omnibot import autodiff as ad
from omnibot import datapipe, envs, heads
from omnibot.autodiff.gradcheck import finite_diff_check
from omnibot.config import DESK_MIXTURE, desk_config
from omnibot.heads import EMBODIMENT_HEADS
from omnibot.policy import Policy
from omnibot.rng import derive_seed

import tracing

# float32 results must match a float64 recomputation to these relative
# (norm-wise) errors. Reordering a float32 reduction moves results by ~1e-6
# relative. The float64 copy runs the same code, so this comparison only
# catches precision divergence; the two logic checks below catch the rest.
LOSS_RTOL = 1e-5
GRAD_RTOL = 1e-4
ACT_RTOL = 1e-4
# The L1 training loss has a kink where a prediction meets its target; within
# float32 rounding of it the subgradient's sign is arbitrary, and one flipped
# element moved the whole gradient by 1e-3. Gradients are therefore compared
# on a copy of the batch whose targets this close to their float64
# prediction are moved 1 away, in both precisions.
KINK_ATOL = 1e-5
# Logic checks, on the float64 copy and the first checked step. Central
# differences of the loss (the repo's finite_diff_check, on parameters the
# batch reaches) must agree with the analytic gradient: observed errors are
# up to 5e-7, a wrong backward formula is off by far more. Each window's
# outputs must not depend on the rest of its batch: a window alone and in
# its batch agree to ~2e-15; a mask or compaction that mixes windows does
# not. On act_rollout, `Policy.act` must agree with the batched training
# path (`Policy.predict`) on the same windows.
FD_PROBES = 12
FD_RTOL = 1e-4
# A probe moves one parameter by 1e-5 and a prediction by up to ~1e-4; a
# target that close to its prediction puts the L1 kink inside the probe
# interval (one at 7e-6 gave an error of 4e-4), so the central differences
# are taken on a batch with targets this close moved 1 away.
FD_KINK_ATOL = 1e-3
ROW_RTOL = 1e-9
ROW_CHECK_WINDOWS = 8  # act windows batched together; bounds the checker's memory

WARMUP_BATCH_INDEX = 1 << 40  # warm-up batches never repeat a timed batch

# Time metrics are normalised to a nominal machine speed. On a shared 2-core
# x86-64 machine (OpenBLAS 0.3.31, one thread), the speed of the same code
# drifted by 10-30% within seconds, as other jobs came and went. A fixed
# probe of numpy and Python work, timed between steps, slowed down with it
# (correlation 0.89 with the training step, 0.95 with act, for a version of
# the probe that allocated its outputs). Scaling each step by
# PROBE_NOMINAL_S / (mean of the probes just before and just after it) cut
# the spread of 25-30 s medians from 0.07-0.29 to 0.01-0.05. The nominal
# time is a fixed reference; the probe's median during runs was 1.8-2.6 ms.
PROBE_NOMINAL_S = 2.8e-3


class SpeedProbe:
    """Fixed work that touches no omnibot code; its duration tracks machine speed.

    Its arrays are allocated once: a probe that allocated would page-fault or
    not depending on the program's heap, and so would track the program.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((1024, 64), dtype=np.float32)
        self.b = rng.standard_normal((64, 256), dtype=np.float32)
        self.q = rng.standard_normal((8, 256, 16), dtype=np.float32)
        self.qt = np.ascontiguousarray(self.q.transpose(0, 2, 1))
        self.h = np.empty((1024, 256), np.float32)
        self.s = np.empty((8, 256, 256), np.float32)
        self.o = np.empty_like(self.q)

    def __call__(self) -> float:
        gc.disable()  # a collection of the program's garbage must not land here
        try:
            t0 = time.perf_counter()
            np.matmul(self.a, self.b, out=self.h)
            np.tanh(self.h, out=self.h)
            np.matmul(self.q, self.qt, out=self.s)
            self.s *= np.float32(0.01)
            np.exp(self.s, out=self.s)
            np.matmul(self.s, self.q, out=self.o)
            acc: dict[int, int] = {}
            for i in range(5000):
                acc[i & 63] = acc.get(i & 63, 0) + i
            return time.perf_counter() - t0
        finally:
            gc.enable()


class Stopwatch:
    """Normalised time of a stretch of work that calls `lap()` after each part.

    Each part is scaled like a timed step, by PROBE_NOMINAL_S over the mean
    of the probes at its two ends. The probes themselves are not counted.
    """

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.raw = self.normalised = 0.0
        self.before = probe()
        self.start = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        after = self.probe()
        self.raw += end - self.start
        self.normalised += (end - self.start) * PROBE_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        self.start = time.perf_counter()


@dataclass(frozen=True)
class Workload:
    kind: str  # "train" (batch -> loss -> backward) or "act" (closed-loop control)
    mixture: tuple[tuple[str, float], ...]


WORKLOADS = {
    "train_mix": Workload("train", tuple(DESK_MIXTURE)),
    "train_bimanual": Workload("train", (("bimanual", 1.0),)),
    "act_rollout": Workload("act", tuple(DESK_MIXTURE)),
}


@dataclass(frozen=True)
class Scale:
    trajectories: int = 20  # per embodiment in the workload's mixture
    batch: int = field(default_factory=lambda: desk_config().train.batch_size)
    setups: int = 5  # set-up repetitions per run; setup_s is their median
    warmup_steps: int = 2  # untimed training steps per set-up (plus one control step per robot)
    min_steps: int = 24  # timed steps every run makes; the fingerprint covers exactly these
    check_every: int = 32  # every n-th timed step is recomputed in float64


class GateError(Exception):
    """A timed output failed the correctness gate."""


@dataclass
class Rig:
    policy: Policy
    sampler: datapipe.BatchSampler
    shard_digest: str


@dataclass
class Phase:
    """Outcome of one measured loop."""

    items_per_step: int  # training samples per step, or 1 control step
    step_s: list[float] = field(default_factory=list)  # a training step, or one Policy.act call
    item_s: list[float] = field(default_factory=list)  # a training step, or one whole control step
    probe_s: list[float] = field(default_factory=list)  # mean of the probes around each step
    attempted: int = 0
    failed: int = 0
    fingerprint: list[np.ndarray] = field(default_factory=list)  # outputs of the first `min_steps` steps
    checks: list[tuple] = field(default_factory=list)  # kept for the float64 recomputation


# ------------------------------------------------------------------ set-up


def _train_step(policy: Policy, sampler, index: int, batch_size: int):
    batch = sampler.batch(index, batch_size)
    loss = policy.loss(batch)
    grads = ad.backward(loss, policy.params.values())
    return loss.data, grads  # the tape is freed here, inside the step, as a trainer would


def _control_step(policy: Policy, env, state, frames, instruction: int):
    emb = frames[-1].embodiment
    chunk = policy.act(frames[-policy.layout.history:], EMBODIMENT_HEADS[emb])
    t_act = time.perf_counter()
    state = env.step(state, chunk.values[0].astype(np.float64))
    frames.append(env.frame(state, instruction))
    return chunk, state, t_act


def set_up(wl: Workload, seed: int, scale: Scale, workdir: str, span, lap) -> Rig:
    """Generate and read shards, build the policy and sampler, then warm up.

    The warm-up runs both paths (training steps and one control step per
    robot), so first-call costs stay out of every timed loop. `lap()` is
    called after each part, the last one included.
    """
    cfg = desk_config()
    datasets, paths = {}, []
    for name, _ in wl.mixture:
        path = os.path.join(workdir, f"{name}.xeds")
        envs.generate_dataset(name, scale.trajectories, derive_seed(seed, "shard", name), path, cfg)
        datasets[name] = datapipe.read_shard(path)[1]
        paths.append(path)
        lap()
    policy = Policy.init(cfg, derive_seed(seed, "policy"))
    sampler = datapipe.BatchSampler(
        datasets, datapipe.MixtureSpec(list(wl.mixture)), cfg, policy.layout, derive_seed(seed, "sampler")
    )
    lap()
    for i in range(scale.warmup_steps):
        with span("train_step"):
            _train_step(policy, sampler, WARMUP_BATCH_INDEX + i, scale.batch)
        lap()
    for emb in tracing.ROLLOUT_EMBODIMENTS:
        env = envs.make_env(emb)
        state, frame, instruction = env.reset(derive_seed(seed, "warmup", emb))
        with span("control_step"):
            _control_step(policy, env, state, [frame], instruction)
        lap()

    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    lap()
    return Rig(policy, sampler, digest.hexdigest())


# ------------------------------------------------------------------ loops


def _finite_chunk(chunk, spec) -> None:
    if chunk.values.shape != (spec.chunk_size, spec.action_dim):
        raise GateError(f"{spec.name} chunk shape {chunk.values.shape}")
    if not np.isfinite(chunk.values).all():
        raise GateError(f"{spec.name} chunk is not finite")


def train_loop(rig: Rig, scale: Scale, seconds: float, span, probe: SpeedProbe) -> Phase:
    """Closed loop of training steps over batch indices 0, 1, 2, ..."""
    policy, names = rig.policy, list(rig.policy.params)
    ph = Phase(scale.batch)
    deadline = time.perf_counter() + seconds
    i = 0
    before = probe()
    while i < scale.min_steps or time.perf_counter() < deadline:
        ph.attempted += 1
        try:
            with span("train_step"):
                t0 = time.perf_counter()
                loss, grads = _train_step(policy, rig.sampler, i, scale.batch)
                t1 = time.perf_counter()
            if loss.size != 1 or not np.isfinite(loss).all():
                raise GateError(f"step {i}: loss {loss!r}")
            if not all(np.isfinite(g).all() for g in grads.values()):
                raise GateError(f"step {i}: non-finite gradient")
        except Exception:  # the loop must keep running; every failure is counted
            traceback.print_exc()
            ph.failed += 1
            i += 1
            before = probe()
            continue
        after = probe()
        ph.step_s.append(t1 - t0)
        ph.item_s.append(t1 - t0)
        ph.probe_s.append((before + after) / 2)
        before = after
        if i < scale.min_steps:
            ph.fingerprint.append(loss.astype(np.float32))
        if i % scale.check_every == 0:
            ph.checks.append((i, loss.item(), [grads[policy.params[n]] for n in names]))
        i += 1
    return ph


def act_loop(rig: Rig, scale: Scale, seconds: float, span, probe: SpeedProbe, seed: int) -> Phase:
    """One client acting at B=1: episodes cycle through the four robots.

    Only whole cycles run, so every run weighs the robots alike.
    """
    policy = rig.policy
    ph = Phase(1)
    deadline = time.perf_counter() + seconds
    episode = 0
    before = probe()
    while episode == 0 or time.perf_counter() < deadline:
        for emb in tracing.ROLLOUT_EMBODIMENTS:
            env = envs.make_env(emb)
            state, frame, instruction = env.reset(derive_seed(seed, "episode", episode))
            spec = policy.head_specs[EMBODIMENT_HEADS[emb]]
            frames = [frame]
            episode += 1
            while state.t < env.spec.horizon:
                ph.attempted += 1
                window = frames[-policy.layout.history:]
                try:
                    with span("control_step"):
                        t0 = time.perf_counter()
                        chunk, state, t_act = _control_step(policy, env, state, frames, instruction)
                        t1 = time.perf_counter()
                    _finite_chunk(chunk, spec)
                except Exception:  # ExecutionError included: counted, and the episode ends
                    traceback.print_exc()
                    ph.failed += 1
                    before = probe()
                    break
                after = probe()
                n = len(ph.step_s)
                ph.step_s.append(t_act - t0)
                ph.item_s.append(t1 - t0)
                ph.probe_s.append((before + after) / 2)
                before = after
                if n < scale.min_steps:
                    ph.fingerprint.append(chunk.values.astype(np.float32))
                if n % scale.check_every == 0:
                    ph.checks.append((window, spec.name, chunk.values.copy()))
    return ph


# ------------------------------------------------------------------ float64 gate


def _off_kink(batch, preds64, atol: float = KINK_ATOL):
    """`batch` with supervised targets within `atol` of their prediction moved 1 away, or None."""
    targets, moved = {}, False
    for head, pred in preds64.items():
        supervised = batch.loss_masks[head][..., None] > 0
        near = (np.abs(pred.data - batch.targets[head]) <= atol) & supervised
        targets[head] = batch.targets[head] + near.astype(np.float32)
        moved = moved or bool(near.any())
    return replace(batch, targets=targets) if moved else None


def _rel_err(a, b) -> float:
    den = float(np.linalg.norm(b))
    return float(np.linalg.norm(np.asarray(a, np.float64) - b)) / (den if den > 0 else 1.0)


def _train_logic_check(p64: Policy, batch, preds64: dict, g64: dict, seed: int, stats: dict) -> bool:
    """Central differences against the float64 gradient, and each window alone against its batch."""
    reached = {n: p for n, p in p64.params.items() if np.any(g64[p])}
    fd_batch = _off_kink(batch, preds64, FD_KINK_ATOL) or batch
    report = finite_diff_check(lambda: p64.loss(fd_batch), reached, probes=FD_PROBES, seed=seed)
    stats["fd_rel_err"] = report.max_rel_err
    stats["fd_probes_ok"] = sum(p.status == "ok" for p in report.probes)
    row_err = 0.0
    for j in range(len(batch.windows)):
        alone = p64.predict(replace(batch, windows=batch.windows[j:j + 1]))
        row_err = max(row_err, *(_rel_err(alone[h].data[0], preds64[h].data[j]) for h in preds64))
    stats["row_rel_err"] = row_err
    return report.max_rel_err <= FD_RTOL and stats["fd_probes_ok"] > 0 and row_err <= ROW_RTOL


def _act_logic_check(p64: Policy, checks: list, stats: dict) -> bool:
    """`Policy.act` on each window against the training path on all of them as one batch."""
    kept = checks[:ROW_CHECK_WINDOWS]
    windows = [window for window, _, _ in kept]
    names = [head for _, head, _ in kept]
    batch = datapipe.TrainingBatch(windows, {}, {}, names, [w[-1].embodiment for w in windows])
    preds = p64.predict(batch)
    valid = p64.assemble(windows).valid_steps
    row_err = 0.0
    for j, (window, head, _) in enumerate(kept):
        newest = int(np.flatnonzero(valid[j])[-1])
        row_err = max(row_err, _rel_err(p64.act(window, head).values, preds[head].data[j, newest]))
    stats["row_rel_err"] = row_err
    return row_err <= ROW_RTOL


def float64_check(wl: Workload, rig: Rig, scale: Scale, ph: Phase) -> tuple[int, dict]:
    """Recompute the kept steps with a float64 copy of the same parameters.

    The first kept step also gets the logic checks. Returns the number of
    failed checks and the largest errors seen, with how many gradient
    comparisons needed targets moved off the L1 kink.
    """
    p32 = rig.policy
    p64 = Policy(p32.cfg, {n: ad.param(p.data.astype(np.float64)) for n, p in p32.params.items()})
    names = list(p32.params)
    stats = {"loss_rel_err": 0.0, "grad_rel_err": 0.0, "act_rel_err": 0.0, "kink_shifted": 0}
    bad = 0
    for k, check in enumerate(ph.checks):
        try:
            if wl.kind == "train":
                index, loss32, grads32 = check
                batch = rig.sampler.batch(index, scale.batch)
                preds64 = p64.predict(batch)
                loss64 = heads.training_loss(preds64, batch.targets, batch.loss_masks)
                l_err = abs(loss32 - loss64.item()) / abs(loss64.item())
                shifted = _off_kink(batch, preds64)
                if shifted is None:
                    g64 = ad.backward(loss64, p64.params.values())
                else:
                    stats["kink_shifted"] += 1
                    g32 = ad.backward(p32.loss(shifted), p32.params.values())
                    grads32 = [g32[p32.params[n]] for n in names]
                    g64 = ad.backward(p64.loss(shifted), p64.params.values())
                num = sum(float(np.sum((g.astype(np.float64) - g64[p64.params[n]]) ** 2))
                          for n, g in zip(names, grads32))
                den = sum(float(np.sum(g64[p64.params[n]] ** 2)) for n in names)
                g_err = (num / den) ** 0.5
                stats["loss_rel_err"] = max(stats["loss_rel_err"], l_err)
                stats["grad_rel_err"] = max(stats["grad_rel_err"], g_err)
                ok = l_err <= LOSS_RTOL and g_err <= GRAD_RTOL
                if k == 0:
                    ok = _train_logic_check(p64, batch, preds64, g64, index, stats) and ok
            else:
                window, head, values32 = check
                a_err = _rel_err(values32, p64.act(window, head).values)
                stats["act_rel_err"] = max(stats["act_rel_err"], a_err)
                ok = a_err <= ACT_RTOL
                if k == 0:
                    ok = _act_logic_check(p64, ph.checks, stats) and ok
        except Exception:  # a crash in the recomputation is a failed check
            traceback.print_exc()
            ok = False
        bad += not ok
    return bad, stats


# ------------------------------------------------------------------ one run


def _loop(wl: Workload, rig: Rig, scale: Scale, seconds: float, span, probe, seed: int) -> Phase:
    if wl.kind == "train":
        return train_loop(rig, scale, seconds, span, probe)
    return act_loop(rig, scale, seconds, span, probe, seed)


def _end_to_end(wl: Workload, ph: Phase, setup_s: list[float], normalise: bool = True) -> dict:
    """The timed end-to-end metrics; steps at nominal machine speed unless `normalise` is off."""
    speed = PROBE_NOMINAL_S / np.asarray(ph.probe_s) if normalise else 1.0
    step_ms = np.asarray(ph.step_s) * speed * 1e3
    item_s = np.asarray(ph.item_s) * speed
    tail = 90 if wl.kind == "train" else 99
    return {
        "step_ms_p50": {"value": float(np.median(step_ms)), "unit": "ms"},
        "step_ms_tail": {"value": float(np.percentile(step_ms, tail)), "unit": "ms"},
        "items_per_s": {"value": len(item_s) * ph.items_per_step / float(item_s.sum()), "unit": "1/s"},
        "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
    }


def _start_peak_window() -> str:
    """Return freed heap to the OS and restart the peak-RSS count (Linux).

    Writing 5 to /proc/self/clear_refs resets the peak RSS (VmHWM, which
    ru_maxrss reports) to the current RSS, so the peak read after the loop
    is the loop's own, not set-up's. Returns the peak's scope: "loop", or
    "process" where the reset is not available.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).malloc_trim(0)
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
        return "loop"
    except OSError:
        return "process"


def _fingerprint(ph: Phase) -> dict:
    blob = b"".join(np.ascontiguousarray(a).tobytes() for a in ph.fingerprint)
    return {
        "steps": len(ph.fingerprint),
        "sha256": hashlib.sha256(blob).hexdigest(),
        "sum": float(sum(float(np.sum(a, dtype=np.float64)) for a in ph.fingerprint)),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale: Scale, workdir: str) -> dict:
    """Set up, measure and check one workload.

    Untraced, the whole measured time is one loop and the end-to-end metrics
    are reported. Traced, set-up runs with the tracer installed, then the
    time splits into an untraced loop and a traced loop whose spans give the
    per-layer metrics; the gap between their median steps is the tracing
    overhead.
    """
    wl = WORKLOADS[workload]
    tracer = tracing.Tracer() if trace else None
    null_span = lambda name: contextlib.nullcontext()  # noqa: E731
    probe = SpeedProbe()
    setups = 1 if trace else scale.setups
    setup_s, setup_raw_s, digests = [], [], []
    for _ in range(setups):
        rig = None  # free the previous set-up before building the next
        gc.collect()
        with tempfile.TemporaryDirectory(dir=workdir) as tmp:
            with tracing.instrument(tracer) if trace else contextlib.nullcontext():
                watch = Stopwatch(probe)
                rig = set_up(wl, seed, scale, tmp, tracer.span if trace else null_span, watch.lap)
        setup_s.append(watch.normalised)
        setup_raw_s.append(watch.raw)
        digests.append(rig.shard_digest)

    gc.collect()
    peak_scope = _start_peak_window()
    if trace:
        plain = _loop(wl, rig, scale, seconds / 2, null_span, probe, seed)
        loop_start = len(tracer.spans)
        with tracing.instrument(tracer):
            ph = _loop(wl, rig, scale, seconds / 2, tracer.span, probe, seed)
    else:
        ph = _loop(wl, rig, scale, seconds, null_span, probe, seed)
    if not ph.step_s:
        raise RuntimeError(f"{workload}: no timed step succeeded")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    bad_checks, check_stats = float64_check(wl, rig, scale, ph)
    mismatched_setups = sum(d != digests[0] for d in digests)
    attempted = ph.attempted + setups
    failed = ph.failed + bad_checks + mismatched_setups

    if trace:
        attempted += plain.attempted
        failed += plain.failed
        metrics, scopes = tracing.per_layer(tracer, loop_start)
        traced = _end_to_end(wl, ph, setup_s)["step_ms_p50"]["value"]
        untraced = _end_to_end(wl, plain, setup_s)["step_ms_p50"]["value"]
        metrics["trace.overhead_ms"] = {"value": traced - untraced, "unit": "ms"}
        scopes["trace.overhead_ms"] = "loop"
    else:
        metrics = _end_to_end(wl, ph, setup_s)
        metrics["peak_rss_mb"] = {"value": peak_rss_mib, "unit": "MiB"}
        scopes = {}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "workload": workload,
            "timed_steps": len(ph.step_s),
            "wall_clock": _end_to_end(wl, ph, setup_raw_s, normalise=False),
            "probe_ms_p50": float(np.median(ph.probe_s)) * 1e3,
            "setup_s_all": setup_s,
            "setup_raw_s_all": setup_raw_s,
            "float64_checks": len(ph.checks),
            "float64_check": check_stats,
            "fingerprint": _fingerprint(ph),
            "shard_sha256": digests[0],
            "peak_rss_scope": peak_scope,
            "scopes": scopes,
        },
        "tracer": tracer,
    }
