"""Compacted windows against the dense computation, in float64.

The dense oracle runs `backbone.forward` without a head on the whole
assembled window and reads every head's readouts from its rows.
`Policy.predict` and `Policy.act` run the backbone only on the compact
windows `assembler.assemble_batch` builds for a head, and its last layer
only on the readout rows; everything that reaches a loss or an action must
agree with the oracle to rounding. `predict` runs one padless window per
bucket of one (robot, frame count), with readouts at its valid steps
alone, so its predictions at steps with no frame are exact zeros and the
oracle is compared at the valid steps. The policy under test has nonzero
biases and norm gains, so a padded readout's output is not 0 and a
prediction at a step with no frame shows.
"""

import dataclasses
import types

import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot import assembler, backbone, datapipe, envs, heads
from omnibot.assembler import ObservationFrame
from omnibot.autodiff import Tensor, ops
from omnibot.config import desk_config
from omnibot.datapipe import TrainingBatch
from omnibot.embodiments import embodiment
from omnibot.encoders import EncoderBank
from omnibot.errors import ContractError
from omnibot.policy import Policy
from omnibot.rng import derive_seed
from test_autodiff import heads_oracle, step_mask, step_structure, tile_entries

TOL = 1e-12
EMBODIMENTS = ("arm1", "nav", "bimanual", "quad")
# (embodiment, newest frame index) of a batch of windows of every length 1-5
SHORT_PICKS = [("arm1", 0), ("arm1", 4), ("nav", 1), ("nav", 3), ("bimanual", 2), ("bimanual", 9), ("quad", 3), ("quad", 0)]


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


def float64_policy(cfg, seed):
    """The float32 policy of `seed`, cast to float64."""
    p32 = Policy.init(cfg, seed)
    return Policy(cfg, {name: ad.param(p.data.astype(np.float64)) for name, p in p32.params.items()})


def with_biases(policy, seed):
    """`policy` with every bias nonzero and every norm gain off 1: a readout with no frame then outputs no zero."""
    rng = np.random.Generator(np.random.PCG64(seed))
    params = {}
    for name, p in policy.params.items():
        leaf = name.rsplit("/", 1)[-1]
        if leaf == "g":
            data = 1 + 0.2 * rng.standard_normal(p.shape)
        elif leaf.endswith("b") or leaf in ("b1", "b2"):
            data = 0.2 * rng.standard_normal(p.shape)
        else:
            data = p.data
        params[name] = ad.param(np.asarray(data, dtype=p.data.dtype))
    return Policy(policy.cfg, params)


@pytest.fixture(scope="module")
def policy(cfg):
    return with_biases(float64_policy(cfg, seed=4), seed=6)


@pytest.fixture(scope="module")
def sampler(cfg, policy, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("shards")
    datasets = {}
    for i, name in enumerate(EMBODIMENTS):
        path = str(tmp / f"{name}.xeds")
        envs.generate_dataset(name, 3, 100 + i, path, cfg)
        datasets[name] = datapipe.read_shard(path)[1]
    mixture = datapipe.MixtureSpec([(n, 1.0) for n in EMBODIMENTS])
    return datapipe.BatchSampler(datasets, mixture, cfg, policy.layout, seed=5)


def batch_of(sampler, cfg, picks, seed=0):
    """A batch of (embodiment, newest frame index) picks; early indices give short windows."""
    rng = np.random.Generator(np.random.PCG64(seed))
    examples = []
    for i, (name, end) in enumerate(picks):
        trajs = sampler.datasets[name]
        examples.append(sampler.build_example(trajs[i % len(trajs)], end, rng))
    return datapipe.collate(examples, cfg)


def dense_readouts(policy, window, head):
    """A head's readouts at every step, read from the full-window forward: [B, k, chunk, d]."""
    emb = backbone.forward(window, policy.params, policy.cfg)
    idx = policy.layout.readout_indices(head)
    return ad.take(emb, idx.ravel(), axis=1).reshape(emb.shape[0], *idx.shape, emb.shape[-1])


def dense_predictions(policy, windows):
    window = policy.assemble(windows)
    return {h: heads.project(dense_readouts(policy, window, h), policy.params, h) for h in policy.head_specs}


def rollout_frames(name, n, seed):
    env = envs.make_env(name)
    state, frame, instruction = env.reset(seed)
    frames = [frame]
    action = np.zeros(env.spec.action_dim)
    while len(frames) < n:
        state = env.step(state, action)
        frames.append(env.frame(state, instruction))
    return frames


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def valid_steps(policy, windows):
    """[B, k] bool: the steps that hold a frame; every window ends at step k - 1."""
    return np.arange(policy.layout.history) >= policy.layout.history - np.array([len(w) for w in windows])[:, None]


def assert_matches_dense(policy, batch):
    """Predictions at the valid steps, loss and the whole gradient against the dense oracle."""
    owners = [embodiment(w[0].embodiment).head for w in batch.windows]
    valid = valid_steps(policy, batch.windows)
    preds = policy.predict(batch)
    dense = dense_predictions(policy, batch.windows)
    for h, pred in preds.items():
        assert pred.shape == dense[h].shape
        own = np.array([o == h for o in owners])[:, None] & valid
        np.testing.assert_array_equal(pred.data[~own], 0.0)
        if own.any():
            assert rel_err(pred.data[own], dense[h].data[own]) <= TOL, h

    params = list(policy.params.values())
    loss = heads.training_loss(preds, batch.targets, batch.loss_masks)
    loss_dense = heads.training_loss(dense, batch.targets, batch.loss_masks)
    assert abs(loss.item() - loss_dense.item()) <= TOL * abs(loss_dense.item())
    g = ad.backward(loss, params)
    g_dense = ad.backward(loss_dense, params)
    diff = np.concatenate([(g[p] - g_dense[p]).ravel() for p in params])
    norm = float(np.linalg.norm(np.concatenate([g_dense[p].ravel() for p in params])))
    assert norm > 0
    assert float(np.linalg.norm(diff)) <= TOL * norm
    # attention key biases have an exactly-zero true gradient, so elements
    # are held to the global norm rather than to their own size
    assert float(np.abs(diff).max()) <= TOL * norm


def test_mixed_batch_matches_dense(policy, sampler, cfg):
    batch = sampler.batch(0, 8)
    assert len({w[0].embodiment for w in batch.windows}) > 1
    assert_matches_dense(policy, batch)


def test_short_windows_match_dense(policy, sampler, cfg):
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    assert {len(w) for w in batch.windows} == {1, 2, 3, 4, 5}
    assert_matches_dense(policy, batch)


def test_predict_is_exact_zero_at_steps_without_a_frame(policy, sampler, cfg):
    """The oracle's readouts at those steps are not zero, so this sees a padded readout run in `predict`."""
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    empty = ~valid_steps(policy, batch.windows)
    assert empty.any()
    preds, dense = policy.predict(batch), dense_predictions(policy, batch.windows)
    for h, pred in preds.items():
        np.testing.assert_array_equal(pred.data[empty], 0.0)
    owners = np.array([embodiment(w[0].embodiment).head for w in batch.windows])
    for b, step in zip(*np.nonzero(empty)):
        assert np.abs(dense[owners[b]].data[b, step]).min() > 0, (b, step)


def test_batch_with_unowned_heads_matches_dense(policy, sampler, cfg):
    batch = batch_of(sampler, cfg, [("arm1", 2), ("nav", 4), ("arm1", 8)], seed=1)
    preds = policy.predict(batch)
    for h in ("bimanual", "quadruped"):
        np.testing.assert_array_equal(preds[h].data, 0.0)
    assert_matches_dense(policy, batch)


def test_batch_owning_one_head_matches_dense(policy, sampler, cfg):
    batch = batch_of(sampler, cfg, [("bimanual", 1), ("bimanual", 5), ("bimanual", 12)], seed=2)
    assert_matches_dense(policy, batch)


def test_window_alone_matches_its_row_in_a_mixed_batch(policy, sampler):
    batch = sampler.batch(1, 8)
    preds = policy.predict(batch)
    for j in range(len(batch.windows)):
        alone = policy.predict(dataclasses.replace(batch, windows=batch.windows[j : j + 1]))
        for h, pred in preds.items():
            want = pred.data[j]
            if np.any(want):
                assert rel_err(alone[h].data[0], want) <= TOL
            else:
                np.testing.assert_array_equal(alone[h].data[0], 0.0)


def test_predict_ignores_targets_and_masks(policy, sampler):
    batch = sampler.batch(2, 4)
    bare = datapipe.TrainingBatch(batch.windows, {}, {}, [], [])
    for h, pred in policy.predict(bare).items():
        np.testing.assert_array_equal(pred.data, policy.predict(batch)[h].data)


def test_predict_loss_and_validation_reject_a_batch_of_no_windows(policy):
    empty = datapipe.TrainingBatch([], {}, {}, [], [])
    for run in (policy.predict, policy.loss, policy.validation_mse):
        with pytest.raises(ContractError, match="at least one window"):
            run(empty)


@pytest.mark.parametrize("name", ("arm1", "nav", "nav-shifted", "bimanual", "quad"))
def test_act_matches_dense_newest_step(policy, name):
    head = embodiment(name).head
    spec = policy.head_specs[head]
    frames = rollout_frames(name, 5, seed=21)
    for n in range(1, 6):
        full = policy.assemble([frames[:n]])
        readouts = dense_readouts(policy, full, head)
        want = heads.decode(ad.tensor(readouts.data[0, -1]), policy.params, spec).values
        got = policy.act(frames[:n], head).values
        assert got.shape == (spec.chunk_size, spec.action_dim)
        assert rel_err(got, want) <= TOL, n


def tape(out):
    """Every node that `out` reaches through its parents."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if node.id not in seen:
            seen[node.id] = node
            stack.extend(node.parents)
    return seen.values()


def per_head_predictions(policy, batch):
    """One `backbone.forward` per owned head, on its compact window of every step: the bucketed pass's oracle.

    That window keeps the union of its owners' live columns, so its short
    windows are padded and its readouts at steps with no frame run too.
    """
    owners = np.array([embodiment(w[0].embodiment).head for w in batch.windows])
    b, k = len(batch.windows), policy.layout.history
    out = {}
    for name, spec in policy.head_specs.items():
        rows = np.flatnonzero(owners == name)
        shape = (b, k, spec.chunk_size, spec.action_dim)
        if not rows.size:
            out[name] = ad.zeros(shape, policy.dtype)
            continue
        sub = compact_window(policy, [batch.windows[r] for r in rows], name)
        pred = heads.project(backbone.forward(sub, policy.params, policy.cfg), policy.params, name)
        out[name] = ad.scatter_tokens(pred.reshape(rows.size, -1), rows, np.zeros_like(rows), b, 1).reshape(shape)
    return out


# batches owning 1, 2, 3 and 4 heads; SHORT_PICKS pads windows of every length 1-5
OWNED_PICKS = {
    1: [("nav", 2), ("nav", 4), ("nav", 0)],
    2: [("quad", 1), ("nav", 4), ("quad", 7), ("nav", 3)],
    3: [("arm1", 3), ("bimanual", 0), ("quad", 2), ("arm1", 6)],
    4: SHORT_PICKS,
}


@pytest.mark.parametrize("owned", sorted(OWNED_PICKS))
def test_one_pass_matches_one_forward_per_head(policy, sampler, cfg, owned):
    """Predictions, loss, validation MSE and every gradient of the packed pass against the per-head oracle."""
    batch = batch_of(sampler, cfg, OWNED_PICKS[owned], seed=owned)
    assert len({embodiment(w[0].embodiment).head for w in batch.windows}) == owned
    preds, oracle = policy.predict(batch), per_head_predictions(policy, batch)
    valid = valid_steps(policy, batch.windows)
    for h, pred in preds.items():
        assert pred.shape == oracle[h].shape
        np.testing.assert_array_equal(pred.data[~valid], 0.0)
        if oracle[h].data[valid].any():
            assert rel_err(pred.data[valid], oracle[h].data[valid]) <= TOL, h
        else:
            np.testing.assert_array_equal(pred.data, 0.0)
    got = heads.validation_mse(preds, batch.targets, batch.loss_masks).item()
    want = heads.validation_mse(oracle, batch.targets, batch.loss_masks).item()
    assert abs(policy.validation_mse(batch).item() - want) <= TOL * want and abs(got - want) <= TOL * want
    params = list(policy.params.values())
    loss, loss_oracle = policy.loss(batch), heads.training_loss(oracle, batch.targets, batch.loss_masks)
    assert abs(loss.item() - loss_oracle.item()) <= TOL * loss_oracle.item()
    g, g_oracle = ad.backward(loss, params), ad.backward(loss_oracle, params)
    norm = float(np.linalg.norm(np.concatenate([g_oracle[p].ravel() for p in params])))
    assert norm > 0
    for p in params:  # held to the global norm: attention key biases have an exactly-zero true gradient
        assert float(np.abs(g[p] - g_oracle[p]).max()) <= TOL * norm


def buckets(windows):
    """Each (robot, frame count) of `windows`, with its windows' positions."""
    out = {}
    for i, w in enumerate(windows):
        out.setdefault((w[0].embodiment, len(w)), []).append(i)
    return out


def test_a_four_head_batch_runs_one_backbone_pass_with_one_attention_node_per_layer(policy, sampler, cfg, monkeypatch):
    """One `backbone.forward` of one padless window per bucket, and one `masked_attention` node per layer."""
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    forwards, forward = [], backbone.forward
    monkeypatch.setattr(backbone, "forward", lambda *args: forwards.append(args[0]) or forward(*args))
    loss = policy.loss(batch)
    shapes = buckets(batch.windows)
    assert len(shapes) == len(SHORT_PICKS)  # every window is a bucket of its own
    assert len(forwards) == 1 and len(forwards[0]) == len(shapes)
    assert all(not w.pad.any() and w.readouts.shape[0] == w.valid_steps.sum(axis=1).max() for w in forwards[0])
    assert [node.op for node in tape(loss)].count("masked_attention") == cfg.backbone.layers


def test_a_one_bucket_batch_is_byte_equal_to_its_one_window_call(cfg, sampler):
    """float32: one bucket runs the plain [B, T, d] call, so loss and gradients are the one-window call's bytes.

    That call is the bucket's windows' compact window at their valid steps,
    assembled and encoded alone, with its predictions placed at those steps.
    """
    p32 = Policy.init(cfg, 7)
    params, k = list(p32.params.values()), p32.layout.history
    for picks in ([("arm1", 6), ("arm1", 4), ("arm1", 9)], [("bimanual", 5), ("bimanual", 12), ("bimanual", 7)],
                  [("quad", 2), ("quad", 2)]):
        batch = batch_of(sampler, cfg, picks, seed=3)
        (((robot, f), _),) = buckets(batch.windows).items()
        head, n = embodiment(robot).head, len(picks)
        sub = compact_window(p32, batch.windows, head, slice(k - f, None))
        pred = heads.project(backbone.forward(sub, p32.params, p32.cfg), p32.params, head)
        oracle = {h: ad.zeros((n, k, spec.chunk_size, spec.action_dim), p32.dtype) for h, spec in p32.head_specs.items()}
        placed = ad.scatter_tokens(pred.reshape(n * f, -1), np.repeat(np.arange(n), f), np.tile(np.arange(k - f, k), n), n, k)
        oracle[head] = placed.reshape(oracle[head].shape)
        loss, want = p32.loss(batch), heads.training_loss(oracle, batch.targets, batch.loss_masks)
        assert loss.data.dtype == np.float32 and loss.data.tobytes() == want.data.tobytes()
        g, g_oracle = ad.backward(loss, params), ad.backward(want, params)
        assert all(g[p].tobytes() == g_oracle[p].tobytes() for p in params)
        assert (robot, f, head, n) in p32.window_structures


def test_a_second_batch_of_the_same_bucket_shapes_builds_no_structure_or_mask(cfg, sampler, monkeypatch):
    """A bucket's structure is kept by (robot, frames, head, window count), beside `act`'s, and outlives
    `params_changed`; the kept entries stay within robots x history x batch size."""
    policy = Policy.init(cfg, 8)
    shapes = buckets(batch_of(sampler, cfg, SHORT_PICKS).windows).keys()
    policy.predict(batch_of(sampler, cfg, SHORT_PICKS))
    kept = dict(policy.window_structures)
    assert set(kept) == {(r, f, embodiment(r).head, 1) for r, f in shapes}
    policy.params_changed()
    calls = []
    for name in ("window_structure", "build_attention_mask"):
        build = getattr(assembler, name)
        monkeypatch.setattr(assembler, name, lambda *args, build=build, name=name: calls.append(name) or build(*args))
    again = batch_of(sampler, cfg, SHORT_PICKS[::-1], seed=9)  # other trajectories of the same shapes
    assert buckets(again.windows).keys() == shapes
    policy.predict(again)
    assert calls == [] and all(policy.window_structures[key] is s for key, s in kept.items())
    monkeypatch.undo()
    size, k = 8, policy.layout.history
    for i in range(12):
        policy.predict(sampler.batch(i, size))
    assert len(policy.window_structures) <= len(EMBODIMENTS) * k * size
    for robot, f, head, n in policy.window_structures:
        assert robot in EMBODIMENTS and 1 <= f <= k and head == embodiment(robot).head and 1 <= n <= size


def test_bimanual_cameras_are_encoded_in_one_pass(policy, monkeypatch):
    """bimanual's three views go through one grouped pass: 3 conv2d nodes (one per stage) for a window, not 9."""
    frames = rollout_frames("bimanual", 3, seed=23)
    pred = policy.predict(TrainingBatch([frames], {}, {}, [], []))["bimanual"]
    ops = [node.op for node in tape(pred)]
    assert ops.count("conv2d") == ops.count("film") == 3
    made, make = [], Tensor._make
    monkeypatch.setattr(Tensor, "_make", staticmethod(lambda data, parents, bwd, op: made.append(op) or make(data, parents, bwd, op)))
    policy.params_changed()  # every frame is new to `act`
    policy.act(frames, "bimanual")
    assert made.count("conv2d") == made.count("film") == 3


def test_a_four_head_batch_is_encoded_in_one_pass(policy, sampler, cfg, monkeypatch):
    """arm1, nav, bimanual and quad: one `encode_image` call over every camera group, so 3 conv2d and 3 film nodes."""
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    assert {embodiment(w[0].embodiment).name for w in batch.windows} == set(EMBODIMENTS)
    calls, encode_image = [], EncoderBank.encode_image
    monkeypatch.setattr(EncoderBank, "encode_image", lambda self, views, *args: calls.append(views) or encode_image(self, views, *args))
    ops = [node.op for node in tape(policy.loss(batch))]
    assert calls == [["workspace", "navigation", "wrist-left", "wrist-right"]]
    assert ops.count("conv2d") == ops.count("film") == 3
    assert ops.count("embedding") == 1  # one language pass per batch


def compact_window(policy, windows, head, steps=slice(None)):
    structure = assembler.window_structure(windows, policy.layout, head, steps)
    return assembler.assemble_batch(windows, policy.layout, policy.bank, policy.params, structure=structure)


def test_compact_keeps_live_observations_and_the_heads_readouts(policy):
    layout = policy.layout
    windows = [rollout_frames("nav", 3, 1), rollout_frames("nav", 5, 2), rollout_frames("quad", 2, 3)]
    window = policy.assemble(windows)
    sub = compact_window(policy, windows[:2], "navigation")
    nav = layout.group("navigation")
    readouts = layout.readout_indices("navigation")
    assert sub.tokens.shape[:2] == (2, layout.history * nav.tokens + readouts.size)
    np.testing.assert_array_equal(sub.mask.permitted, window.mask.permitted[np.ix_([0, 1], sub.slots, sub.slots)])
    assert rel_err(sub.tokens.data, window.tokens.data[[0, 1]][:, sub.slots]) <= TOL
    newest = compact_window(policy, windows[2:], "quadruped", [layout.history - 1])
    k, s = layout.history, layout.step_tokens
    proprio = layout.group("quad-proprio").offset + np.array([(k - 2) * s, (k - 1) * s])
    readout = layout.readout_indices("quadruped")[-1]
    np.testing.assert_array_equal(newest.slots, np.concatenate([proprio, readout]))  # two live proprio slots, one readout
    assert rel_err(newest.tokens.data, window.tokens.data[[2]][:, newest.slots]) <= TOL


def test_compact_mask_of_non_contiguous_rows_and_steps_restricts_the_full_mask(policy):
    names = ("nav", "quad", "nav", "arm1", "nav")
    windows = [rollout_frames(n, 1 + i, i) for i, n in enumerate(names)]
    window = policy.assemble(windows)
    rows = np.array([0, 2, 4])
    for steps in (slice(None), [0, 2, 4], [3, 1]):
        sub = compact_window(policy, [windows[r] for r in rows], "navigation", steps)
        assert np.any(np.diff(sub.slots) > 1)
        want = window.mask.permitted[np.ix_(rows, sub.slots, sub.slots)]
        assert sub.mask.permitted.dtype == want.dtype and sub.mask.permitted.shape == want.shape
        assert sub.mask.permitted.tobytes() == want.tobytes()
        np.testing.assert_array_equal(sub.pad, window.pad[np.ix_(rows, sub.slots)])
        assert rel_err(sub.tokens.data, window.tokens.data[rows][:, sub.slots]) <= TOL


def reference_slot_rows(layout, params, structure):
    """[B, n, d] in numpy: each column's `asm/pos` row, plus its head's readout row at the slot's chunk index at a
    readout slot, times zero at padding; and the (table, rows of it) each readout column reads."""
    slots, step_slot = structure.slots, structure.slots % layout.step_tokens
    rows = params["asm/pos"].data[slots]
    reads = []
    for g in layout.groups:
        mine = (g.kind == "readout") & (step_slot >= g.offset) & (step_slot < g.offset + g.tokens)
        if mine.any():
            table, at = params[f"asm/readout/{g.head}"], step_slot[mine] - g.offset
            rows[mine] = rows[mine] + table.data[at]
            reads.append((table, mine, at))
    return rows * (~structure.pad)[:, :, None], reads


def test_slot_rows_and_their_gradients_match_a_per_slot_reference(policy):
    """On the full window with padding and on compact windows, with and without padding, of every step order:
    values bitwise those of `reference_slot_rows`, and gradients equal to its gradients accumulated by `np.add.at`
    (which, adding onto zeros, may turn a -0.0 into 0.0)."""
    names = ("nav", "quad", "nav", "arm1", "nav")
    windows = [rollout_frames(n, 1 + i, i) for i, n in enumerate(names)]
    layout, params = policy.layout, policy.params
    embeddings = [p for name, p in params.items() if name.startswith("asm/")]
    rng = np.random.Generator(np.random.PCG64(9))
    compact = (([0, 2, 4], "navigation"), ([1], "quadruped"), ([3], "single-arm"))
    cases = [(list(range(len(windows))), None, slice(None))]
    cases += [(picks, head, steps) for picks, head in compact for steps in (slice(None), [-1], [3, 1])]
    padded = []  # whether each case runs the keep multiply
    for picks, head, steps in cases:
        structure = assembler.window_structure([windows[r] for r in picks], layout, head, steps)
        got = assembler.slot_rows(layout, params, structure)
        want, reads = reference_slot_rows(layout, params, structure)
        padded.append(bool(structure.pad.any()))
        assert np.broadcast_to(got.data, want.shape).tobytes() == want.tobytes(), (head, steps)
        assert got.shape == (want.shape if structure.pad.any() else want.shape[1:]), (head, steps)

        weights = rng.standard_normal(want.shape)
        grads = ad.backward((got * ad.tensor(weights)).sum(), embeddings)
        upstream = (weights * (~structure.pad)[:, :, None]).sum(axis=0)  # [n, d]: each column's gradient
        oracle = {p: np.zeros_like(p.data) for p in embeddings}
        np.add.at(oracle[params["asm/pos"]], structure.slots, upstream)
        for table, mine, at in reads:
            np.add.at(oracle[table], at, upstream[mine])
        for p in embeddings:
            np.testing.assert_array_equal(grads[p], oracle[p])
    assert padded[0] and set(padded[1:]) == {True, False}


def test_unknown_embodiment_raises_contract_error(policy):
    img = np.zeros((3, 24, 24), dtype=np.float32)
    frames = [ObservationFrame(embodiment="aviation", observations={"workspace": img})]
    batch = datapipe.TrainingBatch([frames], {}, {}, [], [])
    with pytest.raises(ContractError, match="aviation"):
        policy.predict(batch)


def test_compact_window_lists_observations_first_and_readouts_last(policy):
    layout = policy.layout
    names = ("nav", "quad", "nav", "arm1", "nav")
    windows = [rollout_frames(n, 1 + i, i) for i, n in enumerate(names)]
    full = policy.assemble(windows)
    np.testing.assert_array_equal(full.slots, np.arange(layout.context_tokens))  # the oracle keeps slot order
    for steps in (slice(None), [0, 2, 4], [3, 1], [-1]):
        sub = compact_window(policy, [windows[r] for r in (0, 2, 4)], "navigation", steps)
        want = layout.readout_indices("navigation")[steps]
        obs = layout.token_is_obs[sub.slots]
        n = int(obs.sum())
        assert obs[:n].all() and not obs[n:].any()
        assert (np.diff(sub.slots[:n]) > 0).all()
        np.testing.assert_array_equal(sub.slots[n:], want.ravel())  # in the order of `steps`
        np.testing.assert_array_equal(sub.readouts, n + np.arange(want.size).reshape(want.shape))
        np.testing.assert_array_equal(sub.slots[sub.readouts], want)  # the same rows of the full window
        assert (np.diff(sub.slots[n:]) > 0).all() == (steps != [3, 1])  # slot order only for ascending steps


def record_attention(monkeypatch):
    """Every `masked_attention` node from here on, as the (mask, heads, first row) of each of its segments."""
    calls, attend = [], ad.masked_attention

    def recorded(q, k, v, mask, heads, first=0):
        segments = [(mask, first)] if isinstance(mask, ad.AttentionMask) else zip(mask, first)
        calls.append([(m, heads, f) for m, f in segments])
        return attend(q, k, v, mask, heads, first)

    monkeypatch.setattr(ad, "masked_attention", recorded)
    return calls


def computed_and_permitted_scores(calls):
    """Scores as the tiles compute them, rows x shared-key prefix, plus one per own-key row, and those permitted,
    over every segment, batch element and head."""
    computed = permitted = 0
    for mask, heads, first in (segment for call in calls for segment in call):
        rows = mask.permitted[:, first:]
        nb, tq, _ = rows.shape
        plan = mask.plan(heads, np.float32, first)
        computed += (sum((t.rows.stop - t.rows.start) * t.keys for t in plan.tiles) + plan.own) * nb * heads
        permitted += int(rows.sum()) * heads
    return computed, permitted


def test_attention_tiles_compute_at_most_a_quarter_more_scores_than_permitted(cfg, tmp_path, monkeypatch):
    """Both layers on the seed-0 `train_bimanual` batch of the benchmark: its shards, policy, sampler and batch 0."""
    path = str(tmp_path / "bimanual.xeds")
    envs.generate_dataset("bimanual", 20, derive_seed(0, "shard", "bimanual"), path, cfg)
    policy = Policy.init(cfg, derive_seed(0, "policy"))
    sampler = datapipe.BatchSampler(
        {"bimanual": datapipe.read_shard(path)[1]}, datapipe.MixtureSpec([("bimanual", 1.0)]), cfg,
        policy.layout, derive_seed(0, "sampler"),
    )
    calls = record_attention(monkeypatch)
    with ad.no_grad():
        policy.loss(sampler.batch(0, cfg.train.batch_size))
    assert len(calls) == cfg.backbone.layers and all(len(call) == 1 for call in calls)
    computed, permitted = computed_and_permitted_scores(calls)
    assert computed <= 1.25 * permitted, (computed, permitted)


def test_buckets_spend_no_score_on_padding(policy, sampler, cfg, monkeypatch):
    """On `SHORT_PICKS` every segment's mask is exactly its stated structure: each row permits every key of its
    prefix, its own key where it owns one, and nothing else, in every batch element.

    So a tile's sentinel forbids only keys past a row's prefix, those that
    rows of later steps read where the cost rule let them share the tile,
    and its scores go to padding nowhere. The per-head windows of every
    step, which pad a short window's prefixes, compute more scores per
    permitted one on the same batch (2.15 at the time of writing).
    """
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    calls = record_attention(monkeypatch)
    with ad.no_grad():
        policy.loss(batch)
    for mask, _, _ in calls[0]:
        tq, tk = mask.permitted.shape[1:]
        want = np.arange(tk) < mask.prefixes[:, None]
        want[np.arange(tq - mask.own, tq), np.arange(tk - mask.own, tk)] = True
        assert (mask.permitted == want).all()
    computed, permitted = computed_and_permitted_scores(calls)

    owners = np.array([embodiment(w[0].embodiment).head for w in batch.windows])
    windows = [compact_window(policy, [batch.windows[r] for r in np.flatnonzero(owners == h)], h) for h in set(owners)]
    inside = [np.arange(w.mask.permitted.shape[2]) < w.mask.prefixes[:, None] for w in windows]
    assert any((keys & ~w.mask.permitted).any() for keys, w in zip(inside, windows))  # padding in a prefix
    nh = cfg.backbone.heads
    layers = [[(w.mask, nh, 0) for w in windows], [(w.mask, nh, w.slots.size - w.readouts.size) for w in windows]]
    padded, padded_permitted = computed_and_permitted_scores(layers)
    assert computed * padded_permitted < padded * permitted, (computed / permitted, padded / padded_permitted)


def test_attention_of_a_mixed_batch_sees_every_buckets_segment(policy, sampler, cfg, monkeypatch):
    """One node per layer, one segment per bucket: its padless window's mask, from row 0 and then from its
    first readout row."""
    batch = batch_of(sampler, cfg, SHORT_PICKS)
    built, build = [], assembler.window_structure
    monkeypatch.setattr(assembler, "window_structure", lambda *args: built.append(build(*args)) or built[-1])
    calls = record_attention(monkeypatch)
    with ad.no_grad():
        Policy(cfg, policy.params).loss(batch)  # keeps no structure yet
    assert len(calls) == cfg.backbone.layers and len(built) == len(buckets(batch.windows))
    assert not any(s.pad.any() for s in built)
    for layer, call in enumerate(calls):
        assert [m for m, _, _ in call] == [s.mask for s in built]
        last = layer == cfg.backbone.layers - 1
        assert [f for _, _, f in call] == [s.slots.size - s.readouts.size if last else 0 for s in built]


def scanned_plan(permitted, heads):
    """The (first row, end row, keys) of each tile and the own keys, found by scanning a window mask.

    This is how attention was planned before the assembler stated a mask's
    structure, kept as the oracle of the plan from the layout: a row's
    prefix runs to the last key it permits in some batch element, and the
    own keys are the keys that only their diagonal row permits, if they are
    the last keys, split off by the same cost rule.
    """
    nb, tq, tk = permitted.shape
    scale = nb * heads
    seen = permitted.any(axis=0)
    readers = seen.sum(axis=0)
    if (tq * tk - int(readers.sum())) * scale <= ops.TILE_ENTRIES:
        return [(0, tq, tk)], 0

    def prefixes(keys):  # per row, one past the last of keys [0, keys) that it permits, 0 if none
        sub = seen[:, :keys]
        return np.where(sub.any(axis=1), keys - np.argmax(sub[:, ::-1], axis=1), 0) if keys else np.zeros(tq, int)

    cuts = ops._cut(prefixes(tk), scale)
    if tq == tk:
        alone = (readers == 1) & seen.diagonal()
        own = int(alone.sum())
        if own and alone[tk - own :].all():
            split = ops._cut(prefixes(tk - own), scale)
            if ops._cost(split, scale) + own * scale + ops.TILE_ENTRIES < ops._cost(cuts, scale):
                return split, own
    return cuts, 0


def test_own_keys_are_split_off_for_every_step_but_not_for_the_newest_alone(policy, sampler, cfg, monkeypatch):
    """The cost rule: a training window's readout rows read short prefixes, an `act` window stays as it was.

    Every mask the model makes, on every robot, in mixed, short (padded) and
    `act` windows, and for steps all, the newest and [3, 1], is planned from
    its layout as a scan of the mask plans it, with no split or with exactly
    its readouts as own keys, and its last layer's plan keeps them all; no
    tile reads past the last key that one of its rows permits. The full
    window, whose readouts interleave with the observations, and its rows
    of readouts, fewer queries than keys, state no structure: they are one
    tile of every key and attend as the oracle.
    """
    heads, dtype = cfg.backbone.heads, policy.dtype
    frames = rollout_frames("bimanual", policy.layout.history, 5)
    for steps, split in (([-1], False), (slice(None), True)):
        assert bool(compact_window(policy, [frames], "bimanual", steps).mask.plan(heads, np.float32).own) == split

    built, build = [], assembler.window_structure
    monkeypatch.setattr(assembler, "window_structure", lambda *args: built.append(build(*args)) or built[-1])
    fresh = Policy(cfg, policy.params)  # keeps no `act` structure yet
    batches = [sampler.batch(i, 8) for i in range(3)] + [batch_of(sampler, cfg, SHORT_PICKS)]
    for batch in batches:
        fresh.predict(batch)
        owners = np.array([embodiment(w[0].embodiment).head for w in batch.windows])
        for head in sorted(set(owners)):
            windows = [batch.windows[r] for r in np.flatnonzero(owners == head)]
            for steps in ([-1], [3, 1]):
                assembler.window_structure(windows, policy.layout, head, steps)
    for i, name in enumerate(EMBODIMENTS):
        frames = rollout_frames(name, policy.layout.history, 10 + i)
        for n in range(1, len(frames) + 1):
            fresh.act(frames[:n], embodiment(name).head)
    splits = set()
    for s in built:
        t = s.slots.size
        plan = s.mask.plan(heads, dtype)
        assert ([(x.rows.start, x.rows.stop, x.keys) for x in plan.tiles], plan.own) == scanned_plan(s.attn_mask, heads)
        seen = s.attn_mask.any(axis=0)
        for x in plan.tiles:
            assert x.keys == 0 or seen[x.rows, x.keys - 1].any()
            if plan.own:  # nor a key that every one of its rows is denied
                assert seen[x.rows, : x.keys].any(axis=0).all()
        splits.add((len(s.readouts), bool(plan.own)))
        if plan.own:
            np.testing.assert_array_equal(np.arange(t - plan.own, t), np.sort(s.readouts.ravel()))
        assert s.mask.plan(heads, dtype, t - s.readouts.size).own == plan.own  # the last layer's queries
    assert (1, False) in splits and (1, True) not in splits and (policy.layout.history, True) in splits

    windows = batches[0].windows
    full = policy.assemble(windows)
    t, d = full.slots.size, cfg.backbone.d_model
    rng = np.random.Generator(np.random.PCG64(9))
    for mask in (full.attn_mask, full.attn_mask[:, ~policy.layout.token_is_obs]):
        amask = ad.AttentionMask(mask)
        plan = amask.plan(heads, np.float64)
        assert [(x.rows, x.keys) for x in plan.tiles] == [(slice(0, mask.shape[1]), t)] and plan.own == 0
        q = rng.standard_normal((len(windows), mask.shape[1], d))
        k, v = (rng.standard_normal((len(windows), t, d)) for _ in range(2))
        out = ad.masked_attention(ad.tensor(q), ad.tensor(k), ad.tensor(v), amask, heads).data
        np.testing.assert_allclose(out, heads_oracle(q, k, v, mask, heads), rtol=1e-10, atol=1e-12)


def test_no_row_at_ordinary_scores_takes_the_row_max_fallback(cfg, sampler, monkeypatch):
    """The anchored shift falls back to a row's max only for scores far apart, so ordinary ones never reach it.

    The fallback's entry, `ops.bisect`, raises here. Step masks cut at every
    row, with own keys split off, anchor row i of a cut on key first + i;
    anchored on any other key, a row whose anchor it denies would fall back.
    The float32 model's loss and `act` on every robot run the same way.
    """
    def fallback(*args):
        raise AssertionError("a row took the row-max fallback")

    monkeypatch.setattr(ops, "bisect", types.SimpleNamespace(bisect_right=fallback))
    rng = np.random.Generator(np.random.PCG64(14))
    with tile_entries(0):  # every plan splits off its own keys, so every row anchors
        for steps, per, readouts in ((3, 5, 2), (4, 3, 1), (2, 9, 3)):
            mask = step_mask(rng, 4, steps, per, 0.3, readouts)
            amask = ad.AttentionMask(mask, *step_structure(steps, per, readouts))
            k, v = (ad.tensor(rng.standard_normal((4, mask.shape[2], 8))) for _ in range(2))
            for first in range(mask.shape[1]):
                q = ad.tensor(rng.standard_normal((4, mask.shape[1] - first, 8)))
                ad.masked_attention(q, k, v, amask, 2, first)
    policy = Policy.init(cfg, 0)
    for i in range(3):
        policy.loss(sampler.batch(i, 8))
    for i, name in enumerate(EMBODIMENTS):
        frames = rollout_frames(name, policy.layout.history, 30 + i)
        for n in range(1, len(frames) + 1):
            policy.act(frames[:n], embodiment(name).head)


@pytest.mark.parametrize("steps", ([-1], slice(None), [3, 1]), ids=["newest", "every-step", "out-of-order"])
def test_compact_window_names_the_readout_rows_of_the_full_window(policy, sampler, steps):
    layout = policy.layout
    windows = sampler.batch(3, 8).windows
    owners = np.array([embodiment(w[0].embodiment).head for w in windows])
    assert len(set(owners)) > 1
    full = policy.assemble(windows)
    assert full.readouts is None
    dense = backbone.forward(full, policy.params, policy.cfg).data
    for head in sorted(set(owners)):
        rows = np.flatnonzero(owners == head)
        sub = compact_window(policy, [windows[r] for r in rows], head, steps)
        want = layout.readout_indices(head)[steps]
        assert sub.readouts.shape == want.shape
        np.testing.assert_array_equal(sub.slots[sub.readouts], want)
        got = backbone.forward(sub, policy.params, policy.cfg).data
        assert got.shape == (rows.size, *want.shape, policy.cfg.backbone.d_model)
        assert rel_err(got, dense[rows][:, want]) <= TOL, head
