"""Compacted windows against the dense computation, in float64.

The dense oracle runs `backbone.forward` on the whole assembled window and
reads every head's readouts from it. `Policy.predict` and `Policy.act` run
the backbone only on the slots `assembler.compact` keeps; everything that
reaches a loss or an action must agree with the oracle to rounding.
"""

import dataclasses

import numpy as np
import pytest

import omnibot.autodiff as ad
from omnibot import assembler, backbone, datapipe, envs, heads
from omnibot.assembler import ObservationFrame
from omnibot.config import desk_config
from omnibot.errors import ContractError
from omnibot.policy import Policy

TOL = 1e-12
EMBODIMENTS = ("arm1", "nav", "bimanual", "quad")


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


@pytest.fixture(scope="module")
def policy(cfg):
    return Policy.init(cfg, seed=4, dtype=np.float64)


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
        example = sampler.build_example(trajs[i % len(trajs)], end, rng)
        examples.append(datapipe.augment_example(datapipe.mask_modality(example, rng), rng, cfg))
    return datapipe.collate(examples, cfg)


def dense_predictions(policy, windows):
    window = policy.assemble(windows)
    emb = backbone.forward(window, policy.params, policy.cfg)
    return {h: heads.project(backbone.gather_readouts(emb, window, h), policy.params, h) for h in policy.head_specs}


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


def assert_matches_dense(policy, batch):
    """Predictions, loss and the whole gradient against the dense oracle."""
    owners = [heads.owned_head(w[0].embodiment) for w in batch.windows]
    preds = policy.predict(batch)
    dense = dense_predictions(policy, batch.windows)
    for h, pred in preds.items():
        assert pred.shape == dense[h].shape
        own = np.array([o == h for o in owners])
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
    picks = [("arm1", 0), ("arm1", 4), ("nav", 1), ("nav", 3), ("bimanual", 2), ("bimanual", 9), ("quad", 3), ("quad", 0)]
    batch = batch_of(sampler, cfg, picks)
    assert {len(w) for w in batch.windows} == {1, 2, 3, 4, 5}
    assert_matches_dense(policy, batch)


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


@pytest.mark.parametrize("name", ("arm1", "nav", "nav-shifted", "bimanual", "quad"))
def test_act_matches_dense_newest_step(policy, name):
    head = heads.owned_head(name)
    spec = policy.head_specs[head]
    frames = rollout_frames(name, 5, seed=21)
    for n in range(1, 6):
        full = policy.assemble([frames[:n]])
        readouts = backbone.gather_readouts(backbone.forward(full, policy.params, policy.cfg), full, head)
        want = heads.decode(readouts.reshape(readouts.shape[1:])[-1], policy.params, spec).values
        got = policy.act(frames[:n], head).values
        assert got.shape == (spec.chunk_size, spec.action_dim)
        assert rel_err(got, want) <= TOL, n


def test_compact_keeps_live_observations_and_the_heads_readouts(policy):
    layout = policy.layout
    window = policy.assemble([rollout_frames("nav", 3, 1), rollout_frames("nav", 5, 2), rollout_frames("quad", 2, 3)])
    sub = assembler.compact(window, np.array([0, 1]), "navigation")
    nav = layout.group("navigation")
    readouts = layout.readout_indices("navigation")
    assert sub.tokens.shape[:2] == (2, layout.history * nav.tokens + readouts.size)
    np.testing.assert_array_equal(sub.attn_mask, window.attn_mask[np.ix_([0, 1], sub.slots, sub.slots)])
    np.testing.assert_array_equal(sub.tokens.data, window.tokens.data[[0, 1]][:, sub.slots])
    newest = assembler.compact(window, np.array([2]), "quadruped", [layout.history - 1])
    assert newest.tokens.shape[1] == 2 + 1  # two live proprio slots plus one readout
    assert backbone.gather_readouts(newest.tokens, newest, "quadruped").shape == (1, 1, 1, layout.d_model)


def test_unknown_embodiment_raises_contract_error(policy):
    img = np.zeros((3, 24, 24), dtype=np.float32)
    frames = [ObservationFrame(embodiment="aviation", observations={"workspace": img})]
    batch = datapipe.TrainingBatch([frames], {}, {}, [], [])
    with pytest.raises(ContractError, match="aviation"):
        policy.predict(batch)
