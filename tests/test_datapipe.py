import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from omnibot import datapipe as dp
from omnibot import envs
from omnibot.assembler import ObservationFrame, build_layout
from omnibot.config import DESK_MIXTURE, desk_config
from omnibot.embodiments import embodiment
from omnibot.errors import ConfigError, ContractError, CorruptionError, FormatError, OmnibotError
from omnibot.rng import generator


def toy_traj(embodiment="nav", steps=10, instruction=0, seed=0):
    rng = np.random.Generator(np.random.PCG64(seed))
    if embodiment == "nav":
        obs = {"navigation": rng.random((steps, 3, 24, 24)).astype(np.float32)}
        actions = rng.standard_normal((steps, 2)).astype(np.float32)
    elif embodiment == "arm1":
        obs = {"workspace": rng.random((steps, 3, 24, 24)).astype(np.float32)}
        actions = rng.standard_normal((steps, 7)).astype(np.float32)
    elif embodiment == "quad":
        obs = {"quad-proprio": rng.standard_normal((steps, 59)).astype(np.float32)}
        actions = rng.standard_normal((steps, 12)).astype(np.float32)
    else:
        raise ValueError(embodiment)
    return dp.TrajectoryRecord(embodiment, obs, actions, instruction)


def with_header(blob: bytes, header: bytes) -> bytes:
    """`blob`, an XEDS1 shard, with its header replaced by `header`."""
    end = 9 + int.from_bytes(blob[5:9], "little")
    return blob[:5] + len(header).to_bytes(4, "little") + header + blob[end:]


# ----------------------------------------------------------------- shards


def test_shard_round_trip_bit_exact(tmp_path):
    trajs = [toy_traj(seed=i, steps=5 + i, instruction=i) for i in range(3)]
    path = str(tmp_path / "nav.xeds")
    dp.write_shard("nav", trajs, path)
    spec, back = dp.read_shard(path)
    assert spec is embodiment("nav")
    assert len(back) == 3
    for a, b in zip(trajs, back):
        assert a.instruction == b.instruction
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.observations["navigation"], b.observations["navigation"])


def test_shard_arrays_are_read_only_float32_views(tmp_path):
    path = str(tmp_path / "nav.xeds")
    dp.write_shard("nav", [toy_traj(seed=0, steps=3)], path)
    _, (traj,) = dp.read_shard(path)
    for arr in (traj.observations["navigation"], traj.actions):
        assert arr.dtype == np.float32 and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_shard_empty_list_valid(tmp_path):
    path = str(tmp_path / "empty.xeds")
    dp.write_shard("nav", [], path)
    _, back = dp.read_shard(path)
    assert back == []


def test_shard_write_rejects_wrong_action_dim(tmp_path):
    bad = toy_traj(seed=0)
    bad.actions = bad.actions[:, :1]
    with pytest.raises(FormatError):
        dp.write_shard("nav", [bad], str(tmp_path / "x.xeds"))


def test_shard_write_rejects_foreign_embodiment(tmp_path):
    with pytest.raises(FormatError):
        dp.write_shard("nav", [toy_traj("quad")], str(tmp_path / "x.xeds"))


def test_shard_write_rejects_a_zero_step_trajectory(tmp_path):
    trajs = [toy_traj(seed=0), toy_traj(steps=0, seed=1)]
    with pytest.raises(FormatError, match="trajectory 1 has zero steps"):
        dp.write_shard("nav", trajs, str(tmp_path / "x.xeds"))


def test_shard_read_rejects_a_zero_step_trajectory(tmp_path):
    path = tmp_path / "nav.xeds"
    dp.write_shard("nav", [toy_traj(steps=2, seed=0)], str(path))
    blob = path.read_bytes()
    empty = (0).to_bytes(4, "little") + (0).to_bytes(4, "little")  # steps 0, instruction 0, no streams
    path.write_bytes(blob + empty + blob[9 + int.from_bytes(blob[5:9], "little"):])
    with pytest.raises(FormatError, match=f"trajectory 1 has zero steps \\(at byte offset {len(blob)}\\)"):
        dp.read_shard(str(path))


@pytest.mark.parametrize("instruction", (-1, 32, 4000, 2**32, 1.5))
def test_shard_write_rejects_an_instruction_outside_the_vocabulary(instruction, tmp_path):
    path = tmp_path / "x.xeds"
    trajs = [toy_traj(seed=0), toy_traj(seed=1, instruction=instruction)]
    with pytest.raises(FormatError, match=r"trajectory 1 instruction .* outside the language vocabulary \[0, 32\)"):
        dp.write_shard("nav", trajs, str(path))
    assert not path.exists()


@pytest.mark.parametrize(
    "stream, value",
    [("navigation", np.inf), ("navigation", np.nan), ("actions", -np.inf), ("actions", 1e39)],
    ids=["inf-observation", "nan-observation", "minus-inf-action", "float64-beyond-float32"],
)
def test_shard_write_rejects_values_that_are_not_finite_as_float32(stream, value, tmp_path):
    bad = toy_traj(seed=1, steps=3)
    arrays = {"navigation": bad.observations["navigation"].astype(np.float64), "actions": bad.actions.astype(np.float64)}
    arrays[stream][2].flat[1] = value
    bad = dp.TrajectoryRecord("nav", {"navigation": arrays["navigation"]}, arrays["actions"])
    path = tmp_path / "x.xeds"
    with pytest.raises(FormatError, match=f"trajectory 1 stream '{stream}' holds .* at flat index"):
        dp.write_shard("nav", [toy_traj(seed=0), bad], str(path))  # no RuntimeWarning from the cast either
    assert not path.exists()


def quad_shard(path, trajectories=2):
    """The bytes of a small quad shard, whose records are short enough to fuzz."""
    dp.write_shard("quad", [toy_traj("quad", steps=2 + i, seed=i, instruction=8) for i in range(trajectories)], str(path))
    return path.read_bytes()


def test_shard_read_rejects_an_instruction_outside_the_vocabulary(tmp_path):
    blob = bytearray(quad_shard(tmp_path / "quad.xeds"))
    second = 9 + int.from_bytes(blob[5:9], "little") + 8 + 2 * (59 + 12) * 4  # trajectory 1's prelude
    blob[second + 4 : second + 8] = (4000).to_bytes(4, "little")
    path = tmp_path / "bad.xeds"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=rf"trajectory 1 instruction 4000 .* \(at byte offset {second + 4}\)"):
        dp.read_shard(str(path))


@pytest.mark.parametrize("value", (np.inf, -np.inf, np.nan))
def test_shard_read_rejects_a_value_that_is_not_finite(value, tmp_path):
    blob = bytearray(quad_shard(tmp_path / "quad.xeds"))
    start = 9 + int.from_bytes(blob[5:9], "little")
    at = start + 8 + 2 * 59 * 4 + 3 * 4  # trajectory 0, the fourth action value
    blob[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    path = tmp_path / "bad.xeds"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=rf"trajectory 0 stream 'actions' holds .* \(at byte offset {at}\)"):
        dp.read_shard(str(path))


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(edits=[(3 + 8 + 4 * 7, 0x7F), (2 + 8 + 4 * 7, 0xC0)])  # a NaN observation value
@example(edits=[(3 + 8 + 4 * 118, 0xFF), (2 + 8 + 4 * 118, 0x80)])  # a non-finite first action value
@example(edits=[(5, 0x01)])  # instruction 264
@example(edits=[(0, 0x40)])  # 64 steps, more than the file holds
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4))
def test_body_byte_substitutions_read_finite_values_or_raise_a_package_error(edits, tmp_path):
    blob = bytearray(quad_shard(tmp_path / "quad.xeds"))
    start = 9 + int.from_bytes(blob[5:9], "little")
    for at, byte in edits:
        blob[start + at % (len(blob) - start)] = byte
    path = tmp_path / "fuzzed.xeds"
    path.write_bytes(bytes(blob))
    try:
        _, trajectories = dp.read_shard(str(path))
    except OmnibotError:
        return
    for traj in trajectories:
        assert 0 <= traj.instruction < 32
        assert np.isfinite(traj.actions).all() and np.isfinite(traj.observations["quad-proprio"]).all()


def test_shard_magic_mismatch(tmp_path):
    path = tmp_path / "bad.xeds"
    path.write_bytes(b"NOTIT" + b"\x00" * 20)
    with pytest.raises(FormatError):
        dp.read_shard(str(path))


def test_shard_truncation_reports_offset(tmp_path):
    path = tmp_path / "nav.xeds"
    dp.write_shard("nav", [toy_traj(seed=1)], str(path))
    blob = path.read_bytes()
    cut = len(blob) - 100
    path.write_bytes(blob[:cut])
    with pytest.raises(CorruptionError) as err:
        dp.read_shard(str(path))
    assert err.value.offset <= cut


def test_shard_little_endian_on_disk(tmp_path):
    path = tmp_path / "nav.xeds"
    traj = toy_traj(seed=2, steps=1)
    dp.write_shard("nav", [traj], str(path))
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[5:9], "little")
    payload = blob[9 + header_len + 8 :]
    first = np.frombuffer(payload[:4], dtype="<f4")[0]
    assert first == traj.observations["navigation"][0].reshape(-1)[0]


def test_shard_header_names_only_the_embodiment_and_extra_keys_are_ignored(tmp_path):
    path = tmp_path / "nav.xeds"
    traj = toy_traj(steps=3)
    dp.write_shard("nav", [traj], str(path))
    blob = path.read_bytes()
    assert blob[9 : 9 + int.from_bytes(blob[5:9], "little")] == b'{"embodiment": "nav"}'
    # a header that also restates registry facts, as XEDS1 headers once did, reads the same
    verbose = {
        "action_dim": 2, "dataset": "navset", "embodiment": "nav", "head": "navigation", "instruction_vocab": 32,
        "streams": [{"dtype": "f32", "name": "navigation", "shape": [3, 24, 24]}],
    }
    path.write_bytes(with_header(blob, json.dumps(verbose, sort_keys=True).encode()))
    spec, (back,) = dp.read_shard(str(path))
    assert spec is embodiment("nav")
    np.testing.assert_array_equal(back.actions, traj.actions)
    np.testing.assert_array_equal(back.observations["navigation"], traj.observations["navigation"])


def one_trajectory_nav_shard(path) -> bytes:
    dp.write_shard("nav", [toy_traj(steps=2)], str(path))
    return path.read_bytes()


@pytest.mark.parametrize(
    "header, match",
    [
        (b'{"embodiment": "n\xffv"}', "not UTF-8"),
        (b'{"embodiment": "nav"', "not JSON"),
        (b'["nav"]', "not an object"),
        (b'{"robot": "nav"}', "embodiment is None"),
        (b'{"embodiment": 7}', "embodiment is 7"),
        (b'{"embodiment": "hexapod"}', "unknown embodiment 'hexapod'"),
    ],
    ids=["not-utf8", "not-json", "not-an-object", "no-embodiment", "non-string-embodiment", "unknown-embodiment"],
)
def test_bad_header_raises_format_error_naming_the_problem(header, match, tmp_path):
    path = tmp_path / "bad.xeds"
    path.write_bytes(with_header(one_trajectory_nav_shard(tmp_path / "nav.xeds"), header))
    with pytest.raises(FormatError, match=match):
        dp.read_shard(str(path))


def test_every_header_truncation_raises_a_package_error(tmp_path):
    blob = one_trajectory_nav_shard(tmp_path / "nav.xeds")
    path = tmp_path / "cut.xeds"
    for cut in range(9 + int.from_bytes(blob[5:9], "little")):
        path.write_bytes(blob[:cut])
        with pytest.raises(OmnibotError):
            dp.read_shard(str(path))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(edits=[(12, 0xFF)])  # a header byte that is not UTF-8
@example(edits=[(8, 0xFF)])  # a header length past the end of the file
@example(edits=[(5, 0x14)])  # a header length one byte short
@example(edits=[(25, ord("w"))])  # a name the registry lacks
@given(edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), min_size=1, max_size=4))
def test_header_byte_substitutions_read_or_raise_a_package_error(edits, tmp_path):
    blob = bytearray(one_trajectory_nav_shard(tmp_path / "nav.xeds"))
    end = 9 + int.from_bytes(blob[5:9], "little")
    for at, byte in edits:
        blob[at % end] = byte
    path = tmp_path / "fuzzed.xeds"
    path.write_bytes(bytes(blob))
    try:
        dp.read_shard(str(path))
    except OmnibotError:
        pass


# ----------------------------------------------------------------- windows


def test_window_counts():
    cfg = desk_config()
    one, ten = toy_traj(steps=1), toy_traj(steps=10)
    mixture = dp.MixtureSpec([("one", 1.0), ("ten", 1.0)])
    sampler = dp.BatchSampler({"one": [one], "ten": [ten]}, mixture, cfg, build_layout(cfg), seed=0, augmentation=False)
    rng = generator(0)
    assert len(sampler.build_example(one, 0, rng).frames) == 1
    assert [len(sampler.build_example(ten, t, rng).frames) for t in range(10)] == [1, 2, 3, 4] + [5] * 6
    frames = sampler.build_example(ten, 7, rng).frames  # the window ending at t=7 covers steps 3..7
    for u, f in enumerate(frames, 3):
        np.testing.assert_array_equal(f.observations["navigation"], ten.observations["navigation"][u])


def test_relabel_final_step_deterministic():
    traj = toy_traj(steps=4)
    rng = generator(0)
    goal = dp.relabel_goal(3, traj, rng)
    np.testing.assert_array_equal(goal, traj.observations["navigation"][3])


def test_relabel_uniformity_chi_square():
    steps = 4
    traj = toy_traj(steps=steps)
    # make each step's image identifiable by its first pixel
    for i in range(steps):
        traj.observations["navigation"][i, 0, 0, 0] = i
    rng = generator(1234, "relabel")
    counts = np.zeros(steps)
    n = 40000
    for _ in range(n):
        goal = dp.relabel_goal(0, traj, rng)
        counts[int(goal[0, 0, 0])] += 1
    assert abs(counts.sum() - n) < 1e-9
    p = stats.chisquare(counts).pvalue
    assert p > 0.01
    assert np.all(np.abs(counts / n - 0.25) < 0.25 * 0.01 + 0.01)


def test_relabel_goal_view_matches_embodiment():
    assert embodiment("nav").goal_view == "navigation"
    assert embodiment("arm1").goal_view == "workspace"
    assert embodiment("quad").goal_view is None
    with pytest.raises(ContractError):
        dp.relabel_goal(0, toy_traj("quad"), generator(0))


# ----------------------------------------------------------------- modality


def nav_sampler(traj):
    cfg = desk_config()
    mixture = dp.MixtureSpec([("navset", 1.0)])
    return dp.BatchSampler({"navset": [traj] * 21}, mixture, cfg, build_layout(cfg), seed=0, augmentation=False)


def test_mask_modality_goal_only_always_keeps_goal():
    traj = toy_traj("nav", steps=8, instruction=0)
    sampler, rng = nav_sampler(traj), generator(1)
    for _ in range(20):
        frames = sampler.build_example(traj, 5, rng).frames
        assert all(f.goal is not None and f.instruction == 0 for f in frames)


def test_mask_modality_instruction_only_keeps_instruction(small_world):
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0, augmentation=False)
    traj = toy_traj("quad", steps=8, instruction=5)
    rng = generator(2)
    before = rng.bit_generator.state
    frames = sampler.build_example(traj, 5, rng).frames
    assert all(f.goal is None and f.instruction == 5 for f in frames)
    assert rng.bit_generator.state == before  # no goal, so no coin is drawn


def test_mask_modality_frequency():
    traj = toy_traj("nav", steps=8, instruction=5)
    sampler, rng = nav_sampler(traj), generator(3)
    kept_goal = 0
    n = 10000
    for _ in range(n):
        frames = sampler.build_example(traj, 5, rng).frames
        has_goal = frames[-1].goal is not None
        has_lang = frames[-1].instruction != 0
        assert has_goal != has_lang  # exactly one survives
        assert all((f.goal is not None, f.instruction) == (has_goal, frames[-1].instruction) for f in frames)
        kept_goal += has_goal
    assert abs(kept_goal / n - 0.5) < 0.02


# ----------------------------------------------------------------- mixture


def test_mixture_single_entry_always_drawn():
    spec = dp.MixtureSpec([("a", 1.0)])
    rng = generator(0)
    assert all(dp.sample_mixture(spec, rng) == "a" for _ in range(100))


def test_mixture_zero_weights_rejected():
    with pytest.raises(ConfigError):
        dp.MixtureSpec([("a", 0.0), ("b", 0.0)])
    with pytest.raises(ConfigError):
        dp.MixtureSpec([])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 1e308])
def test_mixture_non_finite_or_negative_weights_rejected(bad):
    # 1e308 is finite, but two of them sum to inf
    with pytest.raises(ConfigError, match="mixture weights"):
        dp.MixtureSpec([("a", bad), ("b", 1e308)])


def test_mixture_desk_frequencies():
    spec = dp.MixtureSpec([("arm1", 0.4), ("nav", 0.3), ("bimanual", 0.2), ("quad", 0.1)])
    rng = generator(99, "mixture")
    n = 100000
    counts = {k: 0 for k in spec.names}
    for _ in range(n):
        counts[dp.sample_mixture(spec, rng)] += 1
    for name, w in spec.entries:
        assert abs(counts[name] / n - w) < 0.005, (name, counts[name] / n)


def test_mixture_weights_need_not_sum_to_one():
    spec = dp.MixtureSpec([("a", 2.0), ("b", 6.0)])
    np.testing.assert_allclose(spec.probabilities, [0.25, 0.75])


# ----------------------------------------------------------------- augment


def test_augment_zero_magnitudes_identity():
    rng = generator(5)
    img = np.random.Generator(np.random.PCG64(0)).random((3, 24, 24)).astype(np.float32)
    out = dp.augment(img, rng, max_shift=0, jitter=0.0)
    np.testing.assert_array_equal(out, img)


def augment_oracle(img, rng, max_shift, jitter):
    """The pad-and-crop form of `augment`: pad by max_shift, then crop at the shift."""
    out = img
    if max_shift > 0:
        dy, dx = (int(v) for v in rng.integers(-max_shift, max_shift + 1, size=2))
        padded = np.pad(img, ((0, 0),) * (img.ndim - 2) + ((max_shift, max_shift),) * 2)
        h, w = img.shape[-2:]
        out = padded[..., max_shift + dy : max_shift + dy + h, max_shift + dx : max_shift + dx + w]
    scale = 1.0 + rng.uniform(-jitter, jitter)
    shift = rng.uniform(-jitter, jitter)
    return np.clip(out * np.float32(scale) + np.float32(shift), 0.0, 1.0).astype(np.float32)


@pytest.mark.parametrize("max_shift", (0, 1, 2, 4))
def test_augment_matches_the_pad_and_crop_oracle_at_every_shift(max_shift):
    # a 3 x 4 image, so max_shift 4 also shifts it out of view entirely
    img = np.random.Generator(np.random.PCG64(9)).random((2, 3, 3, 4)).astype(np.float32) * 1.2 - 0.1
    want = {(dy, dx) for dy in range(-max_shift, max_shift + 1) for dx in range(-max_shift, max_shift + 1)}
    seen = set()
    for seed in range(2000):
        got = dp.augment(img, generator(seed), max_shift, 0.1)
        np.testing.assert_array_equal(got, augment_oracle(img, generator(seed), max_shift, 0.1))
        if max_shift:
            seen.add(tuple(int(v) for v in generator(seed).integers(-max_shift, max_shift + 1, size=2)))
        else:
            seen.add((0, 0))
        if seen == want:
            break
    assert seen == want


def test_augment_stays_in_range():
    rng = generator(6)
    img = np.random.Generator(np.random.PCG64(1)).random((3, 24, 24)).astype(np.float32)
    for _ in range(50):
        out = dp.augment(img, rng, 2, 0.1)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_augment_deterministic_given_seed():
    img = np.random.Generator(np.random.PCG64(2)).random((3, 24, 24)).astype(np.float32)
    a = dp.augment(img, generator(7), 2, 0.1)
    b = dp.augment(img, generator(7), 2, 0.1)
    np.testing.assert_array_equal(a, b)


def test_augment_goal_draw_independent():
    cfg = desk_config()
    traj = toy_traj("nav", steps=8, instruction=0, seed=3)
    sampler = dp.BatchSampler({"navset": [traj] * 21}, dp.MixtureSpec([("navset", 1.0)]), cfg, build_layout(cfg), seed=0)
    # at the last step the hindsight goal is the newest frame itself, so only the draws differ
    f = sampler.build_example(traj, 7, generator(8)).frames[-1]
    assert f.goal is not None
    assert f.goal.shape == (3, 24, 24) and f.goal.dtype == np.float32
    assert not np.array_equal(f.goal, f.observations["navigation"])


def copy_rng(g):
    out = np.random.Generator(np.random.PCG64())
    out.bit_generator.state = g.bit_generator.state
    return out


def augment_per_frame(traj, end, rng, cfg):
    """Reference for `build_example`'s frames: relabel, coin, then augment frame by frame.

    Each frame re-seeds a view's transform from a copy of that view's
    generator, so all steps get the same draw; the goal likewise.
    """
    goal = dp.relabel_goal(end, traj, rng) if embodiment(traj.embodiment).goal_view is not None else None
    instruction = traj.instruction
    if goal is not None and instruction != 0:
        keep_goal = bool(rng.integers(0, 2))
        instruction, goal = (0, goal) if keep_goal else (instruction, None)
    views = [g.name for g in build_layout(cfg).groups if g.kind == "obs-image"]
    plans = {view: generator(int(rng.integers(0, 2**63))) for view in views if view in traj.observations}
    goal_rng = None if goal is None else generator(int(rng.integers(0, 2**63)))
    frames = []
    for u in range(max(0, end - cfg.layout.history + 1), end + 1):
        obs = {name: stream[u] for name, stream in traj.observations.items()}
        for view, view_rng in plans.items():
            obs[view] = dp.augment(obs[view], copy_rng(view_rng), cfg.train.max_shift_px, cfg.train.jitter)
        goal_u = None if goal is None else dp.augment(goal, copy_rng(goal_rng), cfg.train.max_shift_px, cfg.train.jitter)
        frames.append(ObservationFrame(traj.embodiment, obs, instruction, goal_u))
    return frames


@pytest.mark.parametrize("name", ("arm1", "nav", "bimanual", "quad"))
def test_augment_example_matches_per_frame_reference(name, tmp_path):
    cfg = desk_config()
    path = str(tmp_path / f"{name}.xeds")
    envs.generate_dataset(name, 3, 31, path, cfg)
    trajs = dp.read_shard(path)[1]
    traj = max(trajs, key=lambda t: t.steps)
    sampler = dp.BatchSampler({name: trajs * 10}, dp.MixtureSpec([(name, 1.0)]), cfg, build_layout(cfg), seed=0)
    for i, end in enumerate((0, 1, 3, traj.steps - 1)):  # short windows and a full one
        rng = generator(40 + i)
        rng_ref = copy_rng(rng)
        want = augment_per_frame(traj, end, rng_ref, cfg)
        got = sampler.build_example(traj, end, rng).frames
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert len(got) == len(want) == min(end + 1, cfg.layout.history)
        for g, w in zip(got, want):
            assert (g.embodiment, g.instruction) == (w.embodiment, w.instruction)
            assert g.observations.keys() == w.observations.keys()
            for view in w.observations:
                np.testing.assert_array_equal(g.observations[view], w.observations[view])
                assert g.observations[view].dtype == w.observations[view].dtype
            assert (g.goal is None) == (w.goal is None)
            if w.goal is not None:
                np.testing.assert_array_equal(g.goal, w.goal)
                assert g.goal.dtype == w.goal.dtype


# ----------------------------------------------------------------- batches


@pytest.fixture(scope="module")
def small_world():
    cfg = desk_config()
    layout = build_layout(cfg)
    datasets = {
        "navset": [toy_traj("nav", steps=8, seed=i) for i in range(40)],
        "quadset": [toy_traj("quad", steps=8, seed=100 + i, instruction=8) for i in range(40)],
    }
    mixture = dp.MixtureSpec([("navset", 0.5), ("quadset", 0.5)])
    return cfg, layout, datasets, mixture


def test_batch_deterministic_by_index(small_world):
    cfg, layout, datasets, mixture = small_world
    s1 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    s2 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    b1 = s1.batch(17, size=4)
    b2 = s2.batch(17, size=4)
    assert b1.embodiments == b2.embodiments
    for h in b1.targets:
        np.testing.assert_array_equal(b1.targets[h], b2.targets[h])
    for w1, w2 in zip(b1.windows, b2.windows):
        for f1, f2 in zip(w1, w2):
            for g in f1.observations:
                np.testing.assert_array_equal(f1.observations[g], f2.observations[g])


@pytest.mark.parametrize("size", (0, -1))
def test_batch_of_no_windows_is_contract_error(small_world, size):
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    with pytest.raises(ContractError, match=f"batch size must be at least 1, got {size}"):
        sampler.batch(0, size)


@pytest.mark.parametrize("size", (2.5, "3", True, None, np.float64(2.0)))
def test_batch_size_that_is_not_an_integer_is_contract_error(small_world, size):
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    with pytest.raises(ContractError, match="batch size must be an integer"):
        sampler.batch(0, size)


@pytest.mark.parametrize("index", (3.7, "3", True, None, np.float64(2.0), -1, 2**64))
def test_batch_index_that_is_not_a_stream_index_is_contract_error(small_world, index):
    """A batch is a pure function of its index: no float truncates, no string or bool aliases, no index wraps."""
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    with pytest.raises(ContractError, match=re.escape(f"batch index must be an integer in [0, 2**64), got {index!r}")):
        sampler.batch(index, 2)
    assert sampler.batch(np.uint64(2**64 - 1), 2).embodiments


def test_batch_seed_changes_content(small_world):
    cfg, layout, datasets, mixture = small_world
    s1 = dp.BatchSampler(datasets, mixture, cfg, layout, seed=11)
    b1 = s1.batch(17, size=6)
    b2 = s1.batch(18, size=6)
    assert b1.embodiments != b2.embodiments or any(
        not np.array_equal(b1.targets[h], b2.targets[h]) for h in b1.targets
    )


def test_targets_past_episode_end_masked(small_world):
    cfg, layout, datasets, mixture = small_world
    traj = datasets["navset"][0]  # 8 steps, nav chunk is 4
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0)
    ex = sampler.build_example(traj, end=7, rng=generator(1))
    # newest slot: chunk rows 1..3 run past the end
    assert ex.target_mask[4, 0] == 1.0
    assert (ex.target_mask[4, 1:] == 0.0).all()
    np.testing.assert_array_equal(ex.targets[4, 1:], np.zeros((3, 2), dtype=np.float32))
    # leading slots before the trajectory start are fully masked
    ex0 = sampler.build_example(traj, end=0, rng=generator(2))
    assert (ex0.target_mask[:4] == 0.0).all()
    assert ex0.target_mask[4, :4].sum() == 4.0


def test_train_val_split_disjoint_and_sized(small_world):
    cfg, layout, datasets, mixture = small_world
    train = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0, split="train")
    val = dp.BatchSampler(datasets, mixture, cfg, layout, seed=0, split="val")
    assert len(train.datasets["navset"]) == 38
    assert len(val.datasets["navset"]) == 2
    tids = {id(t) for t in train.datasets["navset"]}
    vids = {id(t) for t in val.datasets["navset"]}
    assert not (tids & vids)


def test_instruction_outside_the_vocabulary_is_rejected_naming_where(small_world):
    cfg, layout, datasets, mixture = small_world
    bad = dict(datasets, quadset=[*datasets["quadset"][:3], toy_traj("quad", steps=8, instruction=99)])
    with pytest.raises(ContractError, match=r"'quadset' trajectory 3: instruction id 99 .*\[0, 32\)"):
        dp.BatchSampler(bad, mixture, cfg, layout, seed=0)


def faulty_nav_record(fault):
    """A nav record with one fault, built in memory as a client would."""
    traj = toy_traj("nav", steps=8, seed=7)
    obs, actions = {"navigation": traj.observations["navigation"].copy()}, traj.actions.copy()
    if fault == "nan-action":
        actions[3, 1] = np.nan
    elif fault == "inf-observation":
        obs["navigation"][2, 0, 5, 5] = np.inf
    elif fault == "wrong-stream-shape":
        obs["navigation"] = obs["navigation"][:, :, :-1]
    elif fault == "zero-steps":
        return toy_traj("nav", steps=0)
    elif fault == "bad-instruction":
        return toy_traj("nav", steps=8, instruction=40)
    elif fault == "another-robot":
        return toy_traj("quad", steps=8, instruction=8)
    return dp.TrajectoryRecord("nav", obs, actions)


RECORD_FAULTS = {  # fault -> what the sampler says of it
    "nan-action": "stream 'actions' holds nan at flat index 7 as float32",
    "inf-observation": "stream 'navigation' holds inf at flat index 3581 as float32",
    "wrong-stream-shape": re.escape("has stream shapes {'navigation': (8, 3, 23, 24)}, want {'navigation': (8, 3, 24, 24)}"),
    "zero-steps": "has zero steps",
    "bad-instruction": r"instruction id 40 is outside the language vocabulary \[0, 32\)",
    "another-robot": "is for 'quad', not 'nav'",
}


@pytest.mark.parametrize("fault", RECORD_FAULTS)
def test_sampler_rejects_a_faulty_in_memory_record_naming_the_dataset_and_trajectory(small_world, fault):
    cfg, layout, datasets, mixture = small_world
    bad = dict(datasets, navset=[*datasets["navset"][:5], faulty_nav_record(fault), *datasets["navset"][5:]])
    with pytest.raises(ContractError, match=f"dataset 'navset' trajectory 5: {RECORD_FAULTS[fault]}"):
        dp.BatchSampler(bad, mixture, cfg, layout, seed=0)


def test_sampler_rejects_a_dataset_of_a_robot_the_registry_lacks(small_world):
    cfg, layout, datasets, _ = small_world
    flights = [dp.TrajectoryRecord("aviation", {}, np.zeros((3, 2), np.float32))]
    with pytest.raises(ContractError, match="dataset 'flights' trajectory 0: unknown embodiment 'aviation'"):
        dp.BatchSampler(dict(datasets, flights=flights), dp.MixtureSpec([("flights", 1.0)]), cfg, layout, seed=0)


def test_quad_examples_skip_goal_conditioning(small_world):
    cfg, layout, datasets, mixture = small_world
    sampler = dp.BatchSampler(datasets, mixture, cfg, layout, seed=3, augmentation=False)
    traj = datasets["quadset"][0]
    for seed in range(20):
        ex = sampler.build_example(traj, 5, generator(seed))
        assert all(f.goal is None for f in ex.frames)
        assert all(f.instruction == 8 for f in ex.frames)  # never masked away


# ----------------------------------------------------------------- pinned stream


def registry_trajectories(name, n, seed):
    """`n` seeded random trajectories of 1..12 steps shaped by `name`'s registry entry."""
    spec = embodiment(name)
    rng = np.random.Generator(np.random.PCG64(seed))
    trajs = []
    for _ in range(n):
        steps = int(rng.integers(1, 13))
        obs = {
            g: (rng.random((steps, *shape)) if len(shape) == 3 else rng.standard_normal((steps, *shape))).astype(np.float32)
            for g, shape in spec.observations
        }
        actions = rng.standard_normal((steps, spec.action_dim)).astype(np.float32)
        instruction = int(rng.choice([0, *spec.instructions]))
        trajs.append(dp.TrajectoryRecord(name, obs, actions, instruction))
    return trajs


def hash_array(h, arr):
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())


def hash_batch(h, batch):
    """Every frame's observations, goal and instruction, with dtypes, then targets, masks, heads and robots."""
    for window in batch.windows:
        h.update(f"window {len(window)}".encode())
        for f in window:
            h.update(f"{f.embodiment} {f.instruction} {sorted(f.observations)}".encode())
            for g in sorted(f.observations):
                hash_array(h, f.observations[g])
            if f.goal is None:
                h.update(b"no goal")
            else:
                hash_array(h, f.goal)
    for head in sorted(batch.targets):
        hash_array(h, batch.targets[head])
        hash_array(h, batch.loss_masks[head])
    h.update(repr((batch.heads, batch.embodiments)).encode())


# sha256 over the batches below: a datapipe change that keeps every batch bit-identical
# keeps it; one that changes the stream on purpose must say so and pin the new value
PINNED_BATCH_STREAM = "b1e968f8ce85c9ec7fb50c07f1494b1fefcf93d697d3319e4f15b1f751c07f31"


def test_batch_stream_is_pinned():
    cfg = desk_config()
    layout = build_layout(cfg)
    datasets = {name: registry_trajectories(name, 40, seed) for seed, (name, _) in enumerate(DESK_MIXTURE)}
    mixtures = [DESK_MIXTURE] + [[(name, 1.0)] for name, _ in DESK_MIXTURE]
    h = hashlib.sha256()
    for entries in mixtures:
        for split in ("train", "val"):
            for augmentation in (False, True):
                sampler = dp.BatchSampler(
                    datasets, dp.MixtureSpec(entries), cfg, layout, seed=21, split=split, augmentation=augmentation
                )
                for index in range(6):
                    hash_batch(h, sampler.batch(index, 8))
    assert h.hexdigest() == PINNED_BATCH_STREAM
