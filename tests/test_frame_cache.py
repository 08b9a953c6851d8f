"""`Policy.act`'s frame-token cache, window structures and slot rows against a fresh policy, in float64.

A fresh `Policy` over the same parameters has an empty cache, so its `act`
encodes every frame of the window in one batch. The cached policy encodes
only the frames it has not seen; both must agree to rounding. A fresh
policy also builds each window's structure anew, where the cached one
reuses the structure of the window's shape.
"""

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import omnibot.autodiff as ad
from omnibot import assembler, envs
from omnibot.assembler import ObservationFrame
from omnibot.config import desk_config
from omnibot.datapipe import TrainingBatch
from omnibot.embodiments import embodiment
from omnibot.errors import ContractError, DimensionError, EvaluationError, OmnibotError
from omnibot.policy import Policy

TOL = 1e-12


@pytest.fixture(scope="module")
def cfg():
    return desk_config()


def film_policy(cfg, seed=4):
    """A float64 policy whose FiLM projections are non-zero, so the instruction changes image rows."""
    p32 = Policy.init(cfg, seed=seed)
    policy = Policy(cfg, {name: ad.param(p.data.astype(np.float64)) for name, p in p32.params.items()})
    rng = np.random.Generator(np.random.PCG64(seed))
    for name, p in policy.params.items():
        if "/film" in name:
            p.data[...] = rng.standard_normal(p.shape) * 0.1
    return policy


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / float(np.linalg.norm(b))


def fresh_act(policy, frames, head):
    return Policy(policy.cfg, policy.params).act(frames, head).values


@pytest.mark.parametrize("name", ("arm1", "nav", "nav-shifted", "bimanual", "quad"))
def test_sliding_window_rollout_matches_a_fresh_policy(cfg, name):
    policy = film_policy(cfg)
    k = policy.layout.history
    bound = k * sum(g.kind != "readout" for g in policy.layout.groups)
    env = envs.make_env(name)
    head = embodiment(name).head
    rng = np.random.Generator(np.random.PCG64(8))
    state, _, instruction = env.reset(7)
    goal = env.goal_frame_image(state) if env.spec.goal_view else None
    frames = [env.frame(state, instruction, goal)]
    for _ in range(60):
        window = frames[-k:]
        got = policy.act(window, head).values
        assert rel_err(got, fresh_act(policy, window, head)) <= TOL
        sizes = [len(rows) for rows in policy.frame_tokens.groups.values()]
        assert sum(sizes) <= bound and max(sizes) <= k
        # a noisy expert keeps the frames changing; a still robot repeats them, which hits the cache
        action = env.expert_chunk(state, 1)[0] + rng.normal(0.0, 0.05, env.spec.action_dim)
        state = env.step(state, action.astype(np.float64))
        frames.append(env.frame(state, instruction, goal))


def test_instruction_and_goal_are_part_of_the_key(cfg):
    policy = film_policy(cfg)
    img = np.random.Generator(np.random.PCG64(1)).random((3, 24, 24)).astype(np.float32)
    goal = np.random.Generator(np.random.PCG64(2)).random((3, 24, 24)).astype(np.float32)
    variants = [
        ObservationFrame("arm1", {"workspace": img}, instruction=1),
        ObservationFrame("arm1", {"workspace": img}, instruction=2),
        ObservationFrame("arm1", {"workspace": img}, instruction=2, goal=goal),
    ]
    seen = []
    for frame in variants:  # the same image each time, so only the key can tell them apart
        got = policy.act([frame], "single-arm").values
        assert rel_err(got, fresh_act(policy, [frame], "single-arm")) <= TOL
        assert all(rel_err(got, other) > 1e-6 for other in seen)
        seen.append(got)


def test_a_new_goal_re_encodes_the_goal_view_alone(cfg, monkeypatch):
    """bimanual's goal conditions its workspace camera, so a new goal misses that group's key only."""
    policy = film_policy(cfg)
    env = envs.make_env("bimanual")
    state, frame, instruction = env.reset(9)
    goal = env.goal_frame_image(state)
    window = [frame]
    for _ in range(2):
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        window.append(env.frame(state, instruction, goal))
    before = policy.act(window, "bimanual").values
    moved = [*window[:-1], dataclasses.replace(window[-1], goal=env.goal_frame_image(env.reset(10)[0]))]
    encoded, encode = [], assembler.encode_group
    monkeypatch.setattr(assembler, "encode_group", lambda *args: encoded.append(([g.name for g in args[1]], len(args[2]))) or encode(*args))
    got = policy.act(moved, "bimanual").values
    assert encoded == [(["workspace"], 1)]
    assert rel_err(got, fresh_act(policy, moved, "bimanual")) <= TOL
    assert rel_err(got, before) > 1e-6


def test_a_frame_rewritten_in_place_gets_fresh_rows(cfg):
    """The key is the frame's values, not its arrays: a camera may write each image into one reused buffer."""
    policy = film_policy(cfg)
    env = envs.make_env("arm1")
    state, frame, instruction = env.reset(3)
    before = policy.act([frame], "single-arm").values
    state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
    frame.observations["workspace"][...] = env.frame(state, instruction).observations["workspace"]
    got = policy.act([frame], "single-arm").values
    assert rel_err(got, fresh_act(policy, [frame], "single-arm")) <= TOL
    assert rel_err(got, before) > 1e-6


def test_a_frame_and_its_cast_to_the_policy_dtype_share_one_row(cfg, monkeypatch):
    """A float32 policy encodes a float64 frame cast to float32, so the float64 frame and that cast have one key."""
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("nav")
    state, frame, _ = env.reset(6)
    noise = np.random.Generator(np.random.PCG64(6)).uniform(0.0, 1e-6, (2, 3, 24, 24))  # float64 values that float32 rounds
    image, goal = frame.observations["navigation"] + noise[0], env.goal_frame_image(state) + noise[1]
    wide = dataclasses.replace(frame, observations={"navigation": image}, goal=goal)
    narrow = dataclasses.replace(frame, observations={"navigation": image.astype(np.float32)}, goal=goal.astype(np.float32))
    assert image.dtype == goal.dtype == np.float64 and (image != narrow.observations["navigation"]).any()
    encoded, encode = [], assembler.encode_group
    monkeypatch.setattr(assembler, "encode_group", lambda *args: encoded.append(len(args[2])) or encode(*args))
    got = policy.act([wide, narrow], "navigation").values
    assert encoded == [1] and [len(rows) for rows in policy.frame_tokens.groups.values()] == [1]
    np.testing.assert_array_equal(got, policy.act([narrow, wide], "navigation").values)
    assert encoded == [1]
    monkeypatch.undo()
    np.testing.assert_array_equal(got, fresh_act(policy, [narrow, narrow], "navigation"))


def test_params_changed_drops_rows_of_the_old_parameters(cfg):
    policy = film_policy(cfg)
    env = envs.make_env("nav")
    state, frame, instruction = env.reset(3)
    window = [frame]
    for _ in range(4):
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        window.append(env.frame(state, instruction))
    policy.act(window, "navigation")
    policy.params["enc/img/navigation/conv0/w"].data *= 1.5  # in place, as an optimizer writes
    want = fresh_act(policy, window, "navigation")
    assert rel_err(policy.act(window, "navigation").values, want) > 1e-6  # stale rows until told
    policy.params_changed()
    assert not policy.frame_tokens.groups
    assert rel_err(policy.act(window, "navigation").values, want) <= TOL


def test_params_changed_drops_slot_rows_of_the_old_parameters(cfg):
    """`act` keeps each window shape's slot rows: position and readout embeddings, which no frame changes."""
    policy = film_policy(cfg)
    env = envs.make_env("nav")
    state, frame, instruction = env.reset(4)
    window = [frame]
    for _ in range(2):
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        window.append(env.frame(state, instruction))
    policy.act(window, "navigation")
    for name in ("asm/pos", "asm/readout/navigation"):
        before = policy.act(window, "navigation").values
        policy.params[name].data *= 1.5  # in place, as an optimizer writes
        want = fresh_act(policy, window, "navigation")
        np.testing.assert_array_equal(policy.act(window, "navigation").values, before)  # stale rows until told
        policy.params_changed()
        assert not policy.frame_tokens.slots
        assert rel_err(policy.act(window, "navigation").values, want) <= TOL
        assert rel_err(want, before) > 1e-6


def test_act_windows_have_no_padding(cfg):
    """So an `act` window's tokens are its encoder rows plus its kept slot rows, one [T, d] array with no keep mask."""
    policy = Policy.init(cfg, seed=0)
    k = policy.layout.history
    for name in FUZZ_ROBOTS:
        frames = list(fuzz_window(name) * k)[:k]
        for n in range(1, k + 1):
            policy.act(frames[:n], embodiment(name).head)
    assert len(policy.frame_tokens.slots) == len(policy.window_structures) == len(FUZZ_ROBOTS) * k
    for shape, structure in policy.window_structures.items():
        assert not structure.pad.any(), shape
        assert policy.frame_tokens.slots[shape].shape == (structure.slots.size, cfg.backbone.d_model)


@pytest.mark.parametrize("name", ("bb/layer1/mlp/w1", "head/navigation/b"))
def test_a_policy_whose_parameters_differ_in_dtype_is_a_contract_error(cfg, name):
    params = dict(Policy.init(cfg, seed=0).params)
    params[name] = ad.param(params[name].data.astype(np.float64))
    first = next(iter(params))
    with pytest.raises(ContractError, match=re.escape(f"parameter {name!r} is float64, but the first, {first!r}, is float32")):
        Policy(cfg, params)
    with pytest.raises(ContractError, match="a policy needs parameters, got none"):
        Policy(cfg, {})
    policy = Policy(cfg, {n: ad.param(p.data.astype(np.float64)) for n, p in params.items()})
    assert policy.dtype == policy.bank.dtype == np.float64


def test_act_builds_each_window_structure_once(cfg, monkeypatch):
    policy = film_policy(cfg)
    env = envs.make_env("arm1")
    state, frame, instruction = env.reset(5)
    frames = [frame]
    for _ in range(3):
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        frames.append(env.frame(state, instruction))
    windows = [frames[:2], frames[1:3], frames[:3], frames[2:4], frames[1:4]]  # new frames, two shapes
    want = [fresh_act(policy, w, "single-arm") for w in windows]
    built, build = [], assembler.window_structure
    monkeypatch.setattr(assembler, "window_structure", lambda *args: built.append(len(args[0][0])) or build(*args))
    for window, values in zip(windows, want):
        assert rel_err(policy.act(window, "single-arm").values, values) <= TOL
    assert built == [2, 3]
    structure = policy.window_structures["arm1", 2, "single-arm"]
    policy.params["bb/layer0/attn/wq"].data *= 1.5
    policy.params_changed()  # the structures hold no parameters, so they stay
    assert policy.window_structures["arm1", 2, "single-arm"] is structure
    monkeypatch.undo()
    got = policy.act(frames[2:4], "single-arm").values
    assert rel_err(got, fresh_act(policy, frames[2:4], "single-arm")) <= TOL
    assert len(policy.window_structures) == 2


def test_window_structures_stay_within_robots_times_history(cfg):
    policy = Policy.init(cfg, seed=0)
    k = policy.layout.history
    robots = ("arm1", "nav", "nav-shifted", "bimanual", "quad")
    for name in robots:
        env = envs.make_env(name)
        state, frame, instruction = env.reset(2)
        frames = [frame]
        for _ in range(k + 2):
            chunk = policy.act(frames[-k:], embodiment(name).head)
            state = env.step(state, chunk.values[0].astype(np.float64))
            frames.append(env.frame(state, instruction))
    want = {(name, n, embodiment(name).head) for name in robots for n in range(1, k + 1)}
    assert set(policy.window_structures) == want and len(want) == len(robots) * k


@pytest.mark.parametrize(
    "window, match",
    [
        ("abc", "a window is a list of ObservationFrame, got a str"),
        (None, "a window is a list of ObservationFrame, got a NoneType"),
        ((), "a window is a list of ObservationFrame, got a tuple"),
        ([None], "frame 0 is a NoneType, want an ObservationFrame"),
        (["frame"], "frame 0 is a str, want an ObservationFrame"),
        ("second", "frame 1 is a object, want an ObservationFrame"),
    ],
)
def test_act_and_predict_reject_a_window_that_is_not_a_list_of_frames(cfg, window, match):
    policy = Policy.init(cfg, seed=0)
    _, frame, _ = envs.make_env("arm1").reset(0)
    if window == "second":
        window = [frame, object()]
    with pytest.raises(ContractError, match=match):
        policy.act(window, "single-arm")
    with pytest.raises(ContractError, match=match):
        policy.predict(TrainingBatch([window], {}, {}, [], []))
    assert not policy.window_structures


@pytest.mark.parametrize("head", (["single-arm"], None, 3, b"single-arm"))
def test_act_rejects_a_head_that_is_not_a_name(cfg, head):
    policy = Policy.init(cfg, seed=0)
    _, frame, _ = envs.make_env("arm1").reset(0)
    with pytest.raises(ContractError, match="not a head name"):
        policy.act([frame], head)


def test_act_rejects_a_head_the_embodiment_does_not_draw_from(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("nav")
    _, frame, _ = env.reset(0)
    with pytest.raises(ContractError, match="'nav'.*'navigation'.*'bimanual'"):
        policy.act([frame], "bimanual")


def test_act_with_an_instruction_outside_the_vocabulary_raises_contract_error(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    with pytest.raises(ContractError, match="instruction id 99 .* vocabulary of 32 ids"):
        policy.act([dataclasses.replace(frame, instruction=99)], "single-arm")
    # the failed call left the frame cache consistent
    got = policy.act([frame], "single-arm").values
    np.testing.assert_array_equal(got, fresh_act(policy, [frame], "single-arm"))


def _bad(frame, group=None, value=None, goal=None, instruction=None):
    obs = dict(frame.observations)
    if group is not None:
        obs[group] = value
    return dataclasses.replace(
        frame,
        observations=obs,
        goal=frame.goal if goal is None else goal,
        instruction=frame.instruction if instruction is None else instruction,
    )


def _nav_window(policy):
    env = envs.make_env("nav")
    state, frame, _ = env.reset(0)
    goal = env.goal_frame_image(state).astype(np.float32)
    return [dataclasses.replace(frame, goal=goal)] * 2


def test_act_rejects_a_non_finite_observation(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = frame.observations["workspace"].copy()
    img[1, 5, 7] = np.nan
    with pytest.raises(ContractError, match=r"frame 1: workspace observation holds non-finite values"):
        policy.act([frame, _bad(frame, "workspace", img)], "single-arm")


def test_act_rejects_a_non_float_observation(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = (frame.observations["workspace"] * 255).astype(np.uint8)
    with pytest.raises(ContractError, match=r"frame 0: workspace observation has dtype uint8, want a float"):
        policy.act([_bad(frame, "workspace", img)], "single-arm")


def test_act_rejects_a_non_finite_goal(cfg):
    policy = Policy.init(cfg, seed=0)
    window = _nav_window(policy)
    goal = window[1].goal.copy()
    goal[0, 0, 0] = np.inf
    with pytest.raises(ContractError, match=r"frame 1: goal of navigation holds non-finite values"):
        policy.act([window[0], _bad(window[1], goal=goal)], "navigation")


def test_act_rejects_a_non_float_goal(cfg):
    policy = Policy.init(cfg, seed=0)
    window = _nav_window(policy)
    goal = np.ones(window[0].goal.shape, dtype=np.int64)
    with pytest.raises(ContractError, match=r"frame 0: goal of navigation has dtype int64"):
        policy.act([_bad(window[0], goal=goal)], "navigation")


@pytest.mark.parametrize("instruction", (1.5, np.float32(2.0), True, "3"))
def test_act_rejects_an_instruction_that_is_not_an_integer_id(cfg, instruction):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    policy.act([frame], "single-arm")  # cached: the key still sees the instruction
    with pytest.raises(ContractError, match=re.escape(f"frame 1: instruction {instruction!r} is not an integer id")):
        policy.act([frame, _bad(frame, instruction=instruction)], "single-arm")


def test_a_rejected_frame_leaves_the_cache_consistent(cfg):
    policy = Policy.init(cfg, seed=0)
    env = envs.make_env("arm1")
    _, frame, _ = env.reset(0)
    img = frame.observations["workspace"].copy()
    img[0, 0, 0] = -np.inf
    with pytest.raises(ContractError):
        policy.act([frame, _bad(frame, "workspace", img)], "single-arm")
    got = policy.act([frame], "single-arm").values
    np.testing.assert_array_equal(got, fresh_act(policy, [frame], "single-arm"))


# ------------------------------------------------------------ untrusted frames


def test_act_rejects_untrusted_frames_naming_the_frame_and_the_group(cfg):
    policy = Policy.init(cfg, seed=0)
    window = _nav_window(policy)
    img = window[1].observations["navigation"]
    beyond = img.astype(np.float64)
    beyond[0, 0, 0] = 1e39  # finite in float64, inf in the policy's float32
    cases = [
        (_bad(window[1], instruction=2**70), ContractError, "frame 1: instruction id 1180591620717411303424 is outside"),
        (_bad(window[1], "navigation", beyond), ContractError, "frame 1: navigation observation holds non-finite values as float32"),
        (dataclasses.replace(window[1], observations=[img]), ContractError, "frame 1 observations are a list"),
        (_bad(window[1], "navigation", img[:, :-1]), DimensionError, r"frame 1: navigation observation has shape \(3, 23, 24\)"),
        (_bad(window[1], goal=window[1].goal[:, :, :-1]), DimensionError, r"frame 1: goal of navigation has shape \(3, 24, 23\)"),
    ]
    for frame, error, match in cases:
        with pytest.raises(error, match=match):
            policy.act([window[0], frame], "navigation")
    img = np.full(img.shape, 3e38, dtype=np.float32)  # finite, but the network's sums overflow
    with pytest.raises(EvaluationError, match="'nav': head 'navigation' decoded non-finite actions"):
        policy.act([window[0], _bad(window[1], "navigation", img)], "navigation")


FUZZ_ROBOTS = ("arm1", "nav", "bimanual", "quad")


@functools.lru_cache(maxsize=None)
def fuzz_window(name):
    """Three frames of a short rollout, with the goal image on each where the robot has a goal view."""
    env = envs.make_env(name)
    state, _, instruction = env.reset(5)
    goal = env.goal_frame_image(state) if env.spec.goal_view else None
    frames = [env.frame(state, instruction, goal)]
    while len(frames) < 3:
        state = env.step(state, env.expert_chunk(state, 1)[0].astype(np.float64))
        frames.append(env.frame(state, instruction, goal))
    return tuple(frames)


def mutated(frame, field, kind, how, at):
    """`frame` with one field changed: one value, every value, the dtype or the shape of an
    observation group's array or of the goal (`field`), the instruction, the embodiment, or
    the observation dict itself; or the frame itself, replaced by something else."""
    if kind == "frame":
        return how
    if kind in ("instruction", "embodiment"):
        return dataclasses.replace(frame, **{kind: how})
    if kind == "keys":
        obs = dict(frame.observations)
        if how == "not-a-dict":
            return dataclasses.replace(frame, observations=list(obs.values()))
        group = next(iter(obs)) if field == "goal" else field
        values = obs.pop(group) if how in ("drop", "rename") else obs[group]
        if how != "drop":
            obs[group + "-extra" if how == "add" else "sonar"] = values
        return dataclasses.replace(frame, observations=obs)
    values = np.asarray(frame.goal if field == "goal" else frame.observations[field])
    if kind == "dtype":
        values = values.astype(how)
    elif kind == "shape":
        values = {"drop-row": values[:-1], "add-axis": values[None], "flatten": values.ravel(),
                  "transpose": values.T, "scalar": values.ravel()[0],
                  "ragged": [values.tolist(), values.tolist()[:-1]]}[how]
    else:
        values = values.astype(np.float64)  # holds 1e39 exactly
        if kind == "fill":
            values[...] = how
        else:
            values.flat[at % values.size] = how
    if field == "goal":
        return dataclasses.replace(frame, goal=values)
    return dataclasses.replace(frame, observations={**frame.observations, field: values})


fuzz_mutations = st.one_of(
    st.tuples(st.just("dtype"), st.sampled_from((np.float16, np.float64, np.int32, np.uint8, np.bool_, np.complex64, object))),
    st.tuples(st.just("shape"), st.sampled_from(("drop-row", "add-axis", "flatten", "transpose", "scalar", "ragged"))),
    st.tuples(st.sampled_from(("value", "fill")), st.sampled_from((np.nan, np.inf, -np.inf, 1e39, -1e39, 3e38, 1e30, -1e4, 0.0, 1e-45))),
    st.tuples(st.just("instruction"), st.sampled_from(
        (-1, 0, 1, 31, 32, 2**31, 2**64, 2**70, -(2**70), np.int64(4), np.uint8(200), 1.0, True, "3", None)
    )),
    st.tuples(st.just("keys"), st.sampled_from(("drop", "add", "rename", "not-a-dict"))),
    st.tuples(st.just("embodiment"), st.sampled_from((["nav"], "aviation", None, "quad", "nav-shifted"))),
    st.tuples(st.just("frame"), st.sampled_from((None, "frame", 3, {"navigation": None}))),
)


def outcome(call):
    """The OmnibotError subclass that `call()` raises, or what it returns."""
    try:
        return call()
    except OmnibotError as exc:
        return type(exc)


@pytest.fixture(scope="module")
def fuzz_policy(cfg):
    return Policy.init(cfg, seed=0)


@settings(max_examples=200)
@example(name="arm1", length=2, which=1, field=0, mutation=("instruction", 2**70), at=0)  # was a raw OverflowError
@example(name="nav", length=2, which=1, field=0, mutation=("value", 1e39), at=5)  # was a RuntimeWarning and NaNs
@example(name="quad", length=3, which=2, field=0, mutation=("fill", 3e38), at=0)  # finite, but overflows inside
@example(name="bimanual", length=2, which=0, field=4, mutation=("shape", "drop-row"), at=0)  # was a raw ValueError
@example(name="nav", length=3, which=1, field=0, mutation=("keys", "not-a-dict"), at=0)  # was a raw AttributeError
@example(name="nav", length=2, which=1, field=0, mutation=("embodiment", ["nav"]), at=0)  # was a raw TypeError
@example(name="quad", length=1, which=0, field=0, mutation=("shape", "ragged"), at=0)  # was a raw ValueError
@example(name="arm1", length=2, which=1, field=0, mutation=("value", np.nan), at=9)  # predict returned NaNs
@example(name="nav", length=2, which=0, field=0, mutation=("frame", None), at=0)  # was a raw AttributeError
@given(
    name=st.sampled_from(FUZZ_ROBOTS),
    length=st.integers(1, 3),
    which=st.integers(0, 2),
    field=st.integers(0, 4),
    mutation=fuzz_mutations,
    at=st.integers(0, 2**16),
)
def test_act_on_mutated_frames_returns_a_finite_chunk_or_raises_a_package_error(
    fuzz_policy, name, length, which, field, mutation, at
):
    """`act` and `predict` on the same window raise the same package error, or both give finite outputs."""
    window = list(fuzz_window(name)[3 - length :])
    i = which % length
    fields = list(window[i].observations) + (["goal"] if window[i].goal is not None else [])
    window[i] = mutated(window[i], fields[field % len(fields)], *mutation, at)
    spec = fuzz_policy.head_specs[embodiment(name).head]
    chunk = outcome(lambda: fuzz_policy.act(window, spec.name))
    predictions = outcome(lambda: fuzz_policy.predict(TrainingBatch([window], {}, {}, [], [])))
    if isinstance(chunk, type):
        assert predictions is chunk
        return
    assert not isinstance(predictions, type), predictions
    assert chunk.values.shape == (spec.chunk_size, spec.action_dim)
    assert np.isfinite(chunk.values).all()
    assert all(np.isfinite(p.data).all() for p in predictions.values())
