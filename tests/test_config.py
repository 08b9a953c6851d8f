import json

import pytest

from omnibot.assembler import build_layout
from omnibot.config import Config, desk_config
from omnibot.errors import ConfigError


def test_from_dict_round_trips_the_desk_config():
    cfg = desk_config()
    assert Config.from_dict(json.loads(cfg.canonical_json())).config_hash() == cfg.config_hash()


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: doc["mixture"].append(["arm1", "heavy"]), "mixture"),
        (lambda doc: doc["mixture"].append(["arm1", 0.5, 1]), "mixture"),
        (lambda doc: doc["eval"]["suites"].append({"embodiment": "hexapod", "trials": 5}), "suite 4.*hexapod"),
        (lambda doc: doc["heads"][0].update(action_dim="7"), "'action_dim'"),
        (lambda doc: doc["heads"][0].update(chunk_size="4"), r"heads\[0\]\.chunk_size is '4'"),
        (lambda doc: doc.update(encoders={"image_size": 24}), "unknown config sections.*'encoders'"),
        (lambda doc: doc.update(backbon=doc.pop("backbone") | {"layers": 12}), "unknown config sections.*'backbon'"),
        (lambda doc: doc["eval"].update(suits=[]), "'suits'"),
        (lambda doc: doc["backbone"].update(layers=True), r"backbone\.layers is True"),
        (lambda doc: doc["train"].update(batch_size=-3), r"train\.batch_size is -3"),
        (lambda doc: doc["train"].update(val_fraction=0), r"train\.val_fraction is 0"),
        (lambda doc: doc["train"].update(val_fraction=1.5), r"train\.val_fraction is 1\.5"),
        (lambda doc: doc.update(eval=[]), "bad config document"),
        (lambda doc: doc["train"].update(jitter=float("nan")), r"train\.jitter is nan, want a finite float"),
        (lambda doc: doc["train"].update(jitter=float("inf")), r"train\.jitter is inf, want a finite float"),
        (lambda doc: doc["train"].update(jitter=-float("inf")), r"train\.jitter is -inf"),
        (lambda doc: doc["mixture"].append(["arm1", "nan"]), r"mixture\[4\]\.weight is nan"),
        (lambda doc: doc["mixture"].append(["arm1", 1e999]), r"mixture\[4\]\.weight is inf"),
        (lambda doc: doc["mixture"].append(["arm1", 10**400]), "bad mixture entry"),
        (lambda doc: doc["mixture"].append(["arm1", -1.0]), r"mixture\[4\]\.weight is -1\.0, want a finite float"),
        (lambda doc: doc.update(mixture=[["arm1", 0.0]]), r"mixture weights \[0\.0\] sum to 0\.0"),
    ],
    ids=[
        "non-numeric-weight", "three-field-entry", "unknown-suite-embodiment", "string-action-dim",
        "string-chunk-size", "encoder-section", "misspelled-backbone", "misspelled-eval-suites", "bool-layers",
        "negative-batch-size", "zero-val-fraction", "val-fraction-above-one", "eval-not-an-object", "nan-jitter",
        "inf-jitter", "minus-inf-float", "nan-string-weight", "inf-weight", "int-weight-beyond-float",
        "negative-weight", "zero-weight-sum",
    ],
)
def test_from_dict_rejects_bad_untrusted_documents(edit, match):
    doc = json.loads(desk_config().canonical_json())
    edit(doc)
    with pytest.raises(ConfigError, match=match):
        Config.from_dict(doc)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("layout", "groups", [{"name": "workspace", "kind": "obs-image", "tokens": 9, "head": None}]),
        ("heads", "action_dim", 7),
        ("heads", "control_hz", 10.0),
    ],
)
def test_from_dict_rejects_keys_the_registry_or_the_heads_own(section, key, value):
    doc = json.loads(desk_config().canonical_json())
    (doc[section][0] if section == "heads" else doc[section])[key] = value
    with pytest.raises(ConfigError, match=f"'{key}'"):
        Config.from_dict(doc)


def test_duplicate_head_names_are_config_error():
    doc = json.loads(desk_config().canonical_json())
    doc["heads"].append({"name": "navigation", "chunk_size": 2})
    with pytest.raises(ConfigError, match="duplicate head name 'navigation'"):
        build_layout(Config.from_dict(doc))
