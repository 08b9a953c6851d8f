import json

import pytest

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
    ],
    ids=["non-numeric-weight", "three-field-entry", "unknown-suite-embodiment"],
)
def test_from_dict_rejects_bad_untrusted_documents(edit, match):
    doc = json.loads(desk_config().canonical_json())
    edit(doc)
    with pytest.raises(ConfigError, match=match):
        Config.from_dict(doc)
