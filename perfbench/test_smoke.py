"""Smoke test of the benchmark itself, at tiny size.

    python -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = workloads.Scale(trajectories=2, batch=2, setups=2, warmup_steps=1, min_steps=3, check_every=2)


def _refuse_instrument(tracer):
    raise AssertionError("untraced run installed the tracer")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(workload, tmp_path, monkeypatch):
    originals = [(o, a, o.__dict__[a]) for o, a, _, _ in tracing.patch_points()]
    results = {}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        with monkeypatch.context() as m:
            if not trace:
                m.setattr(tracing, "instrument", _refuse_instrument)
            res = workloads.run(workload, 0, 0.0, trace, TINY, str(tmp_path))
        for owner, attr, original in originals:
            assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} left wrapped"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert sorted(res["metrics"]) == sorted(m["name"] for m in SPEC[key])
        for spec in SPEC[key]:
            got = res["metrics"][spec["name"]]
            assert got["unit"] == spec["unit"], spec["name"]
            assert math.isfinite(got["value"]), spec["name"]
        assert res["details"]["float64_check"]["row_rel_err"] <= workloads.ROW_RTOL  # logic checks ran
        results[trace] = res
    # tracing must leave the arithmetic alone
    assert results[False]["details"]["fingerprint"] == results[True]["details"]["fingerprint"]


def test_cli_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_mix", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
