"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_mix --seed 0 --seconds 20 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Lines
before it give each metric by name with its unit, the failure fraction,
the arithmetic fingerprint and the provenance. The full result, and with
`--trace 1` every span, is written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

# One BLAS thread: on a 2-core machine shared with other jobs, a second
# OpenBLAS thread slowed the training step and added a ~1 s first-call cost.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def git_sha(root: str) -> str | None:
    """HEAD's commit of the checkout at `root`; None outside a git checkout or without git."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)}  # never a parent's repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: float, trace: bool, scale) -> dict:
    import numpy as np
    from omnibot.autodiff import _kernels
    from omnibot.config import desk_config

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "config_hash": desk_config().config_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "have_numba": _kernels.HAVE_NUMBA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": 1 if trace else scale.setups,
        "warmup_steps": scale.warmup_steps,
        "min_steps": scale.min_steps,
        "check_every": scale.check_every,
        "trajectories": scale.trajectories,
        "batch": scale.batch,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "omnibot")):
        print(f"no omnibot sources under {SRC}: run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    scale = workloads.Scale()
    trace = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, trace, scale, OUT)
    tracer = result.pop("tracer")
    details = result.pop("details")
    prov = provenance(args.workload, args.seed, args.seconds, trace, scale)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write_jsonl(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**result, "details": details, "provenance": prov}, fh, indent=1, sort_keys=True)
        fh.write("\n")

    for name, m in result["metrics"].items():
        scope = details["scopes"].get(name)
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}" + (f"  [{scope}]" if scope else ""))
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':34s} {frac:14.6g}  ({result['failed']} of {result['attempted']})")
    if not trace:
        wall = {k: v["value"] for k, v in details["wall_clock"].items()}
        print("wall_clock", json.dumps({**wall, "probe_ms_p50": details["probe_ms_p50"]}))
    print("fingerprint", json.dumps(details["fingerprint"]))
    print("float64_check", json.dumps(details["float64_check"]))
    print("provenance", json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
