"""Central-difference verification of reverse-mode gradients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ContractError, EvaluationError
from .tensor import Tensor, backward

# Each loss value carries rounding of about eps_mach·|f|, so a central
# difference is uncertain by about eps_mach·max|f|/eps whatever the gradient.
# Over 3,000 random layer_norm/gelu composites with correct gradients, no
# probe that missed 1e-5 disagreed by more than 1.51 times that; a factor
# of 4 leaves room above it and stays far below a wrong formula.
_NOISE_FACTOR = 4.0
_EPS_MACH = float(np.finfo(np.float64).eps)
EPS = 1e-5  # the step of each central difference


@dataclass
class Probe:
    name: str
    index: int
    analytic: float
    numeric: float
    rel_err: float
    # "ok" (counts towards max_rel_err) | "consistent-zero" | "below-noise" | "kink-skipped"
    status: str


@dataclass
class GradCheckReport:
    max_rel_err: float
    probes: list[Probe] = field(default_factory=list)

    @property
    def skipped(self) -> list[Probe]:
        return [p for p in self.probes if p.status != "ok"]

    def summary(self) -> str:
        lines = [f"probes={len(self.probes)} max_rel_err={self.max_rel_err:.3e}"]
        for p in self.skipped:
            lines.append(f"  skipped {p.name}[{p.index}]: {p.status}")
        return "\n".join(lines)


def finite_diff_check(
    f: Callable[[], Tensor],
    params: dict[str, Tensor],
    probes: int = 64,
    seed: int = 0,
) -> GradCheckReport:
    """Compare analytic gradients of f() against central differences of step eps = EPS.

    f must be a deterministic closure over `params` returning a scalar
    Tensor; params must be float64. Probed coordinates are sampled
    uniformly over all parameter entries.

    Each probe has a noise floor, noise = 4·eps_mach·max(|f0|, |f+|, |f-|)/eps:
    the slope that rounding of the three loss values alone can fake. Three
    kinds of probe are excluded from the max and listed in `skipped`:
    "consistent-zero" (analytic and numeric both within noise: the loss
    ignores the coordinate), "below-noise" (relative error over 1e-5, but
    analytic and numeric differ by no more than noise, so the difference
    cannot tell a right gradient from a wrong one), and "kink-skipped" (an
    L1-style kink inside the probe interval, detected by an anomalous
    second difference, or by a step halving that moves the difference by
    more than the extrapolated value still misses). Every other probe is
    "ok" and counts. An "ok" candidate that misses 1e-5 is probed again at
    eps/2 and judged by the Richardson value (4·half - coarse)/3, which
    cancels the eps² truncation error.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ContractError(f"finite_diff_check requires float64 params; {name} is {p.data.dtype}")

    loss = f()
    f0 = loss.item()
    if not math.isfinite(f0):
        raise EvaluationError(f"loss is non-finite: {f0}")
    grads = backward(loss, list(params.values()))

    names = sorted(params)
    sizes = np.array([params[n].data.size for n in names])
    total = int(sizes.sum())
    bounds = np.cumsum(sizes)
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = rng.choice(total, size=min(probes, total), replace=False)

    report = GradCheckReport(max_rel_err=0.0)
    for flat in sorted(int(c) for c in chosen):
        slot = int(np.searchsorted(bounds, flat, side="right"))
        name = names[slot]
        idx = flat - (int(bounds[slot - 1]) if slot else 0)
        p = params[name]
        buf = p.data.reshape(-1)
        orig = buf[idx]

        def at(step: float) -> tuple[float, float]:
            buf[idx] = orig + step
            f_plus = f().item()
            buf[idx] = orig - step
            f_minus = f().item()
            buf[idx] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise EvaluationError(f"perturbed loss non-finite at {name}[{idx}]")
            return f_plus, f_minus

        f_plus, f_minus = at(EPS)
        numeric = (f_plus - f_minus) / (2.0 * EPS)
        analytic = float(grads[p].reshape(-1)[idx])
        rel = abs(analytic - numeric) / (abs(numeric) + 1e-12)
        noise = _NOISE_FACTOR * _EPS_MACH * max(abs(f0), abs(f_plus), abs(f_minus)) / EPS

        if abs(analytic) <= noise and abs(numeric) <= noise:
            report.probes.append(Probe(name, idx, analytic, numeric, 0.0, "consistent-zero"))
            continue
        if rel > 1e-5 and abs(analytic - numeric) <= noise:
            report.probes.append(Probe(name, idx, analytic, numeric, rel, "below-noise"))
            continue
        second = abs(f_plus + f_minus - 2.0 * f0)
        if rel > 1e-5 and second > 0.1 * EPS * (abs(numeric) + 1.0):
            # slope change inside [x-eps, x+eps]: central difference invalid
            report.probes.append(Probe(name, idx, analytic, numeric, rel, "kink-skipped"))
            continue
        if rel > 1e-5:
            # a central difference errs by c·eps² + O(eps⁴): halving eps
            # quarters the error and (4·half - coarse)/3 cancels it. If the
            # halving moved the difference by more than the extrapolated
            # value still misses, the miss is no eps² term but a kink near
            # the interval's edge, which the second difference can miss
            coarse = numeric
            half_plus, half_minus = at(EPS / 2)
            half = (half_plus - half_minus) / EPS
            numeric = (4.0 * half - coarse) / 3.0
            rel = abs(analytic - numeric) / (abs(numeric) + 1e-12)
            if rel > 1e-5 and abs(coarse - half) > abs(analytic - numeric):
                report.probes.append(Probe(name, idx, analytic, numeric, rel, "kink-skipped"))
                continue
        report.probes.append(Probe(name, idx, analytic, numeric, rel, "ok"))
        report.max_rel_err = max(report.max_rel_err, rel)
    return report
