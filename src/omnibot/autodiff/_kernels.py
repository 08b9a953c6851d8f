"""Fused numba kernels for layer_norm, used when numba is importable.

`layer_norm_fwd`/`layer_norm_bwd` are defined only when `HAVE_NUMBA` is
true; `ops.layer_norm` runs numpy otherwise. numba is optional and not a
declared dependency. Set OMNIBOT_NO_NUMBA=1 to force the numpy path.
"""

from __future__ import annotations

import os

import numpy as np

HAVE_NUMBA = False
if not os.environ.get("OMNIBOT_NO_NUMBA"):
    try:
        import numba

        HAVE_NUMBA = True
    except ImportError:  # pragma: no cover
        HAVE_NUMBA = False


if HAVE_NUMBA:

    @numba.njit(cache=True, fastmath=False)
    def layer_norm_fwd(x2, gain, bias, eps, out2, xhat2, inv1):
        """Row-wise normalization. x2: [R, d]; xhat2/inv1 are outputs for bwd."""
        rows, d = x2.shape
        for r in range(rows):
            mu = 0.0
            for j in range(d):
                mu += x2[r, j]
            mu /= d
            var = 0.0
            for j in range(d):
                dx = x2[r, j] - mu
                var += dx * dx
            var /= d
            inv = 1.0 / np.sqrt(var + eps)
            inv1[r] = inv
            for j in range(d):
                xh = (x2[r, j] - mu) * inv
                xhat2[r, j] = xh
                out2[r, j] = xh * gain[j] + bias[j]

    @numba.njit(cache=True, fastmath=False)
    def layer_norm_bwd(g2, xhat2, inv1, gain, dx2, dgain, dbias):
        rows, d = g2.shape
        for j in range(d):
            dgain[j] = 0.0
            dbias[j] = 0.0
        for r in range(rows):
            m1 = 0.0
            m2 = 0.0
            for j in range(d):
                gj = g2[r, j]
                xh = xhat2[r, j]
                dgain[j] += gj * xh
                dbias[j] += gj
                dxh = gj * gain[j]
                m1 += dxh
                m2 += dxh * xh
            m1 /= d
            m2 /= d
            inv = inv1[r]
            for j in range(d):
                dx2[r, j] = inv * (g2[r, j] * gain[j] - m1 - xhat2[r, j] * m2)

