"""Reference results the output checks compare against.

Each reference is written from the formula in the library's docstrings and
shares no code with the layer it checks: the encoder reference scatters with
``np.add.at`` instead of ``bincount``, and the gating-block reference uses a
sliding-window einsum for the convolution and the tanh form of the sigmoid.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from inputs import Events

LN_EPS = 1e-5


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def rel_err(got, want) -> float:
    """max |got - want| over max |want| (absolute when want is all zero)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.abs(want).max()) if want.size else 0.0
    return float(np.abs(got - want).max()) / (scale if scale > 0 else 1.0)


def chsr(ev: Events, t_bins: int, log1p: bool = False) -> np.ndarray:
    """3 x t_bins x H tensor: positive counts, negative counts, sum of sin(pi x / W).

    Temporal bin = floor((t - t_min) * t_bins / (duration + 1)), height bin = y;
    events outside the sensor are left out.
    """
    w, h = ev.geometry
    inb = (ev.x >= 0) & (ev.x < w) & (ev.y >= 0) & (ev.y < h)
    t0 = ev.t.min()
    tb = (ev.t - t0) * t_bins // (ev.t.max() - t0 + 1)
    out = np.zeros((3, t_bins, h))
    for ch, sel in ((0, inb & (ev.p == 1)), (1, inb & (ev.p == -1))):
        np.add.at(out[ch], (tb[sel], ev.y[sel]), 1.0)
    np.add.at(out[2], (tb[inb], ev.y[inb]), np.sin(np.pi * ev.x[inb] / w))
    return np.log1p(out) if log1p else out


def check_chsr(got: np.ndarray, want: np.ndarray) -> None:
    """Count channels exactly equal, holographic channel within 1e-9 relative."""
    require(got.shape == want.shape, f"tensor shape {got.shape} != {want.shape}")
    require(np.array_equal(got[:2], want[:2]), "count channels differ from np.add.at histogram")
    err = rel_err(got[2], want[2])
    require(err <= 1e-9, f"holographic channel relative error {err:.3g} > 1e-9")


def _sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def gsg_forward(x: np.ndarray, p: dict) -> np.ndarray:
    """x + SiLU(LN(z)) * sigmoid(Wg @ z + b), z = irfft2(rfft2(dwconv3x3(x)) * W)."""
    c, rows, cols = x.shape
    win = sliding_window_view(np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))
    x_local = np.einsum("crkij,cij->crk", win, p["dw_kernel"])
    z = np.fft.irfft2(np.fft.rfft2(x_local) * p["spectral_weight"], s=(rows, cols))
    zc = z - z.mean(axis=0)
    n = p["ln_gamma"][:, None, None] * zc / np.sqrt((zc ** 2).mean(axis=0) + LN_EPS) \
        + p["ln_beta"][:, None, None]
    q = np.tensordot(p["gate_weight"], z, axes=(1, 0)) + p["gate_bias"][:, None, None]
    return x + n * _sigmoid(n) * _sigmoid(q)


def directional_grad_error(x, p: dict, upstream, grad, seed: int,
                           h: float = 1e-6) -> float:
    """Relative gap between <grad, D> and the central difference of
    L(W) = sum(gsg_forward(x; W) * upstream) along a random unit direction D.

    grad packs dL/dRe(W) + 1j dL/dIm(W), so <grad, D> = sum(Re g Re D + Im g Im D).
    """
    rng = np.random.default_rng(seed)
    w = p["spectral_weight"]
    d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
    d /= np.sqrt((np.abs(d) ** 2).sum())

    def loss(weight):
        return float((gsg_forward(x, {**p, "spectral_weight": weight}) * upstream).sum())

    fd = (loss(w + h * d) - loss(w - h * d)) / (2.0 * h)
    an = float((grad.real * d.real + grad.imag * d.imag).sum())
    return abs(an - fd) / max(abs(an), abs(fd), 1e-12)
