"""Global spectral gating operator and its gradient verification.

The forward path is

    x_local = depthwise_conv3x3(x_in)                 local embedding
    z       = irfft2(rfft2(x_local) * W)  per channel  global spectral filter
    g       = SiLU(LN(z)) * sigmoid(Wg @ z + b)        gated reconstruction
    x_out   = x_in + g                                 residual fusion

with LayerNorm taken across channels at each spatial location. The only
analytic gradient provided is dL/dW for the complex spectral weights under
the probe loss L = sum(x_out * upstream); everything else is reachable
through the generic central-difference machinery, which doubles as the
oracle for the analytic path.

Inputs are validated once, at each public entry, which then calls the
unchecked 64-bit cores `_conv`, `_filter` and `_gate`; `GsgParams` checks
its own arrays when it is built.

Gradient convention: each complex weight is two real parameters (re, im),
and the returned gradient tensor packs dL/d(re) + 1j * dL/d(im).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensorio
from .errors import NonFinite, ParseError, SelectorOutOfRange, ShapeMismatch
from .spectral import half_cols, half_spectrum_weights

LN_EPS = 1e-5

#: Archive section names, also the canonical flattened-parameter order used
#: by the finite-difference selector.
PARAM_SECTIONS = (
    "dw_kernel",
    "spectral_weight_re",
    "spectral_weight_im",
    "ln_gamma",
    "ln_beta",
    "gate_weight",
    "gate_bias",
)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # the tanh form cannot overflow for any finite v
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def _as_feature(x) -> np.ndarray:
    """Validate a C x rows x cols real feature tensor, preserving f32/f64."""
    a = np.asarray(x)
    if a.dtype not in (np.float32, np.float64):
        a = a.astype(np.float64)
    if a.ndim != 3 or a.size == 0:
        raise ShapeMismatch(f"expected non-empty 3D feature tensor, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite("feature tensor contains NaN or Inf")
    return a


@dataclass(frozen=True)
class GsgParams:
    """Immutable parameter bundle for one gating block.

    spectral_weight holds one complex weight per retained half-spectrum bin
    per channel: shape C x rows x half_cols(cols) for the feature shape it
    will be applied to.
    """

    dw_kernel: np.ndarray
    spectral_weight: np.ndarray
    ln_gamma: np.ndarray
    ln_beta: np.ndarray
    gate_weight: np.ndarray
    gate_bias: np.ndarray

    def __post_init__(self):
        dw = np.asarray(self.dw_kernel, dtype=np.float64)
        if dw.ndim != 3 or dw.shape[1:] != (3, 3):
            raise ShapeMismatch(f"dw_kernel must be (C, 3, 3), got {dw.shape}")
        c = dw.shape[0]
        w = np.asarray(self.spectral_weight, dtype=np.complex128)
        if w.ndim != 3 or w.shape[0] != c:
            raise ShapeMismatch(
                f"spectral_weight must be (C={c}, rows, half_cols(cols)), got {w.shape}"
            )
        arrays = {"dw_kernel": dw, "spectral_weight": w}
        for name, shape in (("ln_gamma", (c,)), ("ln_beta", (c,)),
                            ("gate_weight", (c, c)), ("gate_bias", (c,))):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            if v.shape != shape:
                raise ShapeMismatch(f"{name} must have shape {shape}, got {v.shape}")
            arrays[name] = v
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NonFinite(f"{name} contains NaN or Inf")
            object.__setattr__(self, name, arr)

    @property
    def channels(self) -> int:
        return self.dw_kernel.shape[0]

    @classmethod
    def identity(cls, channels: int, rows: int, cols: int) -> "GsgParams":
        """Identity kernels, unit spectral weights, unit LN affine, gate
        saturated open (bias +20): forward becomes x + SiLU(LN(x))."""
        dw = np.zeros((channels, 3, 3))
        dw[:, 1, 1] = 1.0
        return cls(
            dw_kernel=dw,
            spectral_weight=np.ones((channels, rows, half_cols(cols)), dtype=np.complex128),
            ln_gamma=np.ones(channels),
            ln_beta=np.zeros(channels),
            gate_weight=np.zeros((channels, channels)),
            gate_bias=np.full(channels, 20.0),
        )

    @classmethod
    def random(cls, channels: int, rows: int, cols: int, seed: int = 0) -> "GsgParams":
        """Smooth random parameters near the identity point, for testing."""
        rng = np.random.default_rng(seed)
        hw = half_cols(cols)
        w = 1.0 + 0.3 * (rng.standard_normal((channels, rows, hw))
                         + 1j * rng.standard_normal((channels, rows, hw)))
        return cls(
            dw_kernel=0.4 * rng.standard_normal((channels, 3, 3)),
            spectral_weight=w,
            ln_gamma=1.0 + 0.2 * rng.standard_normal(channels),
            ln_beta=0.2 * rng.standard_normal(channels),
            gate_weight=rng.standard_normal((channels, channels)) / max(1.0, channels),
            gate_bias=0.5 * rng.standard_normal(channels),
        )


def _check_weights(x: np.ndarray, w: np.ndarray) -> None:
    """w must be C x rows x half_cols(cols) for feature x; given a
    params.spectral_weight this also checks the params' channel count."""
    c, rows, cols = x.shape
    expected = (c, rows, half_cols(cols))
    if w.shape != expected:
        raise ShapeMismatch(
            f"spectral weights shape {w.shape} does not match feature shape "
            f"{x.shape} (expected {expected})"
        )


def _loss_inputs(x_in, params: GsgParams, upstream):
    """Validated (x_in, upstream) for gsg_loss and grad_spectral_weight."""
    a = _as_feature(x_in)
    _check_weights(a, params.spectral_weight)
    u = _as_feature(upstream)
    if u.shape != a.shape:
        raise ShapeMismatch(
            f"upstream shape {u.shape} does not match input shape {a.shape}"
        )
    return a, u


def _conv(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 cross-correlation with zero padding 1."""
    x64 = x.astype(np.float64, copy=False)
    rows, cols = x.shape[1], x.shape[2]
    xp = np.pad(x64, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x64)
    for i in range(3):
        for j in range(3):
            out += k[:, i, j][:, None, None] * xp[:, i:i + rows, j:j + cols]
    return out


def _filter(x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rfft2(x), irfft2(rfft2(x) * w)) per channel."""
    xf = np.fft.rfft2(x.astype(np.float64, copy=False), axes=(1, 2))
    return xf, np.fft.irfft2(xf * w, s=x.shape[1:], axes=(1, 2))


def _gating_forward(z: np.ndarray, params: GsgParams):
    """Gating internals in 64 bit; returns everything backward needs."""
    z64 = z.astype(np.float64, copy=False)
    g = params.ln_gamma[:, None, None]
    b = params.ln_beta[:, None, None]
    zc = z64 - z64.mean(axis=0)
    inv = 1.0 / np.sqrt((zc * zc).mean(axis=0) + LN_EPS)
    zhat = zc * inv
    nrm = g * zhat + b
    sig_n = _sigmoid(nrm)
    carrier = nrm * sig_n
    q = np.einsum("ij,jrc->irc", params.gate_weight, z64) + params.gate_bias[:, None, None]
    gate = _sigmoid(q)
    return zhat, inv, nrm, sig_n, carrier, gate


def _gate(z: np.ndarray, params: GsgParams) -> np.ndarray:
    """SiLU(LN(z)) * sigmoid(gate_weight @ z + gate_bias)."""
    *_, carrier, gate = _gating_forward(z, params)
    return carrier * gate


def _forward(a: np.ndarray, params: GsgParams) -> np.ndarray:
    """The block on validated input, cast back to a.dtype after each stage,
    exactly as the public stage functions cast."""
    dt = a.dtype
    x_local = _conv(a, params.dw_kernel).astype(dt, copy=False)
    z = _filter(x_local, params.spectral_weight)[1].astype(dt, copy=False)
    return a + _gate(z, params).astype(dt, copy=False)


def depthwise_conv3x3(x, kernels) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, stride 1, zero padding 1, no bias."""
    a = _as_feature(x)
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 3 or k.shape[1:] != (3, 3) or k.shape[0] != a.shape[0]:
        raise ShapeMismatch(
            f"kernels must be ({a.shape[0]}, 3, 3), got {k.shape}"
        )
    if not np.isfinite(k).all():
        raise NonFinite("kernels contain NaN or Inf")
    return _conv(a, k).astype(a.dtype, copy=False)


def spectral_filter(x_local, w) -> np.ndarray:
    """Per channel: irfft2(rfft2(x_c) * w_c). Output is exactly real-typed."""
    a = _as_feature(x_local)
    wc = np.asarray(w, dtype=np.complex128)
    _check_weights(a, wc)
    if not np.isfinite(wc).all():
        raise NonFinite("weights contain NaN or Inf")
    return _filter(a, wc)[1].astype(a.dtype, copy=False)


def gated_reconstruction(z, params: GsgParams) -> np.ndarray:
    """SiLU(LN(z)) * sigmoid(gate_weight @ z + gate_bias), per location.

    LN normalizes across the channel axis at each (row, col) with epsilon
    1e-5 and affine (ln_gamma, ln_beta); the gate is a 1x1 channel
    projection squashed by a sigmoid.
    """
    a = _as_feature(z)
    if params.channels != a.shape[0]:
        raise ShapeMismatch(
            f"params built for {params.channels} channels, input has {a.shape[0]}"
        )
    return _gate(a, params).astype(a.dtype, copy=False)


def gsg_forward(x_in, params: GsgParams) -> np.ndarray:
    """x_in + gated_reconstruction(spectral_filter(depthwise_conv3x3(x_in)))."""
    a = _as_feature(x_in)
    _check_weights(a, params.spectral_weight)
    return _forward(a, params)


def gsg_loss(x_in, params: GsgParams, upstream) -> float:
    """Probe loss sum(gsg_forward(x_in) * upstream) used for gradient checks."""
    a, u = _loss_inputs(x_in, params, upstream)
    out = _forward(a.astype(np.float64, copy=False), params)
    return float((out * u.astype(np.float64, copy=False)).sum())


def _gating_backward(z64: np.ndarray, params: GsgParams, dout: np.ndarray) -> np.ndarray:
    """dL/dz for out = SiLU(LN(z)) * gate(z), given dL/dout."""
    zhat, inv, nrm, sig_n, carrier, gate = _gating_forward(z64, params)
    d_carrier = dout * gate
    dq = dout * carrier * gate * (1.0 - gate)
    dz_gate = np.einsum("ij,irc->jrc", params.gate_weight, dq)
    # SiLU'(n) = sigmoid(n) * (1 + n * (1 - sigmoid(n)))
    dn = d_carrier * sig_n * (1.0 + nrm * (1.0 - sig_n))
    dzhat = dn * params.ln_gamma[:, None, None]
    m1 = dzhat.mean(axis=0)
    m2 = (dzhat * zhat).mean(axis=0)
    return inv * (dzhat - m1 - zhat * m2) + dz_gate


def grad_spectral_weight(x_in, params: GsgParams, upstream) -> np.ndarray:
    """Analytic dL/dW for L = sum(gsg_forward(x_in) * upstream).

    Real and imaginary parts of each weight are independent real parameters;
    entry [c, k1, k2] of the result is dL/dRe(W) + 1j * dL/dIm(W). The
    residual term contributes nothing to dL/dW, so the chain is: gating
    backward to dL/dz, then the inverse-real-FFT adjoint (forward rfft2
    scaled by 1/(rows*cols) with the Hermitian column double-counting),
    then the elementwise product rule against conj(rfft2(x_local)).
    """
    a, u = _loss_inputs(x_in, params, upstream)
    rows, cols = a.shape[1], a.shape[2]
    zf, z = _filter(_conv(a, params.dw_kernel), params.spectral_weight)
    u_z = _gating_backward(z, params, u.astype(np.float64, copy=False))
    col_w = half_spectrum_weights(cols)[None, None, :]
    g_s = np.fft.rfft2(u_z, axes=(1, 2)) * (col_w / (rows * cols))
    return g_s * np.conj(zf)


def _sections(params: GsgParams) -> dict[str, np.ndarray]:
    """Name -> real array for every section, in PARAM_SECTIONS order."""
    w = params.spectral_weight
    split = {"spectral_weight_re": w.real, "spectral_weight_im": w.imag}
    return {name: split[name] if name in split else getattr(params, name)
            for name in PARAM_SECTIONS}


def _from_sections(sections) -> GsgParams:
    """Inverse of `_sections`: build GsgParams from a name -> array mapping."""
    re, im = sections["spectral_weight_re"], sections["spectral_weight_im"]
    if re.shape != im.shape:
        raise ShapeMismatch(
            f"spectral weight halves disagree: {re.shape} vs {im.shape}"
        )
    # re + 1j * im would turn an Inf into NaN with a warning
    w = np.array(re, dtype=np.complex128)
    w.imag = im
    real = {name: sections[name] for name in PARAM_SECTIONS if name not in
            ("spectral_weight_re", "spectral_weight_im")}
    return GsgParams(spectral_weight=w, **real)


def param_component_count(params: GsgParams) -> int:
    """Total scalar parameter components (complex weights count twice)."""
    return sum(a.size for a in _sections(params).values())


def flatten_params(params: GsgParams) -> np.ndarray:
    """All scalar components as one vector, in PARAM_SECTIONS order."""
    return np.concatenate([a.ravel() for a in _sections(params).values()])


def unflatten_params(template: GsgParams, theta: np.ndarray) -> GsgParams:
    """Rebuild a GsgParams with template's shapes from a flat vector."""
    sections = _sections(template)
    ends = np.cumsum([a.size for a in sections.values()])
    if theta.shape != (ends[-1],):
        raise ShapeMismatch(f"expected {ends[-1]} components, got {theta.shape}")
    return _from_sections({
        name: theta[end - a.size:end].reshape(a.shape)
        for (name, a), end in zip(sections.items(), ends)
    })


def spectral_weight_selectors(params: GsgParams) -> range:
    """Flat selector indices covering the spectral weights (re block then im)."""
    start = params.dw_kernel.size
    return range(start, start + 2 * params.spectral_weight.size)


def central_difference(f: Callable[[np.ndarray], float], theta: np.ndarray,
                       index: int, h: float) -> float:
    """(f(theta + h*e_i) - f(theta - h*e_i)) / (2h)."""
    tp = np.array(theta, dtype=np.float64)
    tm = tp.copy()
    tp[index] += h
    tm[index] -= h
    return (f(tp) - f(tm)) / (2.0 * h)


def finite_difference_oracle(x_in, params: GsgParams, upstream,
                             param_selector: int, h: float = 1e-6) -> float:
    """Central-difference dL/dtheta_i through the full forward pass.

    The selector indexes the flattened parameter vector in PARAM_SECTIONS
    order (spectral weights split into a real block then an imaginary one).
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError(f"step h must lie in [1e-8, 1e-4], got {h}")
    theta = flatten_params(params)
    if not 0 <= param_selector < theta.size:
        raise SelectorOutOfRange(
            f"selector {param_selector} outside 0..{theta.size - 1}"
        )
    def loss_at(vec: np.ndarray) -> float:
        return gsg_loss(x_in, unflatten_params(params, vec), upstream)
    return central_difference(loss_at, theta, param_selector, h)


def check_spectral_weight_gradients(x_in, params: GsgParams, upstream,
                                    h: float = 1e-6) -> float:
    """Max relative error of the analytic spectral-weight gradient against
    the finite-difference oracle over every weight component.

    The relative error floors its denominator at 1e-3 of the gradient's
    max magnitude so components that are incidentally ~0 don't dominate.
    """
    analytic = grad_spectral_weight(x_in, params, upstream)
    an = np.concatenate([analytic.real.ravel(), analytic.imag.ravel()])
    scale = float(np.abs(an).max()) if an.size else 0.0
    worst = 0.0
    for i, sel in enumerate(spectral_weight_selectors(params)):
        fd = finite_difference_oracle(x_in, params, upstream, sel, h)
        denom = max(abs(an[i]), abs(fd), 1e-3 * scale, 1e-12)
        worst = max(worst, abs(an[i] - fd) / denom)
    return worst


def params_to_archive(params: GsgParams) -> bytes:
    """Serialize to the multi-tensor archive (sections in PARAM_SECTIONS order)."""
    return tensorio.write_archive(_sections(params))


def params_from_archive(data: bytes) -> GsgParams:
    """Inverse of params_to_archive; raises ParseError on missing sections."""
    arch = tensorio.read_archive(data)
    missing = [name for name in PARAM_SECTIONS if name not in arch]
    if missing:
        raise ParseError(f"params archive missing sections: {', '.join(missing)}")
    return _from_sections(arch)
