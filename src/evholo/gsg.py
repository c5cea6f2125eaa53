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

Inputs are validated once, at each public entry, which then runs the
unchecked 64-bit chain `_conv` -> `_filter` -> `_gate`; `GsgParams` checks
its own arrays when it is built. LayerNorm, the 1x1 gate and their backward
act per location, so `_gate` and `_gate_backward` run on blocks of whole
rows of the filtered z, one block's tape of intermediates at a time, and
write each block's output (or dL/dz) back into z. The conv runs one channel
at a time through one zero-bordered scratch and one product scratch, so its
nine passes stay in cache. Each 2-D FFT runs axis by axis in one buffer;
the gradient, which keeps rfft2(x_local), drops each transform's input once
it is transformed. A training step (`gsg_value_and_grad`) runs the chain
once for float64 input: each gate row block writes its output, then runs
its backward on the same tape. Float32 input runs the forward's chain and
then the gradient's, since the forward casts each stage to float32 while
the gradient differentiates the float64 chain. The chain writes in place only
into arrays it allocated itself; each in-place or blocked step rounds as
the whole-tensor, out-of-place expression it stands for, so the outputs
are bit for bit those of the plain expressions the tests keep as a
reference. A finite input too large for the math (an overflow or an
Inf - Inf anywhere in an entry) raises `NonFinite`.

Gradient convention: each complex weight is two real parameters (re, im),
and the returned gradient tensor packs dL/d(re) + 1j * dL/d(im).
"""

from __future__ import annotations

__all__ = [
    "GsgParams",
    "central_difference",
    "check_spectral_weight_gradients",
    "depthwise_conv3x3",
    "finite_difference_oracle",
    "gated_reconstruction",
    "grad_spectral_weight",
    "gsg_forward",
    "gsg_loss",
    "gsg_value_and_grad",
    "params_from_archive",
    "params_to_archive",
    "spectral_filter",
]

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensorio
from .errors import (_INT64_MAX, ConfigInvalid, NonFinite, ParseError, SelectorOutOfRange,
                     ShapeMismatch, TooLarge, _checked, _integer, _no_overflow, _positive)
from .spectral import half_cols, half_spectrum_weights

LN_EPS = 1e-5
_BLOCK_BYTES = 200_000  # per float64 array of a gate row block

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


def _sigmoid(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 * (1 + tanh(0.5 * v)) into `out`, which may be v; returns out."""
    # the tanh form cannot overflow for any finite v
    np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _sizes(*sizes) -> list[int]:
    """C, rows and cols as Python ints >= 1, else `ShapeMismatch`; `TooLarge`
    when the spectral or the gate weights' bytes are past int64, where NumPy
    would refuse to address them."""
    c, rows, cols = (_integer(n, v, ShapeMismatch)
                     for n, v in zip(("channels", "rows", "cols"), sizes))
    _integer("bytes of the spectral or gate weights", c * max(16 * rows * half_cols(cols), 8 * c),
             TooLarge, 1, _INT64_MAX)
    return [c, rows, cols]


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
        dw = _checked("dw_kernel", self.dw_kernel, np.float64, (None, 3, 3))
        object.__setattr__(self, "dw_kernel", dw)
        c = dw.shape[0]
        for name, dtype, shape in (("spectral_weight", np.complex128, (c, None, None)),
                                   ("ln_gamma", np.float64, (c,)),
                                   ("ln_beta", np.float64, (c,)),
                                   ("gate_weight", np.float64, (c, c)),
                                   ("gate_bias", np.float64, (c,))):
            object.__setattr__(self, name, _checked(name, getattr(self, name), dtype, shape))

    @classmethod
    def identity(cls, channels: int, rows: int, cols: int) -> "GsgParams":
        """Identity kernels, unit spectral weights, unit LN affine, gate
        saturated open (bias +20): forward becomes x + SiLU(LN(x))."""
        channels, rows, cols = _sizes(channels, rows, cols)
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
        channels, rows, cols = _sizes(channels, rows, cols)
        rng = np.random.default_rng(_integer("seed", seed, ConfigInvalid, 0))
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


def _block_input(x_in, params: GsgParams) -> np.ndarray:
    """Validated x_in, with params.spectral_weight checked to fit its shape."""
    a = _checked("x_in", x_in, None, (None, None, None))
    _checked("spectral_weight", params.spectral_weight, np.complex128,
             (*a.shape[:2], half_cols(a.shape[2])))
    return a


def _conv(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 cross-correlation with zero padding 1, in 64 bit. One
    channel at a time goes through a zero-bordered scratch and a product
    scratch, so its nine passes stay in cache; each output element sums its
    taps in order i, j from 0.0, as the whole-tensor expression does (a
    negative tap times 0 is -0.0, which 0.0 + -0.0 makes +0.0)."""
    rows, cols = x.shape[1:]
    out = np.zeros(x.shape)
    xp = np.zeros((rows + 2, cols + 2))
    prod = np.empty((rows, cols))
    for ch, taps in enumerate(k.tolist()):
        xp[1:-1, 1:-1] = x[ch]
        for i, row in enumerate(taps):
            for j, tap in enumerate(row):
                out[ch] += np.multiply(xp[i:i + rows, j:j + cols], tap, out=prod)
    return out


def _filter(x: np.ndarray, w: np.ndarray, keep: bool = False):
    """(rfft2(x) if keep else None, irfft2(rfft2(x) * w)) per channel. rfft2
    is NumPy's rfftn, its fft done in place in the rfft's output; without
    keep, the product with w is formed there too. The inverse is NumPy's
    irfftn with its ifft done in place (`out=` needs NumPy >= 2.0).

    With keep, x is dropped after the first transform (freed when the caller
    passed its only reference). Without keep, dropping it lowers no peak but
    made glibc trim and re-fault the heap on every step."""
    cols = x.shape[2]
    xf = np.fft.rfft(x.astype(np.float64, copy=False), axis=2)
    if keep:
        del x
    np.fft.fft(xf, axis=1, out=xf)
    t = xf * w if keep else np.multiply(xf, w, out=xf)
    np.fft.ifft(t, axis=1, out=t)
    return xf if keep else None, np.fft.irfft(t, n=cols, axis=2)


def _row_blocks(shape) -> list[slice]:
    """Whole-row slices of a C x rows x cols tensor, each about _BLOCK_BYTES
    per float64 array: 32 rows of 3 x 224 x 260."""
    c, rows, cols = shape
    step = max(1, _BLOCK_BYTES // (8 * c * cols))
    return [slice(r, r + step) for r in range(0, rows, step)]


def _gate(z: np.ndarray, params: GsgParams):
    """The tape (zhat, inv, nrm, sig_n, carrier, gate) `_gate_backward` reads,
    in 64 bit; SiLU(LN(z)) * sigmoid(gate_weight @ z + gate_bias) = carrier * gate."""
    z64 = z.astype(np.float64, copy=False)
    zhat = z64 - z64.mean(axis=0)
    sq = zhat * zhat
    inv = 1.0 / np.sqrt(sq.mean(axis=0) + LN_EPS)
    zhat *= inv
    nrm = params.ln_gamma[:, None, None] * zhat
    nrm += params.ln_beta[:, None, None]
    sig_n = _sigmoid(nrm, out=sq)
    carrier = nrm * sig_n
    gate = np.einsum("ij,jrc->irc", params.gate_weight, z64)
    gate += params.gate_bias[:, None, None]
    _sigmoid(gate, out=gate)
    return zhat, inv, nrm, sig_n, carrier, gate


def _spectral(a: np.ndarray, params: GsgParams, dt, keep: bool = False):
    """(rfft2(x_local) if keep else None, z) on validated input, each stage
    cast to dt exactly as the public stage functions cast."""
    xf, z = _filter(_conv(a, params.dw_kernel).astype(dt, copy=False),
                    params.spectral_weight, keep)
    return xf, z.astype(dt, copy=False)  # an f32 chain drops the 64-bit z here


def _gated(z: np.ndarray, params: GsgParams, out: np.ndarray) -> np.ndarray:
    """carrier * gate of z into out (which may be z), cast to out's dtype,
    one row block at a time; returns out."""
    for b in _row_blocks(z.shape):
        carrier, gate = _gate(z[:, b], params)[-2:]
        np.multiply(carrier, gate, out=out[:, b])
    return out


def _block_output(a: np.ndarray, params: GsgParams, dt) -> np.ndarray:
    """a + carrier * gate in dt, formed in z's buffer."""
    z = _spectral(a, params, dt)[1]
    return np.add(_gated(z, params, out=z), a, out=z)


@_no_overflow
def depthwise_conv3x3(x, kernels) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, stride 1, zero padding 1, no bias."""
    a = _checked("x", x, None, (None, None, None))
    k = _checked("kernels", kernels, np.float64, (a.shape[0], 3, 3))
    return _conv(a, k).astype(a.dtype, copy=False)


@_no_overflow
def spectral_filter(x_local, w) -> np.ndarray:
    """Per channel: irfft2(rfft2(x_c) * w_c). Output is exactly real-typed."""
    a = _checked("x_local", x_local, None, (None, None, None))
    wc = _checked("weights", w, np.complex128, (*a.shape[:2], half_cols(a.shape[2])))
    return _filter(a, wc)[1].astype(a.dtype, copy=False)


@_no_overflow
def gated_reconstruction(z, params: GsgParams) -> np.ndarray:
    """SiLU(LN(z)) * sigmoid(gate_weight @ z + gate_bias), per location.

    LN normalizes across the channel axis at each (row, col) with epsilon
    1e-5 and affine (ln_gamma, ln_beta); the gate is a 1x1 channel
    projection squashed by a sigmoid.
    """
    a = _checked("z", z, None, (None, None, None))
    _checked("gate_weight", params.gate_weight, np.float64, (a.shape[0],) * 2)
    return _gated(a, params, out=np.empty(a.shape, a.dtype))


@_no_overflow
def gsg_forward(x_in, params: GsgParams) -> np.ndarray:
    """x_in + gated_reconstruction(spectral_filter(depthwise_conv3x3(x_in)))."""
    a = _block_input(x_in, params)
    return _block_output(a, params, a.dtype)


@_no_overflow
def gsg_loss(x_in, params: GsgParams, upstream) -> float:
    """Probe loss L = sum(x_out * upstream) for gradient checks, where x_out is
    the block output of x_in cast to float64: for f32 input not gsg_forward's
    f32 output, but the same L that the finite-difference oracle and
    grad_spectral_weight differentiate."""
    a = _block_input(x_in, params)
    u = _checked("upstream", upstream, np.float64, a.shape)
    return float((_block_output(a, params, np.float64) * u).sum())


def _gate_backward(tape, params: GsgParams, dout: np.ndarray) -> np.ndarray:
    """dL/dz for out = SiLU(LN(z)) * gate(z), given the tape of `_gate`
    and dL/dout. Overwrites the tape's arrays; dout is only read."""
    zhat, inv, nrm, sig_n, carrier, gate = tape
    dzhat = dout * gate  # dL/dcarrier, made dL/dn and then dL/dzhat in place
    dq = np.multiply(dout, carrier, out=carrier)
    dq *= gate
    dq *= np.subtract(1.0, gate, out=gate)
    dz_gate = np.einsum("ij,irc->jrc", params.gate_weight, dq)
    # SiLU'(n) = sigmoid(n) * (1 + n * (1 - sigmoid(n)))
    dzhat *= sig_n
    silu_d = np.subtract(1.0, sig_n, out=sig_n)
    silu_d *= nrm
    silu_d += 1.0
    dzhat *= silu_d
    dzhat *= params.ln_gamma[:, None, None]
    m1 = dzhat.mean(axis=0)
    m2 = np.multiply(dzhat, zhat, out=nrm).mean(axis=0)
    dzhat -= m1
    dzhat -= np.multiply(zhat, m2, out=zhat)
    dzhat *= inv
    dzhat += dz_gate
    return dzhat


def _step(a: np.ndarray, params: GsgParams, u: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """dL/dW on validated input, from the 64-bit chain. With `out`, a float64
    array of a's shape, each gate row block also writes a + carrier * gate
    into it from the tape that its backward then overwrites: the forward
    output of a float64 a, from the same chain."""
    rows, cols = a.shape[1], a.shape[2]
    xf, z = _spectral(a, params, np.float64, keep=True)
    for b in _row_blocks(z.shape):  # dL/dz, in z's buffer
        tape = _gate(z[:, b], params)
        if out is not None:  # carrier * gate + a
            o = np.multiply(tape[4], tape[5], out=out[:, b])
            o += a[:, b]
        z[:, b] = _gate_backward(tape, params, u[:, b])
        del tape  # else it lives on beside the next block's
    g_s = np.fft.rfft(z, axis=2)  # rfft2(z), as in `_filter`
    del z
    np.fft.fft(g_s, axis=1, out=g_s)
    g_s *= half_spectrum_weights(cols)[None, None, :] / (rows * cols)
    # conj(xf) stays a temporary: NumPy's elision then multiplies as
    # conj(xf) * g_s above 256 KiB and as written below, two orders whose
    # complex products round differently
    return g_s * np.conj(xf)


@_no_overflow
def grad_spectral_weight(x_in, params: GsgParams, upstream) -> np.ndarray:
    """Analytic dL/dW for the `gsg_loss` L, whose block output is computed
    from x_in cast to float64 (so for f32 input not from gsg_forward's).

    Real and imaginary parts of each weight are independent real parameters;
    entry [c, k1, k2] of the result is dL/dRe(W) + 1j * dL/dIm(W). The
    residual term contributes nothing to dL/dW, so the chain is: gating
    backward to dL/dz, then the inverse-real-FFT adjoint (forward rfft2
    scaled by 1/(rows*cols) with the Hermitian column double-counting),
    then the elementwise product rule against conj(rfft2(x_local)).
    """
    a = _block_input(x_in, params)
    return _step(a, params, _checked("upstream", upstream, np.float64, a.shape))


@_no_overflow
def gsg_value_and_grad(x_in, params: GsgParams, upstream) -> tuple[np.ndarray, np.ndarray]:
    """(gsg_forward(x_in, params), grad_spectral_weight(x_in, params, upstream)),
    bit for bit, for one training step.

    Float64 input runs the chain once: each gate row block writes its output
    and then runs its backward on the same tape. Float32 input runs two
    chains, the forward's and then the gradient's, since the forward casts
    each stage to f32 while the gradient differentiates the f64 chain.
    """
    a = _block_input(x_in, params)
    u = _checked("upstream", upstream, np.float64, a.shape)
    if a.dtype == np.float32:
        return _block_output(a, params, a.dtype), _step(a, params, u)
    out = np.empty(a.shape)
    return out, _step(a, params, u, out)


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
    index = _integer("index", index, SelectorOutOfRange, 0, tp.size - 1)
    h = _positive("h", h, ConfigInvalid)
    tm = tp.copy()
    tp[index] += h
    tm[index] -= h
    return (f(tp) - f(tm)) / (2.0 * h)


@_no_overflow
def finite_difference_oracle(x_in, params: GsgParams, upstream,
                             param_selector: int, h: float = 1e-6) -> float:
    """Central-difference dL/dtheta_i of the `gsg_loss` L through the full forward pass.

    Of x_out = x_in + g only g depends on the parameters, so the quotient
    differences sum(g * upstream), whose derivative is that of L: the
    residual sum(x_in * upstream) would only set the rounding of L, which
    swamps the gradient of a nearly shut gate. x_in and upstream are checked
    once per call. The selector indexes the flattened parameter vector in
    PARAM_SECTIONS order (spectral weights split into a real block then an
    imaginary one).
    """
    h = _positive("h", h, ConfigInvalid, 1e-8, 1e-4)
    theta = flatten_params(params)
    _integer("param_selector", param_selector, SelectorOutOfRange, 0, theta.size - 1)
    a = _block_input(x_in, params)
    u = _checked("upstream", upstream, np.float64, a.shape)
    def loss_at(vec: np.ndarray) -> float:
        p = unflatten_params(params, vec)
        z = _spectral(a, p, np.float64)[1]
        return float((_gated(z, p, out=z) * u).sum())
    return central_difference(loss_at, theta, param_selector, h)


def check_spectral_weight_gradients(x_in, params: GsgParams, upstream) -> float:
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
        fd = finite_difference_oracle(x_in, params, upstream, sel)
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
