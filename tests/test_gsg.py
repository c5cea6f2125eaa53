import tracemalloc

import numpy as np
import pytest

from evholo import (
    GsgParams,
    NonFinite,
    SelectorOutOfRange,
    ShapeMismatch,
    central_difference,
    check_spectral_weight_gradients,
    depthwise_conv3x3,
    dft2_oracle,
    finite_difference_oracle,
    gated_reconstruction,
    grad_spectral_weight,
    gsg_forward,
    gsg_loss,
    irfft2,
    params_from_archive,
    params_to_archive,
    rfft2,
    spectral_filter,
)
from evholo import gsg
from evholo.errors import ParseError
from evholo.gsg import (
    LN_EPS,
    flatten_params,
    param_component_count,
    spectral_weight_selectors,
    unflatten_params,
)
from evholo.spectral import half_cols, half_spectrum_weights


def conv_reference(x, k):
    """Six explicit nested loops, zero padding, cross-correlation."""
    c_n, rows, cols = x.shape
    out = np.zeros_like(x, dtype=np.float64)
    for c in range(c_n):
        for i in range(rows):
            for j in range(cols):
                acc = 0.0
                for di in range(3):
                    for dj in range(3):
                        ii, jj = i + di - 1, j + dj - 1
                        if 0 <= ii < rows and 0 <= jj < cols:
                            acc += k[c, di, dj] * x[c, ii, jj]
                out[c, i, j] = acc
    return out


def identity_kernels(c):
    k = np.zeros((c, 3, 3))
    k[:, 1, 1] = 1.0
    return k


def silu(v):
    return v / (1.0 + np.exp(-v))


def layernorm_ref(z, gamma, beta):
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    zhat = (z - mu) / np.sqrt(var + LN_EPS)
    return gamma[:, None, None] * zhat + beta[:, None, None]


# ---------------------------------------------------------------- conv


def test_conv_identity_kernel():
    x = np.random.default_rng(0).standard_normal((3, 7, 5))
    assert np.array_equal(depthwise_conv3x3(x, identity_kernels(3)), x)


def test_conv_zero_kernel():
    x = np.random.default_rng(1).standard_normal((2, 4, 4))
    assert not depthwise_conv3x3(x, np.zeros((2, 3, 3))).any()


def test_conv_matches_loop_reference_64bit():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 5, 5))
    k = rng.standard_normal((2, 3, 3))
    assert np.abs(depthwise_conv3x3(x, k) - conv_reference(x, k)).max() < 1e-12


def test_conv_matches_loop_reference_32bit():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 5)).astype(np.float32)
    k = rng.standard_normal((2, 3, 3))
    out = depthwise_conv3x3(x, k)
    assert out.dtype == np.float32
    assert np.abs(out - conv_reference(x.astype(np.float64), k)).max() < 1e-6


def test_conv_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        depthwise_conv3x3(np.zeros((2, 4, 4)), np.zeros((3, 3, 3)))


# ---------------------------------------------------------------- spectral filter


def test_filter_identity_weights():
    rng = np.random.default_rng(4)
    for rows, cols in [(4, 4), (7, 5), (64, 64)]:
        x = rng.standard_normal((2, rows, cols)).astype(np.float32)
        w = np.ones((2, rows, half_cols(cols)), dtype=np.complex128)
        out = spectral_filter(x, w)
        assert out.dtype == np.float32
        assert np.abs(out - x).max() < 1e-6


def test_filter_zero_weights():
    x = np.random.default_rng(5).standard_normal((1, 6, 6))
    assert not spectral_filter(x, np.zeros((1, 6, 4), dtype=complex)).any()


def test_filter_dc_only_projects_to_mean():
    x = np.random.default_rng(6).standard_normal((1, 4, 4))
    w = np.zeros((1, 4, 3), dtype=complex)
    w[0, 0, 0] = 1.0
    out = spectral_filter(x, w)
    assert np.abs(out - x.mean()).max() < 1e-12


def test_filter_matches_oracle_pipeline():
    """Forward transform replaced by the direct-sum oracle, same weights,
    inverse shared: the two routes agree to 1e-9."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 6, 7))
    w = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
    fast = spectral_filter(x, w)
    slow = np.stack([
        np.fft.irfft2(dft2_oracle(x[c]) * w[c], s=(6, 7)) for c in range(3)
    ])
    assert np.abs(fast - slow).max() < 1e-9


def test_filter_output_exactly_real_typed():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((2, 5, 5))
    w = rng.standard_normal((2, 5, 3)) + 1j * rng.standard_normal((2, 5, 3))
    out = spectral_filter(x, w)
    assert out.dtype == np.float64
    assert np.isfinite(out).all()


def test_filter_homogeneity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 6, 6))
    w = rng.standard_normal((2, 6, 4)) + 1j * rng.standard_normal((2, 6, 4))
    lhs = spectral_filter(3.5 * x, w)
    rhs = 3.5 * spectral_filter(x, w)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_filter_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        spectral_filter(np.zeros((2, 4, 4)), np.zeros((2, 4, 4), dtype=complex))


# ---------------------------------------------------------------- gating


def _params(c, rows, cols, seed=0, **overrides):
    p = GsgParams.random(c, rows, cols, seed=seed)
    fields = dict(
        dw_kernel=p.dw_kernel,
        spectral_weight=p.spectral_weight,
        ln_gamma=p.ln_gamma,
        ln_beta=p.ln_beta,
        gate_weight=p.gate_weight,
        gate_bias=p.gate_bias,
    )
    fields.update(overrides)
    return GsgParams(**fields)


def test_closed_gate_suppresses_output():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((3, 8, 8))
    p = _params(3, 8, 8, gate_weight=np.zeros((3, 3)), gate_bias=np.full(3, -20.0))
    out = gated_reconstruction(z, p)
    carrier = silu(layernorm_ref(z, p.ln_gamma, p.ln_beta))
    assert np.abs(out).max() < 1e-6 * np.abs(carrier).max()


def test_open_gate_passes_carrier():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((3, 8, 8))
    p = _params(3, 8, 8, gate_weight=np.zeros((3, 3)), gate_bias=np.full(3, 20.0))
    out = gated_reconstruction(z, p)
    carrier = silu(layernorm_ref(z, p.ln_gamma, p.ln_beta))
    assert np.abs(out - carrier).max() < 1e-6


def test_single_channel_ln_degeneracy():
    """With one channel the normalized value is 0 everywhere, so the
    carrier collapses to the constant SiLU(ln_beta)."""
    z = np.random.default_rng(12).standard_normal((1, 5, 5))
    p = _params(1, 5, 5, ln_beta=np.array([0.8]),
                gate_weight=np.zeros((1, 1)), gate_bias=np.array([20.0]))
    out = gated_reconstruction(z, p)
    assert np.abs(out - silu(0.8)).max() < 1e-6


def test_extreme_gate_logits_do_not_overflow():
    """Gate and LN logits of +-800 saturate the sigmoids to exactly 0 and 1
    without any floating-point exception."""
    z = np.random.default_rng(21).standard_normal((2, 5, 6))
    p = _params(2, 5, 6, ln_gamma=np.zeros(2), ln_beta=np.array([800.0, -800.0]),
                gate_weight=np.zeros((2, 2)), gate_bias=np.array([800.0, -800.0]))
    with np.errstate(all="raise"):
        out = gated_reconstruction(z, p)
        fwd = gsg_forward(z, p)
    assert np.array_equal(out[0], np.full((5, 6), 800.0))
    assert not out[1].any()
    assert np.array_equal(fwd, z + out)


def test_finite_input_too_large_for_the_math_is_nonfinite():
    # one value of 1e200: LN squares it past float64 (found by fuzzing gsg-demo)
    p = GsgParams.random(2, 4, 6, seed=1)
    x = np.random.default_rng(3).standard_normal((2, 4, 6))
    x[0, 1, 2] = 1e200
    u = np.ones_like(x)
    for run in (lambda: gsg_forward(x, p), lambda: gated_reconstruction(x, p),
                lambda: gsg_loss(x, p, u), lambda: grad_spectral_weight(x, p, u),
                lambda: spectral_filter(np.full((2, 4, 6), 1e307), p.spectral_weight)):
        with pytest.raises(NonFinite):
            run()
    # an f32 stage output beyond the f32 range, from f32 input in range
    big = np.full((2, 4, 6), 3e38, dtype=np.float32)
    with pytest.raises(NonFinite):
        depthwise_conv3x3(big, np.ones((2, 3, 3)))


def test_gating_rejects_nonfinite():
    p = _params(2, 4, 4)
    z = np.zeros((2, 4, 4))
    z[0, 0, 0] = np.inf
    with pytest.raises(NonFinite):
        gated_reconstruction(z, p)


# ---------------------------------------------------------------- forward


def test_forward_identity_composition():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 8, 8))
    p = GsgParams.identity(3, 8, 8)
    expected = x + silu(layernorm_ref(x, np.ones(3), np.zeros(3)))
    assert np.abs(gsg_forward(x, p) - expected).max() < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_is_bit_equal_to_stage_composition(dtype):
    rng = np.random.default_rng(22)
    x = rng.standard_normal((3, 9, 10)).astype(dtype)
    p = GsgParams.random(3, 9, 10, seed=8)
    staged = x + gated_reconstruction(
        spectral_filter(depthwise_conv3x3(x, p.dw_kernel), p.spectral_weight), p)
    out = gsg_forward(x, p)
    assert out.dtype == dtype
    assert np.array_equal(out, staged)


def test_forward_closed_gate_is_residual():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 7, 7))
    p = _params(2, 7, 7, gate_weight=np.zeros((2, 2)), gate_bias=np.full(2, -20.0))
    out = gsg_forward(x, p)
    assert np.abs(out - x).max() < 1e-6 * (1.0 + np.abs(x).max())


def test_forward_preserves_shape_and_finiteness():
    rng = np.random.default_rng(15)
    for c, rows, cols in [(1, 1, 1), (2, 2, 7), (7, 8, 2), (4, 8, 8)]:
        x = rng.standard_normal((c, rows, cols))
        out = gsg_forward(x, GsgParams.random(c, rows, cols, seed=c))
        assert out.shape == x.shape
        assert np.isfinite(out).all()


def test_forward_shape_mismatch():
    for entry in (gsg_forward, lambda x, p: gsg_loss(x, p, np.ones_like(x)),
                  lambda x, p: grad_spectral_weight(x, p, np.ones_like(x))):
        with pytest.raises(ShapeMismatch):
            entry(np.zeros((2, 4, 4)), GsgParams.random(2, 5, 5))
        with pytest.raises(ShapeMismatch):
            entry(np.zeros((3, 4, 4)), GsgParams.random(2, 4, 4))


# ---------------------------------------------------------------- gradients


def test_grad_zero_upstream():
    p = GsgParams.random(2, 4, 4, seed=1)
    x = np.random.default_rng(16).standard_normal((2, 4, 4))
    g = grad_spectral_weight(x, p, np.zeros((2, 4, 4)))
    assert not g.any()


@pytest.mark.parametrize("shape", [(2, 6, 6), (3, 9, 10), (3, 20, 22)])
def test_grad_and_loss_run_in_float64(shape):
    rng = np.random.default_rng(23)
    x = rng.standard_normal(shape).astype(np.float32)
    u = rng.standard_normal(shape).astype(np.float32)
    x64, u64 = x.astype(np.float64), u.astype(np.float64)
    p = GsgParams.random(*shape, seed=9)
    g = grad_spectral_weight(x, p, u)
    assert g.dtype == np.complex128
    assert g.tobytes() == grad_spectral_weight(x64, p, u64).tobytes()
    assert gsg_loss(x, p, u) == gsg_loss(x64, p, u64)
    # so for f32 input L is not the loss of gsg_forward's f32 output
    assert gsg_loss(x, p, u) != float((gsg_forward(x, p) * u64).sum())


def test_grad_single_component_1x4x4():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((1, 4, 4))
    u = rng.standard_normal((1, 4, 4))
    p = GsgParams.random(1, 4, 4, seed=2)
    analytic = grad_spectral_weight(x, p, u)
    sel = spectral_weight_selectors(p)
    # real part of weight (0, 1, 1)
    idx = 1 * 3 + 1
    fd = finite_difference_oracle(x, p, u, sel.start + idx, h=1e-6)
    an = analytic.real.ravel()[idx]
    assert abs(an - fd) / max(abs(an), abs(fd), 1e-12) < 1e-4


def test_grad_full_sweep_2x6x6():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((2, 6, 6))
    u = rng.standard_normal((2, 6, 6))
    p = GsgParams.random(2, 6, 6, seed=3)
    assert check_spectral_weight_gradients(x, p, u) < 1e-4


def test_grad_full_sweep_1x4x4():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((1, 4, 4))
    u = rng.standard_normal((1, 4, 4))
    p = GsgParams.random(1, 4, 4, seed=4)
    assert check_spectral_weight_gradients(x, p, u) < 1e-4


def test_central_difference_exact_for_quadratic():
    theta = np.array([0.3, -1.2, 2.0])
    fd = central_difference(lambda v: float(v @ v), theta, 1, h=1e-4)
    assert abs(fd - 2 * theta[1]) < 1e-10


def test_central_difference_second_order_convergence():
    # error of the central quotient for sin shrinks ~4x per halving of h
    errs = []
    for h in (1e-4, 5e-5, 2.5e-5):
        fd = central_difference(lambda v: float(np.sin(v[0])), np.array([0.7]), 0, h)
        errs.append(abs(fd - np.cos(0.7)))
    assert 2.5 < errs[0] / errs[1] < 6.0
    assert 2.5 < errs[1] / errs[2] < 6.0


def test_oracle_step_bounds():
    p = GsgParams.random(1, 4, 4)
    x = np.zeros((1, 4, 4))
    with pytest.raises(ValueError):
        finite_difference_oracle(x, p, x, 0, h=1e-3)
    with pytest.raises(ValueError):
        finite_difference_oracle(x, p, x, 0, h=1e-9)


def test_oracle_selector_out_of_range():
    p = GsgParams.random(1, 4, 4)
    x = np.zeros((1, 4, 4))
    with pytest.raises(SelectorOutOfRange):
        finite_difference_oracle(x, p, x, param_component_count(p))


def test_flatten_unflatten_round_trip():
    p = GsgParams.random(3, 5, 6, seed=5)
    q = unflatten_params(p, flatten_params(p))
    assert np.array_equal(q.spectral_weight, p.spectral_weight)
    assert np.array_equal(q.dw_kernel, p.dw_kernel)
    assert np.array_equal(q.gate_weight, p.gate_weight)


def test_loss_matches_manual_inner_product():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((2, 5, 5))
    u = rng.standard_normal((2, 5, 5))
    p = GsgParams.random(2, 5, 5, seed=6)
    assert abs(gsg_loss(x, p, u) - float((gsg_forward(x, p) * u).sum())) < 1e-12


# ---------------------------------------------------------------- params


def test_params_archive_round_trip():
    p = GsgParams.random(4, 6, 8, seed=7)
    q = params_from_archive(params_to_archive(p))
    for name in ("dw_kernel", "spectral_weight", "ln_gamma", "ln_beta",
                 "gate_weight", "gate_bias"):
        assert np.array_equal(getattr(q, name), getattr(p, name)), name


def test_params_archive_missing_section():
    from evholo import read_archive, write_archive
    p = GsgParams.random(2, 4, 4)
    entries = read_archive(params_to_archive(p))
    del entries["ln_gamma"]
    with pytest.raises(ParseError):
        params_from_archive(write_archive(entries))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_params_archive_nonfinite_weight(bad):
    from evholo import read_archive, write_archive
    entries = read_archive(params_to_archive(GsgParams.random(2, 4, 4)))
    im = entries["spectral_weight_im"].copy()
    im[1, 2, 0] = bad
    entries["spectral_weight_im"] = im
    with pytest.raises(NonFinite):  # and no RuntimeWarning on the way
        params_from_archive(write_archive(entries))


def test_params_validation():
    with pytest.raises(ShapeMismatch):
        GsgParams(
            dw_kernel=np.zeros((2, 2, 2)),
            spectral_weight=np.ones((2, 4, 3), dtype=complex),
            ln_gamma=np.ones(2), ln_beta=np.zeros(2),
            gate_weight=np.zeros((2, 2)), gate_bias=np.zeros(2),
        )
    with pytest.raises(NonFinite):
        GsgParams(
            dw_kernel=np.zeros((1, 3, 3)),
            spectral_weight=np.array([[[np.nan + 0j]]]),
            ln_gamma=np.ones(1), ln_beta=np.zeros(1),
            gate_weight=np.zeros((1, 1)), gate_bias=np.zeros(1),
        )


# ---------------------------------------------------------------- array arguments

_X = np.random.default_rng(24).standard_normal((2, 4, 6))
_P = GsgParams.random(2, 4, 6, seed=4)
_FIELDS = {name: getattr(_P, name) for name in
           ("dw_kernel", "spectral_weight", "ln_gamma", "ln_beta", "gate_weight", "gate_bias")}

# name -> (call with the array, a valid array, an array of the wrong shape)
CHECKED_ARRAYS = {
    **{name: (lambda v, name=name: GsgParams(**{**_FIELDS, name: v}), good, bad)
       for name, (good, bad) in {
           "dw_kernel": (_P.dw_kernel, np.zeros((2, 3, 4))),
           "spectral_weight": (_P.spectral_weight, np.ones((3, 4, 4), dtype=complex)),
           "ln_gamma": (_P.ln_gamma, np.ones(3)),
           "ln_beta": (_P.ln_beta, np.zeros((2, 1))),
           "gate_weight": (_P.gate_weight, np.zeros((2, 3))),
           "gate_bias": (_P.gate_bias, np.zeros(())),
       }.items()},
    "conv kernels": (lambda v: depthwise_conv3x3(_X, v), _P.dw_kernel, np.zeros((3, 3, 3))),
    "filter weights": (lambda v: spectral_filter(_X, v), _P.spectral_weight,
                       np.ones((2, 4, 6), dtype=complex)),
    "grad upstream": (lambda v: grad_spectral_weight(_X, _P, v), np.ones_like(_X),
                      np.ones((2, 4, 5))),
    "loss upstream": (lambda v: gsg_loss(_X, _P, v), np.ones_like(_X), np.ones((1, 2, 4, 6))),
    "irfft2 half spectrum": (lambda v: irfft2(v, 6), rfft2(_X[0]), np.ones((4, 3), dtype=complex)),
}


@pytest.mark.parametrize("name", CHECKED_ARRAYS)
def test_checked_array_rejects_wrong_shape_and_nonfinite(name):
    call, good, bad = CHECKED_ARRAYS[name]
    call(good)
    with pytest.raises(ShapeMismatch):
        call(bad)
    nan = np.array(good, copy=True)
    nan.flat[-1] = np.nan
    with pytest.raises(NonFinite):
        call(nan)


# ---------------------------------------------------------------- the in-place chain

# The same chain as plain out-of-place expressions: the reference that the
# in-place chain must match bit for bit.


def _sigmoid_ref(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def _conv_ref(x, k):
    x64 = x.astype(np.float64, copy=False)
    rows, cols = x.shape[1], x.shape[2]
    xp = np.pad(x64, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros_like(x64)
    for i in range(3):
        for j in range(3):
            out += k[:, i, j][:, None, None] * xp[:, i:i + rows, j:j + cols]
    return out


def _filter_ref(x, w):
    xf = np.fft.rfft2(x.astype(np.float64, copy=False), axes=(1, 2))
    return xf, np.fft.irfft2(xf * w, s=x.shape[1:], axes=(1, 2))


def _gate_ref(z, params):
    z64 = z.astype(np.float64, copy=False)
    zhat = z64 - z64.mean(axis=0)
    inv = 1.0 / np.sqrt((zhat * zhat).mean(axis=0) + LN_EPS)
    zhat *= inv
    nrm = params.ln_gamma[:, None, None] * zhat + params.ln_beta[:, None, None]
    sig_n = _sigmoid_ref(nrm)
    carrier = nrm * sig_n
    gate = _sigmoid_ref(np.einsum("ij,jrc->irc", params.gate_weight, z64)
                        + params.gate_bias[:, None, None])
    return carrier * gate, (zhat, inv, nrm, sig_n, carrier, gate)


def _forward_ref(a, params):
    dt = a.dtype
    x_local = _conv_ref(a, params.dw_kernel).astype(dt, copy=False)
    xf, z = _filter_ref(x_local, params.spectral_weight)
    del x_local
    g, tape = _gate_ref(z.astype(dt, copy=False), params)
    return a + g.astype(dt, copy=False), (xf, *tape)


def _gate_backward_ref(tape, params, dout):
    zhat, inv, nrm, sig_n, carrier, gate = tape
    d_carrier = dout * gate
    dq = dout * carrier * gate * (1.0 - gate)
    dz_gate = np.einsum("ij,irc->jrc", params.gate_weight, dq)
    dn = d_carrier * sig_n * (1.0 + nrm * (1.0 - sig_n))
    dzhat = dn * params.ln_gamma[:, None, None]
    m1 = dzhat.mean(axis=0)
    m2 = (dzhat * zhat).mean(axis=0)
    return inv * (dzhat - m1 - zhat * m2) + dz_gate


def _grad_ref(a, params, u):
    rows, cols = a.shape[1], a.shape[2]
    xf, *tape = _forward_ref(a.astype(np.float64, copy=False), params)[1]
    u_z = _gate_backward_ref(tape, params, u)
    col_w = half_spectrum_weights(cols)[None, None, :]
    g_s = np.fft.rfft2(u_z, axes=(1, 2)) * (col_w / (rows * cols))
    return g_s * np.conj(xf)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# 3x224x260 is the benchmark's window; the complex products of the gradient
# are 1.4 MB there and a few hundred bytes on the odd shapes, on either side
# of the size above which NumPy computes `a * f(b)` in f(b)'s buffer, as
# f(b) * a, which rounds the imaginary part differently. The gate runs in
# blocks of 32 rows on 3 x rows x 260, so 224 rows are 7 whole blocks and 33
# rows one block and one row; the small shapes are one partial block
@pytest.mark.parametrize("shape", [(3, 224, 260), (1, 5, 7), (2, 9, 4),
                                   (2, 37, 5), (3, 33, 8), (1, 1, 3), (3, 33, 260)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_chain_is_bit_identical_to_the_out_of_place_expressions(shape, dtype):
    rng = np.random.default_rng(26)
    x = np.abs(rng.standard_normal(shape)).astype(dtype)
    u = rng.standard_normal(shape)
    p = GsgParams.random(*shape, seed=6)
    x_local = _conv_ref(x, p.dw_kernel).astype(dtype, copy=False)
    z = _filter_ref(x_local, p.spectral_weight)[1].astype(dtype, copy=False)
    assert _same_bits(depthwise_conv3x3(x, p.dw_kernel), x_local)
    assert _same_bits(spectral_filter(x_local, p.spectral_weight), z)
    assert _same_bits(gated_reconstruction(z, p), _gate_ref(z, p)[0].astype(dtype, copy=False))
    assert _same_bits(gsg_forward(x, p), _forward_ref(x, p)[0])
    loss = float((_forward_ref(x.astype(np.float64, copy=False), p)[0] * u).sum())
    assert _same_bits(gsg_loss(x, p, u), loss)
    assert _same_bits(grad_spectral_weight(x, p, u), _grad_ref(x, p, u))


def test_the_gate_runs_in_blocks_of_whole_rows():
    # 3x33x260, in the test above, is one block and a last block of one row
    rows = range(33)
    assert [rows[b] for b in gsg._row_blocks((3, 33, 260))] == [rows[:32], rows[32:]]
    assert [rows[b] for b in gsg._row_blocks((2, 33, 5))] == [rows]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_entries_leave_their_arrays_alone_and_return_fresh_ones(dtype):
    """The chain works in place on its own temporaries only: for f64 input
    `astype(copy=False)` hands it the caller's array itself."""
    rng = np.random.default_rng(27)
    x = rng.standard_normal((2, 6, 5)).astype(dtype)
    u = rng.standard_normal((2, 6, 5))
    p = GsgParams.random(2, 6, 5, seed=7)
    given = [x, u, *(getattr(p, name) for name in _FIELDS)]
    before = [a.tobytes() for a in given]
    outs = [depthwise_conv3x3(x, p.dw_kernel), spectral_filter(x, p.spectral_weight),
            gated_reconstruction(x, p), gsg_forward(x, p), grad_spectral_weight(x, p, u)]
    gsg_loss(x, p, u)
    finite_difference_oracle(x, p, u, 9)
    check_spectral_weight_gradients(x, p, u)
    assert [a.tobytes() for a in given] == before
    for out in outs:
        assert not any(np.shares_memory(out, a) for a in given)


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# one full-size float64 or complex array of the 3x224x260 window is 1.4 MB


def test_gradient_peak_on_the_benchmark_window():
    # 19.6 MB out of place, 12.6 MB in place on a whole-tensor tape; 5.7 MB
    # with the gate in row blocks and dL/dz written back into z
    rng = np.random.default_rng(28)
    x = rng.standard_normal((3, 224, 260))
    u = rng.standard_normal((3, 224, 260))
    p = GsgParams.random(3, 224, 260, seed=8)
    assert _peak(lambda: grad_spectral_weight(x, p, u)) < 6_500_000


def test_f32_forward_peak_on_the_benchmark_window():
    # 15.2 MB out of place, 12.4 MB in place, 11.0 MB with the output
    # formed in the carrier; 4.9 MB with the gate in row blocks writing into z
    x = np.random.default_rng(29).standard_normal((3, 224, 260)).astype(np.float32)
    p = GsgParams.random(3, 224, 260, seed=9)
    assert _peak(lambda: gsg_forward(x, p)) < 5_700_000


def test_f64_forward_peak_on_the_benchmark_window():
    # 11.66 MB with the block output a fresh carrier * gate; formed in the
    # carrier's buffer, 10.26 MB; 5.6 MB with the gate in row blocks writing
    # into z, the peak now x_local, rfft2(x_local), its product and z
    x = np.random.default_rng(30).standard_normal((3, 224, 260))
    p = GsgParams.random(3, 224, 260, seed=8)
    assert _peak(lambda: gsg_forward(x, p)) < 6_500_000


def test_f64_gate_peak_on_the_benchmark_window():
    # 8.85 MB with the output a fresh carrier * gate, 7.46 MB in the carrier;
    # 2.9 MB in row blocks: the output and one block's tape
    z = np.random.default_rng(31).standard_normal((3, 224, 260))
    p = GsgParams.random(3, 224, 260, seed=8)
    assert _peak(lambda: gated_reconstruction(z, p)) < 3_300_000
