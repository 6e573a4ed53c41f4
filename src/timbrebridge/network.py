"""A small 1-D convolutional encoder-decoder with hand-written backprop.

Layout: two downsample-by-2 levels with one additive skip connection each,
channel widths w1 -> w2 -> w2 -> w1 around the bottleneck, kernel width k,
x*sigmoid(x) nonlinearity, and a linear output convolution. The scalar noise
conditioning value is expanded into sinusoidal features and mapped by a
learned linear layer to a per-channel bias at every convolution stage.

Everything is plain float64 numpy so that analytic gradients can be checked
against central finite differences tensor by tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor stored verbatim in checkpoints."""

    channels: int = 32
    width1: int = 32
    width2: int = 64
    kernel: int = 5
    noise_features: int = 16

    def __post_init__(self):
        if self.kernel % 2 != 1:
            raise ContractViolation(f"kernel width must be odd, got {self.kernel}")
        if self.noise_features % 2 != 0:
            raise ContractViolation("noise_features must be even (sin/cos pairs)")


# (name, in_channels, out_channels) per conv stage; resolved against an ArchSpec.
def _conv_specs(a: ArchSpec):
    return [
        ("enc1", a.channels, a.width1),
        ("enc2", a.width1, a.width2),
        ("mid", a.width2, a.width2),
        ("dec2", a.width2, a.width1),
        ("out", a.width1, a.channels),
    ]


# stages that receive a noise bias (the linear output stage does not)
_BIASED = ("enc1", "enc2", "mid", "dec2")


def noise_embedding(c_noise: np.ndarray | float, n_features: int) -> np.ndarray:
    """Sinusoidal features of the scalar conditioning value.

    Frequencies are geometrically spaced so the features resolve the full
    ln(sigma)/4 range of the default schedule.
    """
    u = np.atleast_1d(np.asarray(c_noise, dtype=np.float64))
    half = n_features // 2
    freqs = np.geomspace(1.0, 50.0, half)
    ang = u[:, None] * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)  # (B, F)


def init_params(arch: ArchSpec, rng: np.random.Generator) -> Params:
    """Uniform +-1/sqrt(fan_in) initialization for every layer."""
    params: Params = {}
    for name, cin, cout in _conv_specs(arch):
        bound = 1.0 / np.sqrt(cin * arch.kernel)
        params[f"{name}.w"] = rng.uniform(-bound, bound, size=(cout, cin, arch.kernel))
        params[f"{name}.b"] = rng.uniform(-bound, bound, size=cout)
    spec = {name: cout for name, _, cout in _conv_specs(arch)}
    for name in _BIASED:
        bound = 1.0 / np.sqrt(arch.noise_features)
        params[f"{name}.nw"] = rng.uniform(
            -bound, bound, size=(spec[name], arch.noise_features)
        )
    return params


def n_params(params: Params) -> int:
    return int(sum(v.size for v in params.values()))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _silu(x):
    return x * _sigmoid(x)


def _silu_grad(x):
    s = _sigmoid(x)
    return s * (1.0 + x * (1.0 - s))


def _im2col(x: np.ndarray, k: int) -> np.ndarray:
    """(B, C, T) -> (B, C, k, T) with zero same-padding."""
    b, c, t = x.shape
    pad = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    cols = np.empty((b, c, k, t), dtype=x.dtype)
    for j in range(k):
        cols[:, :, j, :] = xp[:, :, j : j + t]
    return cols


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    cols = _im2col(x, w.shape[2])
    y = np.einsum("ock,bckt->bot", w, cols, optimize=True) + b[None, :, None]
    return y, cols


def _conv_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray):
    dw = np.einsum("bot,bckt->ock", dy, cols, optimize=True)
    db = dy.sum(axis=(0, 2))
    dcols = np.einsum("ock,bot->bckt", w, dy, optimize=True)
    b, c, k, t = dcols.shape
    pad = k // 2
    dxp = np.zeros((b, c, t + 2 * pad), dtype=dy.dtype)
    for j in range(k):
        dxp[:, :, j : j + t] += dcols[:, :, j, :]
    return dxp[:, :, pad : pad + t], dw, db


def _pool2(x):
    b, c, t = x.shape
    return x.reshape(b, c, t // 2, 2).mean(axis=3)


def _pool2_back(dy):
    return np.repeat(dy, 2, axis=2) * 0.5


def _up2(x):
    return np.repeat(x, 2, axis=2)


def _up2_back(dy):
    b, c, t = dy.shape
    return dy.reshape(b, c, t // 2, 2).sum(axis=3)


def forward(
    params: Params, arch: ArchSpec, x: np.ndarray, feats: np.ndarray, want_cache=False
):
    """Forward pass of the raw network F.

    x: (B, C, T) pre-scaled input; feats: (B, F) noise embedding. The time
    axis is zero-padded to a multiple of 4 internally and cropped on output.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] != arch.channels:
        raise ContractViolation(
            f"expected (B, {arch.channels}, T) input, got {x.shape}"
        )
    b, _, t_in = x.shape
    feats = np.asarray(feats, dtype=np.float64)
    if feats.shape != (b, arch.noise_features):
        raise ContractViolation(
            f"expected ({b}, {arch.noise_features}) noise features, got {feats.shape}"
        )
    t_pad = (-t_in) % 4
    if t_pad:
        x = np.pad(x, ((0, 0), (0, 0), (0, t_pad)))

    bias = {n: feats @ params[f"{n}.nw"].T for n in _BIASED}  # (B, width)
    cache: dict = {"t_in": t_in, "feats": feats}

    pre1, cache["cols1"] = _conv_forward(x, params["enc1.w"], params["enc1.b"])
    pre1 += bias["enc1"][:, :, None]
    s1 = _silu(pre1)
    p1 = _pool2(s1)

    pre2, cache["cols2"] = _conv_forward(p1, params["enc2.w"], params["enc2.b"])
    pre2 += bias["enc2"][:, :, None]
    s2 = _silu(pre2)
    p2 = _pool2(s2)

    pre3, cache["cols3"] = _conv_forward(p2, params["mid.w"], params["mid.b"])
    pre3 += bias["mid"][:, :, None]
    m = _silu(pre3)

    u2 = _up2(m) + s2
    pre4, cache["cols4"] = _conv_forward(u2, params["dec2.w"], params["dec2.b"])
    pre4 += bias["dec2"][:, :, None]
    d2 = _silu(pre4)

    u1 = _up2(d2) + s1
    y, cache["cols5"] = _conv_forward(u1, params["out.w"], params["out.b"])
    y = y[:, :, :t_in]

    if not want_cache:
        return y
    cache.update(pre1=pre1, pre2=pre2, pre3=pre3, pre4=pre4)
    return y, cache


def backward(params: Params, arch: ArchSpec, cache: dict, dy: np.ndarray) -> Params:
    """Gradients of a scalar loss w.r.t. every parameter, given dL/dy."""
    t_in = cache["t_in"]
    t_pad = (-t_in) % 4
    dy = np.asarray(dy, dtype=np.float64)
    if t_pad:
        dy = np.pad(dy, ((0, 0), (0, 0), (0, t_pad)))
    grads: Params = {}

    du1, grads["out.w"], grads["out.b"] = _conv_backward(
        dy, cache["cols5"], params["out.w"]
    )
    ds1 = du1  # skip branch at full resolution
    dd2 = _up2_back(du1)

    dpre4 = dd2 * _silu_grad(cache["pre4"])
    grads["dec2.nw"] = np.einsum("bct,bf->cf", dpre4, cache["feats"], optimize=True)
    du2, grads["dec2.w"], grads["dec2.b"] = _conv_backward(
        dpre4, cache["cols4"], params["dec2.w"]
    )
    ds2 = du2  # skip branch at half resolution
    dm = _up2_back(du2)

    dpre3 = dm * _silu_grad(cache["pre3"])
    grads["mid.nw"] = np.einsum("bct,bf->cf", dpre3, cache["feats"], optimize=True)
    dp2, grads["mid.w"], grads["mid.b"] = _conv_backward(
        dpre3, cache["cols3"], params["mid.w"]
    )

    ds2 = ds2 + _pool2_back(dp2)
    dpre2 = ds2 * _silu_grad(cache["pre2"])
    grads["enc2.nw"] = np.einsum("bct,bf->cf", dpre2, cache["feats"], optimize=True)
    dp1, grads["enc2.w"], grads["enc2.b"] = _conv_backward(
        dpre2, cache["cols2"], params["enc2.w"]
    )

    ds1 = ds1 + _pool2_back(dp1)
    dpre1 = ds1 * _silu_grad(cache["pre1"])
    grads["enc1.nw"] = np.einsum("bct,bf->cf", dpre1, cache["feats"], optimize=True)
    _, grads["enc1.w"], grads["enc1.b"] = _conv_backward(
        dpre1, cache["cols1"], params["enc1.w"]
    )
    return grads
