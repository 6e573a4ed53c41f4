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
    """1/(1+exp(-x)) where x >= 0 and exp(x)/(1+exp(x)) elsewhere, so no exp
    overflows; computed in place on e = exp(-|x|)."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = 1.0 + e
    np.maximum(e, x >= 0, out=e)  # numerator: 1 where x >= 0 (as e <= 1), else e
    return np.divide(e, denom, out=e)


def _silu_grad(x, s):
    """d/dx x*sigmoid(x), given s = sigmoid(x)."""
    return s * (1.0 + x * (1.0 - s))


# Forward passes that keep no backward cache gather their columns into this
# one buffer, grown as needed: a fresh multi-megabyte array per conv stage
# costs more in page faults than the gather that fills it.
_cols_scratch = np.empty(0)


def _im2col(x: np.ndarray, k: int, reuse: bool = False) -> np.ndarray:
    """(B, C, T) -> (B, T, C, k) with zero same-padding.

    Reshaped to (B*T, C*k), row (b, t) holds the kernel window around time t:
    the operand the conv matmuls read, with no further copy. With ``reuse``
    the result lives in the shared scratch buffer, valid until the next call.
    """
    global _cols_scratch
    b, c, t = x.shape
    pad = k // 2
    xp = np.pad(x.transpose(0, 2, 1), ((0, 0), (pad, pad), (0, 0))).reshape(b, -1)
    # cols[b, t, c, j] = xp[b, t + j, c], gathered along the flattened (time, channel) axis
    window = np.arange(t)[:, None, None] * c + np.arange(c)[:, None] + np.arange(k) * c
    out = None
    if reuse:
        if _cols_scratch.size < window.size * b:
            _cols_scratch = np.empty(window.size * b)
        out = _cols_scratch[: window.size * b].reshape(b, -1)
    cols = np.take(xp, window.ravel(), axis=1, mode="clip", out=out)
    return cols.reshape(b, t, c, k)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray, reuse: bool = False):
    cols = _im2col(x, w.shape[2], reuse)
    bsz, t, c, k = cols.shape
    o = w.shape[0]
    y = cols.reshape(bsz * t, c * k) @ w.reshape(o, c * k).T
    return y.reshape(bsz, t, o).transpose(0, 2, 1) + b[None, :, None], cols


def _conv_backward(dy: np.ndarray, cols: np.ndarray, w: np.ndarray):
    bsz, t, c, k = cols.shape
    o = w.shape[0]
    cols_t = cols.reshape(bsz * t, c * k).T
    dy_t = dy.transpose(1, 0, 2).reshape(o, bsz * t)
    dw = (cols_t @ dy_t.T).reshape(c, k, o).transpose(2, 0, 1)
    db = dy.sum(axis=(0, 2))
    # (C, k, B, T): each shifted copy below reads whole time rows
    dcols = (w.reshape(o, c * k).T @ dy_t).reshape(c, k, bsz, t)
    pad = k // 2
    dxp = np.zeros((bsz, c, t + 2 * pad), dtype=dy.dtype)
    for j in range(k):
        dxp[:, :, j : j + t] += dcols[:, j].transpose(1, 0, 2)
    return dxp[:, :, pad : pad + t], dw, db


def _pool2(x):
    return (x[:, :, 0::2] + x[:, :, 1::2]) / 2.0


def _pool2_back(dy):
    return np.repeat(dy, 2, axis=2) * 0.5


def _up2(x):
    return np.repeat(x, 2, axis=2)


def _up2_back(dy):
    return dy[:, :, 0::2] + dy[:, :, 1::2]


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
    reuse = not want_cache  # no backward pass will read the columns
    cache: dict = {"t_in": t_in, "feats": feats}

    pre1, cache["cols1"] = _conv_forward(x, params["enc1.w"], params["enc1.b"], reuse)
    pre1 += bias["enc1"][:, :, None]
    sig1 = _sigmoid(pre1)
    s1 = pre1 * sig1  # SiLU
    p1 = _pool2(s1)

    pre2, cache["cols2"] = _conv_forward(p1, params["enc2.w"], params["enc2.b"], reuse)
    pre2 += bias["enc2"][:, :, None]
    sig2 = _sigmoid(pre2)
    s2 = pre2 * sig2  # SiLU
    p2 = _pool2(s2)

    pre3, cache["cols3"] = _conv_forward(p2, params["mid.w"], params["mid.b"], reuse)
    pre3 += bias["mid"][:, :, None]
    sig3 = _sigmoid(pre3)
    m = pre3 * sig3  # SiLU

    u2 = _up2(m) + s2
    pre4, cache["cols4"] = _conv_forward(u2, params["dec2.w"], params["dec2.b"], reuse)
    pre4 += bias["dec2"][:, :, None]
    sig4 = _sigmoid(pre4)
    d2 = pre4 * sig4  # SiLU

    u1 = _up2(d2) + s1
    y, cache["cols5"] = _conv_forward(u1, params["out.w"], params["out.b"], reuse)
    y = y[:, :, :t_in]

    if not want_cache:
        return y
    cache.update(pre1=pre1, pre2=pre2, pre3=pre3, pre4=pre4)
    cache.update(sig1=sig1, sig2=sig2, sig3=sig3, sig4=sig4)
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

    dpre4 = dd2 * _silu_grad(cache["pre4"], cache["sig4"])
    grads["dec2.nw"] = np.einsum("bct,bf->cf", dpre4, cache["feats"], optimize=True)
    du2, grads["dec2.w"], grads["dec2.b"] = _conv_backward(
        dpre4, cache["cols4"], params["dec2.w"]
    )
    ds2 = du2  # skip branch at half resolution
    dm = _up2_back(du2)

    dpre3 = dm * _silu_grad(cache["pre3"], cache["sig3"])
    grads["mid.nw"] = np.einsum("bct,bf->cf", dpre3, cache["feats"], optimize=True)
    dp2, grads["mid.w"], grads["mid.b"] = _conv_backward(
        dpre3, cache["cols3"], params["mid.w"]
    )

    ds2 = ds2 + _pool2_back(dp2)
    dpre2 = ds2 * _silu_grad(cache["pre2"], cache["sig2"])
    grads["enc2.nw"] = np.einsum("bct,bf->cf", dpre2, cache["feats"], optimize=True)
    dp1, grads["enc2.w"], grads["enc2.b"] = _conv_backward(
        dpre2, cache["cols2"], params["enc2.w"]
    )

    ds1 = ds1 + _pool2_back(dp1)
    dpre1 = ds1 * _silu_grad(cache["pre1"], cache["sig1"])
    grads["enc1.nw"] = np.einsum("bct,bf->cf", dpre1, cache["feats"], optimize=True)
    _, grads["enc1.w"], grads["enc1.b"] = _conv_backward(
        dpre1, cache["cols1"], params["enc1.w"]
    )
    return grads
