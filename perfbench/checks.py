"""Correctness checks of the benchmark, and the independent references they use.

Each ``check_*`` function takes outputs of the program (and, where needed, a
reference computed here) and raises ``CheckFailed`` when a property of the
method does not hold. The references are written without the program's own
kernels: direct summation over kernel taps for the network, the closed-form
probability-flow map of a Gaussian for the bridge, and a search over all
permutations for the assignment.
"""

from __future__ import annotations

import itertools

import numpy as np


class CheckFailed(Exception):
    """A benchmark output contradicts a property of the method."""


def relative_error(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    scale = np.linalg.norm(want)
    return float(np.linalg.norm(got - want) / (scale if scale > 0 else 1.0))


def check_close(what: str, got, want, rtol: float) -> None:
    """Relative Frobenius error of ``got`` against ``want`` at most ``rtol``."""
    err = relative_error(got, want)
    if not err <= rtol:
        raise CheckFailed(f"{what}: relative error {err:.3g} exceeds {rtol:g}")


def check_same(what: str, values) -> None:
    """Every round produced the same output as the first (the program is deterministic)."""
    first = values[0]
    for k, v in enumerate(values[1:], start=1):
        if not np.array_equal(np.asarray(v), np.asarray(first)):
            raise CheckFailed(f"{what}: round {k} differs from round 0")


# ---------------------------------------------------------------------------
# training


def finite_difference_gradients(loss_fn, params: dict, coords, eps: float = 1e-6):
    """Central differences of ``loss_fn()`` at the given (tensor, index) coordinates.

    ``params`` is perturbed in place and restored.
    """
    out = []
    for key, idx in coords:
        p = params[key]
        old = p[idx]
        p[idx] = old + eps
        up = loss_fn()
        p[idx] = old - eps
        down = loss_fn()
        p[idx] = old
        out.append((up - down) / (2.0 * eps))
    return np.array(out)


def check_couplings(results, batch_size: int) -> None:
    """Every permutation is one, and every optimal cost is at most the identity cost."""
    if not results:
        raise CheckFailed("no OT coupling was recorded")
    want = np.arange(batch_size)
    for n, r in enumerate(results):
        perms = np.asarray(r.permutations)
        if perms.shape[1] != batch_size or not np.all(np.sort(perms, axis=1) == want):
            raise CheckFailed(f"coupling {n}: a row is not a permutation of {batch_size}")
        costs = np.asarray(r.costs)
        ident = np.asarray(r.identity_costs)
        if not np.all(costs <= ident + 1e-9 * np.abs(ident)):
            raise CheckFailed(f"coupling {n}: optimal cost above the identity cost")


def brute_force_assignment_cost(data: np.ndarray, noise: np.ndarray) -> float:
    """Least total squared distance over all pairings of ``data`` with ``noise`` rows."""
    d = data.reshape(len(data), -1)
    e = noise.reshape(len(noise), -1)
    cost = ((d[:, None, :] - e[None, :, :]) ** 2).sum(axis=2)
    rows = np.arange(len(d))
    return min(float(cost[rows, list(p)].sum()) for p in itertools.permutations(rows))


def check_assignment_optimal(ot_cost: float, brute_cost: float) -> None:
    if not abs(ot_cost - brute_cost) <= 1e-9 * max(1.0, abs(brute_cost)):
        raise CheckFailed(
            f"ot_pair cost {ot_cost!r} differs from the exhaustive optimum {brute_cost!r}"
        )


def check_loss_decreases(curve) -> None:
    """Mean loss over the last tenth of a run is below the mean over the first tenth."""
    curve = np.asarray(curve, dtype=np.float64)
    n = max(1, len(curve) // 10)
    first, last = curve[:n].mean(), curve[-n:].mean()
    if not (np.isfinite(last) and last < first):
        raise CheckFailed(f"loss did not fall: first tenth {first:.4g}, last {last:.4g}")


# ---------------------------------------------------------------------------
# network and bridge


def _silu(z):
    with np.errstate(over="ignore"):
        return z / (1.0 + np.exp(-z))


def reference_forward(params: dict, x: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """The denoiser network as direct sums over input channels and kernel taps.

    Same architecture as ``network.forward``: two pool-by-2 levels with one
    additive skip each, a noise-feature bias on every stage but the last, and
    the time axis zero-padded to a multiple of 4 and cropped on output.
    """
    b, _, t_in = x.shape
    t = t_in + (-t_in) % 4
    h = np.zeros((b, x.shape[1], t))
    h[:, :, :t_in] = x

    def conv(h, name, biased=True):
        w = params[f"{name}.w"]
        cout, cin, k = w.shape
        pad, n = k // 2, h.shape[2]
        hp = np.zeros((b, cin, n + 2 * pad))
        hp[:, :, pad : pad + n] = h
        y = np.broadcast_to(params[f"{name}.b"][None, :, None], (b, cout, n)).copy()
        for ci in range(cin):
            for j in range(k):
                y += w[None, :, ci, j, None] * hp[:, None, ci, j : j + n]
        if biased:
            y += (feats @ params[f"{name}.nw"].T)[:, :, None]
        return y

    def pool(h):
        return 0.5 * (h[:, :, 0::2] + h[:, :, 1::2])

    def up(h):
        return np.repeat(h, 2, axis=2)

    s1 = _silu(conv(h, "enc1"))
    s2 = _silu(conv(pool(s1), "enc2"))
    m = _silu(conv(pool(s2), "mid"))
    d2 = _silu(conv(up(m) + s2, "dec2"))
    return conv(up(d2) + s1, "out", biased=False)[:, :, :t_in]


def gaussian_flow_transfer(x, src_mean, src_var, tgt_mean, tgt_var, sigma_lo, sigma_top):
    """Closed-form dual-bridge transfer between two diagonal Gaussians.

    The probability-flow ODE of N(mu, v) smoothed to noise level sigma keeps
    x - mu proportional to sqrt(v + sigma^2), so the forward solve scales it by
    sqrt((v_s + top^2) / (v_s + lo^2)) and the reverse solve by
    sqrt((v_t + lo^2) / (v_t + top^2)).
    """
    latent = src_mean + (x - src_mean) * np.sqrt(
        (src_var + sigma_top**2) / (src_var + sigma_lo**2)
    )
    return tgt_mean + (latent - tgt_mean) * np.sqrt(
        (tgt_var + sigma_lo**2) / (tgt_var + sigma_top**2)
    )


def check_sweep_rows(rows, recomputed) -> None:
    """The sweep's metric rows equal the same metrics computed level by level."""
    if len(rows) != len(recomputed):
        raise CheckFailed(f"sweep has {len(rows)} rows, expected {len(recomputed)}")
    for row, want in zip(rows, recomputed):
        got = (row.dpd, row.jaccard, row.frechet, row.accuracy)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9):
            raise CheckFailed(f"sweep row {row.setting}: {got} vs recomputed {want}")


# ---------------------------------------------------------------------------
# corpus and metrics


def check_oracle_below_unrelated(oracle_dpd, unrelated_dpd) -> None:
    """The same melody in another instrument is closer in pitch than another melody."""
    a, b = float(np.median(oracle_dpd)), float(np.median(unrelated_dpd))
    if not a < b:
        raise CheckFailed(f"median oracle DPD {a:.4g} not below unrelated {b:.4g}")


def check_dpd_axioms(self_distances, forward, backward) -> None:
    """dpd(p, p) = 0 and dpd(p, q) = dpd(q, p)."""
    if not np.all(np.asarray(self_distances) == 0.0):
        raise CheckFailed(f"dpd(p, p) not zero: {self_distances}")
    if not np.allclose(forward, backward, rtol=1e-12, atol=1e-15):
        raise CheckFailed("dpd is not symmetric")


def check_dpd_brute_force(fast, brute) -> None:
    if not np.allclose(fast, brute, rtol=1e-12, atol=1e-15):
        raise CheckFailed(f"dpd {fast} differs from exhaustive path search {brute}")


def check_columns_sum_to_one(mats) -> None:
    for k, m in enumerate(mats):
        if not np.allclose(np.sum(m, axis=0), 1.0, rtol=0.0, atol=1e-12):
            raise CheckFailed(f"pitch-class matrix {k}: a column does not sum to 1")


def check_clip_round_trip(written, read) -> None:
    """Clips read back equal the float32 values of the clips written."""
    if len(written) != len(read):
        raise CheckFailed(f"{len(written)} clips written, {len(read)} read back")
    for k, (a, b) in enumerate(zip(written, read)):
        want = np.asarray(a, dtype=np.float32).astype(np.float64)
        if not np.array_equal(np.asarray(b), want):
            raise CheckFailed(f"clip {k} changed in a save/load round trip")
