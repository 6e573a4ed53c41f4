import numpy as np
import pytest

from timbrebridge import network
from timbrebridge.errors import ContractViolation


def finite_difference_check(params, arch, x, feats, step=1e-6, max_entries=None):
    """Central-difference gradient of sum(y * w) for every parameter entry."""
    rng = np.random.default_rng(99)
    y, cache = network.forward(params, arch, x, feats, want_cache=True)
    w = rng.standard_normal(y.shape)
    grads = network.backward(params, arch, cache, w)

    def loss(p):
        return float(np.sum(network.forward(p, arch, x, feats) * w))

    worst = 0.0
    for key, arr in params.items():
        flat = arr.reshape(-1)
        idxs = range(flat.size) if max_entries is None else range(min(flat.size, max_entries))
        for i in idxs:
            saved = flat[i]
            flat[i] = saved + step
            up = loss(params)
            flat[i] = saved - step
            down = loss(params)
            flat[i] = saved
            fd = (up - down) / (2 * step)
            g = grads[key].reshape(-1)[i]
            rel = abs(fd - g) / max(abs(fd), abs(g), 1e-10)
            worst = max(worst, rel)
    return worst


def test_tiny_arch_is_small(tiny_arch):
    rng = np.random.default_rng(0)
    params = network.init_params(tiny_arch, rng)
    assert network.n_params(params) <= 200


def test_gradients_match_finite_differences(tiny_arch):
    rng = np.random.default_rng(1)
    params = network.init_params(tiny_arch, rng)
    x = rng.standard_normal((3, 2, 8))
    feats = network.noise_embedding(rng.standard_normal(3), tiny_arch.noise_features)
    worst = finite_difference_check(params, tiny_arch, x, feats)
    assert worst < 1e-4


def test_gradients_with_odd_time_padding(tiny_arch):
    rng = np.random.default_rng(2)
    params = network.init_params(tiny_arch, rng)
    x = rng.standard_normal((2, 2, 7))
    feats = network.noise_embedding(np.zeros(2), tiny_arch.noise_features)
    worst = finite_difference_check(params, tiny_arch, x, feats, max_entries=6)
    assert worst < 1e-4


def test_zero_weights_zero_output(tiny_arch):
    shapes = network.init_params(tiny_arch, np.random.default_rng(0))
    params = {k: np.zeros_like(v) for k, v in shapes.items()}
    x = np.random.default_rng(3).standard_normal((2, 2, 8))
    feats = network.noise_embedding(np.zeros(2), tiny_arch.noise_features)
    assert np.all(network.forward(params, tiny_arch, x, feats) == 0.0)


def test_forward_deterministic(tiny_arch):
    rng = np.random.default_rng(4)
    params = network.init_params(tiny_arch, rng)
    x = rng.standard_normal((1, 2, 8))
    feats = network.noise_embedding(np.array([0.3]), tiny_arch.noise_features)
    a = network.forward(params, tiny_arch, x, feats)
    b = network.forward(params, tiny_arch, x, feats)
    assert np.array_equal(a, b)


def test_output_layer_is_linear_in_its_weights(tiny_arch):
    """y(w), y(2w), y(3w) along one output-weight coordinate are collinear."""
    rng = np.random.default_rng(5)
    params = network.init_params(tiny_arch, rng)
    x = rng.standard_normal((1, 2, 8))
    feats = network.noise_embedding(np.array([0.1]), tiny_arch.noise_features)
    base = params["out.w"][0, 0, 0]
    outs = []
    for mult in (1.0, 2.0, 3.0):
        params["out.w"][0, 0, 0] = base * mult
        outs.append(network.forward(params, tiny_arch, x, feats))
    params["out.w"][0, 0, 0] = base
    assert outs[2] - outs[1] == pytest.approx(outs[1] - outs[0], abs=1e-12)


def test_shape_contracts(tiny_arch):
    rng = np.random.default_rng(6)
    params = network.init_params(tiny_arch, rng)
    with pytest.raises(ContractViolation):
        network.forward(params, tiny_arch, rng.standard_normal((2, 3, 8)),
                        network.noise_embedding(np.zeros(2), 4))
    with pytest.raises(ContractViolation):
        network.forward(params, tiny_arch, rng.standard_normal((2, 2, 8)),
                        np.zeros((2, 6)))


def test_init_deterministic_per_seed(tiny_arch):
    a = network.init_params(tiny_arch, np.random.default_rng(7))
    b = network.init_params(tiny_arch, np.random.default_rng(7))
    assert all(np.array_equal(a[k], b[k]) for k in a)
