import numpy as np
import pytest

from timbrebridge import network
from timbrebridge.denoiser import load_denoiser, new_denoiser, save_denoiser
from timbrebridge.errors import DataError, DomainError
from timbrebridge.featurecodec import NormalizationStats
from timbrebridge.schedule import ScheduleParams, precond


@pytest.fixture()
def model(tiny_arch):
    return new_denoiser(tiny_arch, ScheduleParams(), seed=11)


def test_zero_network_collapses_to_skip(model, tiny_arch):
    model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
    model.ema_params = {k: np.zeros_like(v) for k, v in model.params.items()}
    x = np.random.default_rng(0).standard_normal((2, 2, 8))
    assert model.denoise(x, 1.0) == pytest.approx(0.5 * x)


def test_consistency_with_raw_network(model):
    """denoise(x) - c_skip*x == c_out * F(c_in*x, embed(c_noise)) elementwise."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 2, 8))
    for sigma in (0.05, 1.0, 30.0):
        c = precond(sigma, model.schedule.sigma_data)
        feats = network.noise_embedding(
            np.full(3, c.c_noise), model.arch.noise_features
        )
        raw = model.network_apply(c.c_in * x, feats)
        lhs = model.denoise(x, sigma) - c.c_skip * x
        assert lhs == pytest.approx(c.c_out * raw, rel=1e-6, abs=1e-12)


def test_per_sample_sigma_vector(model):
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 2, 8))
    sig = np.array([0.5, 2.0])
    batch = model.denoise(x, sig)
    for j in range(2):
        single = model.denoise(x[j], float(sig[j]))
        assert batch[j] == pytest.approx(single)


def test_denoise_rejects_bad_input(model):
    with pytest.raises(DomainError):
        model.denoise(np.zeros((1, 2, 8)), 0.0)
    bad = np.zeros((1, 2, 8))
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        model.denoise(bad, 1.0)


def test_checkpoint_roundtrip(tmp_path, model):
    model.stats = NormalizationStats(np.arange(2) + 1.0, np.ones(2))
    path = tmp_path / "model.tbc"
    save_denoiser(path, model)
    loaded = load_denoiser(path)
    assert loaded.arch == model.arch
    assert loaded.schedule == model.schedule
    for key in model.params:
        assert np.array_equal(
            loaded.params[key], model.params[key].astype(np.float32).astype(np.float64)
        )
    assert loaded.stats.mean == pytest.approx(model.stats.mean)
    assert (tmp_path / "model.tbc.json").exists()


def test_ema_selection_flag(tiny_arch):
    model = new_denoiser(tiny_arch, ScheduleParams(), seed=4)
    rng = np.random.default_rng(5)
    for key in model.ema_params:
        model.ema_params[key] = model.ema_params[key] + 0.1
    x = rng.standard_normal((1, 2, 8))
    with_ema = model.denoise(x, 1.0)
    model.use_ema = False
    without = model.denoise(x, 1.0)
    assert not np.allclose(with_ema, without)
