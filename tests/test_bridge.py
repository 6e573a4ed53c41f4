import numpy as np
import pytest

from timbrebridge.bridge import (
    BridgeConfig,
    cycle,
    draw_latents,
    forward_to_latent,
    sample_shared,
    transfer,
)
from timbrebridge.errors import ConfigurationError, ContractViolation, DataError
from timbrebridge.gmm import GaussianMixtureDenoiser, demo_pair_2d
from timbrebridge.schedule import ScheduleParams
from timbrebridge.studies import energy_distance, gmm_box, histogram_tv

SCHED = ScheduleParams(n_steps=100)


@pytest.fixture(scope="module")
def pair():
    src, tgt = demo_pair_2d()
    return (
        GaussianMixtureDenoiser(src, (2, 1), label="src"),
        GaussianMixtureDenoiser(tgt, (2, 1), label="tgt"),
        src,
        tgt,
    )


def test_zero_length_bridge_is_identity(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED, inference_top_sigma=SCHED.sigma_min)
    x = dsrc.sample_clips(5, np.random.default_rng(0))
    assert np.array_equal(transfer(x, cfg), x)
    assert np.array_equal(cycle(x, cfg), x)


def test_self_bridge_near_identity(pair):
    dsrc, *_ = pair
    cfg = BridgeConfig(dsrc, dsrc, SCHED)
    x = dsrc.sample_clips(100, np.random.default_rng(1))
    out = transfer(x, cfg)
    rel = np.linalg.norm((out - x).reshape(100, -1), axis=1) / np.linalg.norm(
        x.reshape(100, -1), axis=1
    )
    assert rel.mean() < 1e-2


def test_transfer_reaches_target_distribution(pair):
    dsrc, dtgt, src, tgt = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    rng = np.random.default_rng(2)
    x = dsrc.sample_clips(2000, rng)
    out = transfer(x, cfg).reshape(2000, -1)
    ref_tgt = tgt.sample(10_000, rng)
    ref_src = src.sample(10_000, rng)
    assert energy_distance(out, ref_tgt) < energy_distance(out, ref_src)
    assert histogram_tv(out, ref_tgt, gmm_box(tgt), bins=20) < 0.1


def test_shared_prior_property(pair):
    """transfer must literally be sample_shared(forward_to_latent(x))."""
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED, inference_top_sigma=20.0)
    x = dsrc.sample_clips(8, np.random.default_rng(3))
    via_parts = sample_shared(forward_to_latent(x, cfg), dtgt, cfg)
    assert np.array_equal(transfer(x, cfg), via_parts)


def test_sample_shared_deterministic(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    latent = draw_latents(4, (2, 1), cfg, np.random.default_rng(4))
    a = sample_shared(latent, dtgt, cfg)
    b = sample_shared(latent, dtgt, cfg)
    assert np.array_equal(a, b)


def test_sample_shared_zero_latent_anchor(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    out = sample_shared(np.zeros((1, 2, 1)), dtgt, cfg)
    again = sample_shared(np.zeros((1, 2, 1)), dtgt, cfg)
    assert np.array_equal(out, again)
    assert np.all(np.isfinite(out))


def test_sample_shared_rejects_bad_latent(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    with pytest.raises(ContractViolation):
        sample_shared(np.zeros((1, 3, 1)), dtgt, cfg)
    bad = np.zeros((1, 2, 1))
    bad[0, 0, 0] = np.inf
    with pytest.raises(DataError):
        sample_shared(bad, dtgt, cfg)


def test_cycle_reconstruction(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    x = dsrc.sample_clips(100, np.random.default_rng(5))
    out = cycle(x, cfg)
    rel = np.linalg.norm((out - x).reshape(100, -1), axis=1) / np.linalg.norm(
        x.reshape(100, -1), axis=1
    )
    assert np.all(rel < 2e-2)


def test_top_sigma_snapping(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED, inference_top_sigma=5.0)
    assert cfg.top_index() == 55
    assert cfg.top_sigma == pytest.approx(4.901, rel=1e-3)
    with pytest.raises(ConfigurationError):
        BridgeConfig(dsrc, dtgt, SCHED, inference_top_sigma=5.0, snap_top_sigma=False)
    # exact nodes pass even in strict mode
    strict = BridgeConfig(
        dsrc, dtgt, SCHED, inference_top_sigma=cfg.top_sigma, snap_top_sigma=False
    )
    assert strict.top_index() == 55


def test_top_sigma_out_of_range(pair):
    dsrc, dtgt, *_ = pair
    with pytest.raises(ConfigurationError):
        BridgeConfig(dsrc, dtgt, SCHED, inference_top_sigma=1000.0)


def test_incompatible_models_rejected(pair):
    dsrc, dtgt, *_ = pair
    other = GaussianMixtureDenoiser(demo_pair_2d()[0], (2, 1), sigma_data=2.0)
    with pytest.raises(ConfigurationError):
        BridgeConfig(dsrc, other, SCHED)

    from timbrebridge.gmm import standard_normal_mixture

    mismatched = GaussianMixtureDenoiser(standard_normal_mixture(3), (3, 1))
    with pytest.raises(ConfigurationError):
        BridgeConfig(dsrc, mismatched, SCHED)


def test_swapped_roles(pair):
    dsrc, dtgt, *_ = pair
    cfg = BridgeConfig(dsrc, dtgt, SCHED)
    swapped = cfg.swapped()
    assert swapped.source_model is dtgt and swapped.target_model is dsrc


def test_model_schedules_checked_against_bridge(tiny_arch):
    from timbrebridge.denoiser import new_denoiser

    full = new_denoiser(tiny_arch, SCHED)
    low = new_denoiser(tiny_arch, ScheduleParams(sigma_max=5.0))
    # a model trained up to sigma 5 cannot serve a top level above 5
    with pytest.raises(ConfigurationError, match="sigma_max"):
        BridgeConfig(full, low, SCHED)
    with pytest.raises(ConfigurationError, match="sigma_max"):
        BridgeConfig(low, full, SCHED, inference_top_sigma=20.0)
    assert BridgeConfig(full, low, SCHED, inference_top_sigma=5.0).top_sigma <= 5.0
    # the grid shape must agree, whatever the top level
    for other in (ScheduleParams(sigma_max=5.0, rho=7.0), ScheduleParams(sigma_min=0.02)):
        with pytest.raises(ConfigurationError, match="rho"):
            BridgeConfig(full, new_denoiser(tiny_arch, other), SCHED, inference_top_sigma=1.0)
