import numpy as np
import pytest

from timbrebridge.errors import ConfigurationError, ContractViolation
from timbrebridge.gmm import GaussianMixture, GaussianMixtureDenoiser, demo_pair_2d
from timbrebridge.schedule import ScheduleParams
from timbrebridge.studies import (
    convergence_study,
    cycle_study,
    energy_distance,
    gmm_box,
    histogram_tv,
    trend_non_increasing,
)


def test_histogram_tv_bounds(rng):
    a = rng.standard_normal((2000, 2))
    b = rng.standard_normal((2000, 2)) + 5.0
    box = (np.array([-4.0, -4.0]), np.array([4.0, 4.0]))
    assert histogram_tv(a, a, box) == 0.0
    assert histogram_tv(a, b, box) > 0.9


def test_histogram_tv_rejects_higher_d(rng):
    with pytest.raises(ContractViolation):
        histogram_tv(rng.standard_normal((10, 3)), rng.standard_normal((10, 3)),
                     (np.zeros(3), np.ones(3)))


def test_energy_distance_zero_same_distribution(rng):
    x = rng.standard_normal((1500, 2))
    y = rng.standard_normal((1500, 2))
    z = rng.standard_normal((1500, 2)) + 3.0
    assert abs(energy_distance(x, y)) < 0.05
    assert energy_distance(x, z) > 1.0


def test_gmm_box_covers_means():
    _, tgt = demo_pair_2d()
    lo, hi = gmm_box(tgt)
    assert np.all(lo < tgt.means.min(axis=0)) and np.all(hi > tgt.means.max(axis=0))


def test_trend_non_increasing():
    assert trend_non_increasing([1.0, 0.8, 0.5, 0.2])
    assert trend_non_increasing([1.0, 0.8, 0.84, 0.2])  # one small violation
    assert not trend_non_increasing([1.0, 0.8, 1.2, 0.2])  # too large
    assert not trend_non_increasing([1.0, 1.05, 1.08, 1.09])  # two violations


def test_convergence_study_small():
    src, tgt = demo_pair_2d()
    results = convergence_study(
        src, tgt, ["euler", "heun"], [10, 20, 40, 80], n_samples=300, seed=0,
        reference_steps=2560, tv_reference_samples=20_000,
    )
    by_method = {r.method: r for r in results}
    assert 0.8 <= by_method["euler"].slope <= 1.2
    assert 1.7 <= by_method["heun"].slope <= 2.3
    assert by_method["euler"].slope < by_method["heun"].slope
    for r in results:
        assert r.distance_kind == "tv"
        assert r.tv_floor is not None
        assert len(r.points) == 4
        assert all(p.tv is not None for p in r.points)


def test_convergence_study_energy_distance_in_3d():
    rng = np.random.default_rng(0)
    src = GaussianMixture([1.0], [[0.0, 0.0, 0.0]], [[0.3, 0.3, 0.3]])
    tgt = GaussianMixture([1.0], [[1.0, 1.0, 1.0]], [[0.2, 0.2, 0.2]])
    results = convergence_study(
        src, tgt, ["heun"], [10, 20, 40, 80], n_samples=200, seed=1,
        reference_steps=2560,
    )
    assert results[0].distance_kind == "energy"
    assert results[0].tv_floor is None
    assert all(p.energy is not None and p.tv is None for p in results[0].points)


def test_convergence_study_guards():
    src, tgt = demo_pair_2d()
    with pytest.raises(ConfigurationError):
        convergence_study(src, tgt, ["heun"], [10, 20], 100)
    with pytest.raises(ConfigurationError):
        convergence_study(src, tgt, ["heun"], [100, 120, 140], 100)


def test_cycle_study_gmm_trend():
    src, tgt = demo_pair_2d()
    dsrc = GaussianMixtureDenoiser(src, (2, 1))
    dtgt = GaussianMixtureDenoiser(tgt, (2, 1))
    xs = dsrc.sample_clips(100, np.random.default_rng(2))
    points = cycle_study(dsrc, dtgt, xs, [25, 50, 100, 200], ScheduleParams())
    errors = [p.mean_normalized_l2 for p in points]
    assert trend_non_increasing(errors)
    assert errors[2] < 2e-2  # N=100
    assert all(p.wall_seconds_per_transfer > 0 for p in points)
    with pytest.raises(ConfigurationError):
        cycle_study(dsrc, dtgt, xs, [25, 50], ScheduleParams())


# ---------------------------------------------------------------------------
# trained-testbed studies at smoke scale


@pytest.fixture(scope="module")
def tiny_testbed():
    from timbrebridge.studies import build_testbed
    from timbrebridge.training import TrainingConfig

    return build_testbed(
        ["flute_like", "violin_like"],
        n_train=24,
        n_test=8,
        seed=2,
        train_config=TrainingConfig(n_steps=60, batch_size=8),
    )


def test_sigma_ablation_smoke(tiny_testbed):
    from timbrebridge.studies import sigma_ablation

    table = sigma_ablation(
        tiny_testbed, "flute_like", "violin_like",
        [(100.0, 100.0), (100.0, 5.0)], n_clips=4,
    )
    assert len(table.rows) == 2
    assert table.notes["dpd_vs_sigma_top"].keys() == {"100.0", "5.0"}
    row = table.row("sigma_max=100,sigma_top=5")
    assert np.isfinite([row.dpd, row.jaccard, row.frechet, row.accuracy]).all()


def test_coupling_ablation_smoke(tiny_testbed):
    from timbrebridge.coupling import CouplingConfig
    from timbrebridge.studies import coupling_ablation

    table = coupling_ablation(
        tiny_testbed, "flute_like", "violin_like",
        [CouplingConfig(0, 0), CouplingConfig(4, 8)],
        sigma_top=5.0, n_clips=4,
    )
    assert [r.setting for r in table.rows] == ["(0,0)", "(4,8)"]
    for row in table.rows:
        assert np.isfinite([row.dpd, row.jaccard, row.frechet, row.accuracy]).all()
    assert set(table.notes["mean_assignment_cost"]) == {"(0,0)", "(4,8)"}
    assert table.notes["mean_assignment_cost"]["(4,8)"] is not None


def test_pitch_shift_study_refuses_matched_registers(tiny_testbed):
    from timbrebridge.studies import pitch_shift_study

    with pytest.raises(ContractViolation):
        pitch_shift_study(tiny_testbed, "flute_like", "violin_like")


def test_pitch_shift_study_register_domain_error(tiny_testbed):
    from timbrebridge.errors import DomainError
    from timbrebridge.studies import Testbed, pitch_shift_study

    # violin's home register is an octave+ below flute's home shifted up;
    # fake an octave-mismatched pair by reusing the violin corpus under a
    # bassoon label is overkill -- instead ask for a shift that escapes the
    # instrument's playable register upward.
    from timbrebridge.synthdata import HOME_REGISTERS

    tb = tiny_testbed
    saved = HOME_REGISTERS["violin_like"]
    HOME_REGISTERS["violin_like"] = (50, 65)  # pretend it's low-register
    try:
        with pytest.raises(DomainError):
            pitch_shift_study(tb, "flute_like", "violin_like", shifts=(20,), n_clips=2)
    finally:
        HOME_REGISTERS["violin_like"] = saved


def test_shared_latent_single_trial(tiny_testbed):
    from timbrebridge.studies import shared_latent_study

    summary = shared_latent_study(
        tiny_testbed, "flute_like", "violin_like", n_trials=1, seed=0
    )
    assert summary.n_trials == 1
    assert summary.threshold is None
    assert summary.fraction_same_below is None
    assert np.isfinite(summary.median_dpd_same)
