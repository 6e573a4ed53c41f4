"""Acceptance suite: one test per criterion, each printing a PASS line.

The analytic-mixture criteria (1-8, 13) run in seconds to minutes; criteria
9-12 share a trained five-model instrument testbed built once per session
(about 15 minutes of CPU training). Run with ``pytest tests/test_acceptance.py -s``
to watch the per-criterion lines.
"""

import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

import timbrebridge.network as network
from timbrebridge.bridge import BridgeConfig, cycle, transfer
from timbrebridge.cli import main as cli_main
from timbrebridge.coupling import CouplingConfig, couple_noise, ot_pair
from timbrebridge.denoiser import new_denoiser
from timbrebridge.gmm import GaussianMixtureDenoiser, demo_pair_2d
from timbrebridge.metrics import (
    EmbeddingSet,
    dpd,
    dpd_brute_force,
    frechet,
    frechet_from_moments,
    jaccard,
    unrelated_pair_dpd,
)
from timbrebridge.network import ArchSpec, n_params
from timbrebridge.schedule import ScheduleParams, precond, sigma_at
from timbrebridge.studies import (
    evaluate_testbed_transfer,
    build_testbed,
    convergence_study,
    cycle_study,
    pitch_shift_study,
    shared_latent_study,
    sigma_ablation,
    transfer_clips,
    trend_non_increasing,
)
from timbrebridge.synthdata import ShiftAugmentation, apply_shift_augmentation, gen_melody
from timbrebridge.training import TrainingConfig, batch_loss_and_grads, train

PAPER_SCHEDULE = ScheduleParams(sigma_min=0.01, sigma_max=100.0, rho=9.0, n_steps=100)


def report(n, text):
    print(f"\n[criterion {n:2d}] PASS: {text}")


# ---------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="module")
def gmm_models():
    src, tgt = demo_pair_2d()
    return (
        GaussianMixtureDenoiser(src, (2, 1)),
        GaussianMixtureDenoiser(tgt, (2, 1)),
        src,
        tgt,
    )


@pytest.fixture(scope="module")
def order_study():
    src, tgt = demo_pair_2d()
    return convergence_study(
        src, tgt, ["euler", "heun", "rk4"], [10, 20, 40, 80, 160],
        n_samples=2000, seed=1, reference_steps=5120, tv_reference_samples=50_000,
    )


@pytest.fixture(scope="module")
def tv_study():
    src, tgt = demo_pair_2d()
    return convergence_study(
        src, tgt, ["heun"], [10, 40, 160],
        n_samples=20_000, seed=11, reference_steps=5120,
        measure_endpoint_l2=False,
    )[0]


@pytest.fixture(scope="session")
def testbed():
    """Five trained denoisers on three instruments, plus the timbre classifier.

    flute/violin/bassoon at sigma_max=100 (flute trained with the paper's
    downward pitch-shift augmentation), and flute/violin again at
    sigma_max=5 for the matched-truncation comparison.
    """
    tb = build_testbed(
        ["flute_like", "violin_like", "bassoon_like"],
        n_train=256,
        n_test=200,
        seed=1,
        train_config=TrainingConfig(n_steps=4000, batch_size=16),
        augmentation={"flute_like": ShiftAugmentation()},
    )
    for k, name in enumerate(("flute_like", "violin_like")):
        sched5 = replace(tb.base_schedule, sigma_max=5.0)
        cfg = replace(tb.train_config, seed=50 + k)
        model, rep = train(
            tb.corpora[name].normalized("train"),
            sched5,
            cfg,
            stats=tb.corpora[name].stats,
            label=name,
        )
        tb.models[(name, 5.0)] = model
        tb.reports[(name, 5.0)] = rep
    return tb


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_schedule_exactness():
    assert sigma_at(PAPER_SCHEDULE, 0) == pytest.approx(0.01, abs=4 * np.spacing(0.01))
    assert sigma_at(PAPER_SCHEDULE, 99) == pytest.approx(
        100.0, abs=4 * np.spacing(100.0)
    )
    # mpmath 50-digit evaluation of the warped interpolation at i=50
    interior = sigma_at(PAPER_SCHEDULE, 50)
    assert interior == pytest.approx(3.2311980212084784, rel=1e-10)
    report(1, f"endpoints exact within 4 ulp; sigma(50)={interior:.12f}")


def test_criterion_02_precond_identity():
    worst = 0.0
    for sigma in (0.01, 0.1, 1.0, 10.0, 100.0):
        for sigma_data in (0.5, 1.0, 2.0):
            c = precond(sigma, sigma_data)
            lhs = c.c_skip**2 * (sigma**2 + sigma_data**2) + c.c_out**2
            worst = max(worst, abs(lhs - sigma_data**2) / sigma_data**2)
    assert worst < 1e-12
    report(2, f"preconditioning identity, worst relative error {worst:.2e}")


def test_criterion_03_gradient_check():
    arch = ArchSpec(channels=2, width1=2, width2=3, kernel=3, noise_features=4)
    model = new_denoiser(arch, PAPER_SCHEDULE, seed=2)
    assert n_params(model.params) <= 200
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((3, 2, 8))
    eps = rng.standard_normal(x0.shape)
    sig = np.array([0.05, 1.0, 20.0])
    _, grads = batch_loss_and_grads(model, x0, eps, sig)
    step = 1e-4
    worst = 0.0
    checked = 0
    for key, arr in model.params.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            up, _ = batch_loss_and_grads(model, x0, eps, sig)
            flat[i] = saved - step
            down, _ = batch_loss_and_grads(model, x0, eps, sig)
            flat[i] = saved
            fd = (up - down) / (2 * step)
            g = grads[key].reshape(-1)[i]
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-10))
            checked += 1
    assert worst < 1e-4
    report(3, f"{checked} parameters, worst FD relative error {worst:.2e}")


def test_criterion_04_solver_orders(order_study):
    slopes = {r.method: r.slope for r in order_study}
    assert 0.8 <= slopes["euler"] <= 1.2
    assert 1.7 <= slopes["heun"] <= 2.3
    assert slopes["rk4"] >= 3.0
    assert slopes["euler"] < slopes["heun"] < slopes["rk4"]
    assert order_study[0].reference_steps == 5120
    report(
        4,
        "orders euler %.2f / heun %.2f / rk4 %.2f vs Heun-5120 reference"
        % (slopes["euler"], slopes["heun"], slopes["rk4"]),
    )


def test_criterion_05_distributional_tv(tv_study):
    by_n = {p.n_steps: p.tv for p in tv_study.points}
    floor = tv_study.tv_floor
    assert by_n[160] < 0.1
    assert by_n[160] < 2.0 * floor
    assert by_n[160] < by_n[10]
    report(
        5,
        "TV(N=160)=%.4f < 0.1, < 2x floor %.4f; TV(N=10)=%.4f"
        % (by_n[160], floor, by_n[10]),
    )


def test_criterion_06_cycle_consistency(gmm_models):
    dsrc, dtgt, *_ = gmm_models
    sched = PAPER_SCHEDULE
    xs = dsrc.sample_clips(200, np.random.default_rng(4))

    self_cfg = BridgeConfig(dsrc, dsrc, sched)
    self_out = transfer(xs, self_cfg)
    rel_self = np.linalg.norm((self_out - xs).reshape(200, -1), axis=1) / np.linalg.norm(
        xs.reshape(200, -1), axis=1
    )
    assert np.all(rel_self < 2e-2)

    points = cycle_study(dsrc, dtgt, xs, [25, 50, 100, 200], sched)
    errors = {p.n_steps: p.mean_normalized_l2 for p in points}
    assert errors[100] < 2e-2
    assert trend_non_increasing([errors[n] for n in (25, 50, 100, 200)])
    report(
        6,
        "self-bridge max %.2e; cycle N=100 %.2e; trend %s"
        % (rel_self.max(), errors[100], [f"{errors[n]:.1e}" for n in (25, 50, 100, 200)]),
    )


def test_criterion_07_ot_coupling_exactness():
    rng = np.random.default_rng(7)
    config = CouplingConfig(0, 0)
    for trial in range(100):
        b = int(rng.integers(2, 8))
        data = rng.standard_normal((b, 2, 2))
        noise = rng.standard_normal((b, 2, 2))
        result = ot_pair(data, noise, config)
        d = data.reshape(b, -1)
        e = noise.reshape(b, -1)
        cost = ((d[:, None, :] - e[None, :, :]) ** 2).sum(axis=2)
        brute = min(
            sum(cost[i, perm[i]] for i in range(b))
            for perm in itertools.permutations(range(b))
        )
        assert result.costs[0] == pytest.approx(brute, rel=1e-10)

    data = rng.standard_normal((8, 8, 8))
    noise = rng.standard_normal((8, 8, 8))
    coupled, res = couple_noise(data, noise, CouplingConfig(4, 4))
    for (cs, ts), _ in zip(res.positions, res.permutations):
        assert np.array_equal(
            np.sort(noise[:, cs, ts].ravel()), np.sort(coupled[:, cs, ts].ravel())
        )
    whole = ot_pair(data, noise, CouplingConfig(0, 0)).costs.sum()
    chunked = ot_pair(data, noise, CouplingConfig(4, 4)).costs.sum()
    assert chunked <= whole + 1e-12
    report(
        7,
        "100 brute-force matches (B<=7); marginals preserved; chunked cost "
        "%.2f <= unchunked %.2f" % (chunked, whole),
    )


def test_criterion_08_metrics_oracles():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n, m = rng.integers(1, 7, size=2)
        p = rng.uniform(size=(12, int(n)))
        q = rng.uniform(size=(12, int(m)))
        assert dpd(p, q) == pytest.approx(dpd_brute_force(p, q), rel=1e-12)

    assert frechet_from_moments(0.0, 1.0, 3.0, 4.0) == pytest.approx(10.0, abs=1e-8)
    v1 = rng.standard_normal((60, 4)) + 1.0
    v2 = 2.0 * rng.standard_normal((50, 4))
    q_rot, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = frechet(EmbeddingSet(v1, ["a"] * 60), EmbeddingSet(v2, ["b"] * 50))
    rot = frechet(
        EmbeddingSet(v1 @ q_rot.T, ["a"] * 60), EmbeddingSet(v2 @ q_rot.T, ["b"] * 50)
    )
    assert rot == pytest.approx(base, abs=1e-8)

    p = np.zeros((12, 3))
    q = np.zeros((12, 3))
    for t, c in enumerate((0, 4, 7)):
        p[c, t] = 1.0
    for t, c in enumerate((0, 4, 9)):
        q[c, t] = 1.0
    assert jaccard(p, q) == pytest.approx(0.5)
    report(8, "DTW matches enumeration (50 pairs); Frechet 1-d=10, rotation-"
              "invariant; Jaccard {0,4,7}x{0,4,9}=0.5")


def test_criterion_09_testbed_transfer(testbed):
    originals, transferred = transfer_clips(
        testbed, "flute_like", "violin_like", 100.0, 5.0
    )
    assert len(originals) >= 200
    rep = evaluate_testbed_transfer(testbed, "flute_like", "violin_like", originals, transferred)
    floor = unrelated_pair_dpd(testbed.corpora["flute_like"].clips("test"), testbed.codec)
    assert rep.classifier_accuracy >= 0.90
    assert rep.dpd < np.percentile(floor, 50)
    report(
        9,
        "accuracy %.3f >= 0.90; mean DPD %.3f < unrelated p50 %.3f (%d clips)"
        % (rep.classifier_accuracy, rep.dpd, np.percentile(floor, 50), len(originals)),
    )


def test_criterion_10_sigma_trend(testbed):
    pairs = [(100.0, 100.0), (100.0, 50.0), (100.0, 20.0), (100.0, 5.0)]
    table = sigma_ablation(testbed, "flute_like", "violin_like", pairs, n_clips=200)
    dpds = [table.row(f"sigma_max=100,sigma_top={t:g}").dpd for t in (100, 50, 20, 5)]
    assert trend_non_increasing(dpds)
    assert table.notes["dpd_non_increasing"]
    report(10, "DPD vs sigma_top {100,50,20,5}: %s" % [f"{d:.3f}" for d in dpds])


def test_criterion_10b_matched_truncation_example(testbed):
    """Models trained at sigma_max=100 sampled at 5 behave like models trained
    and sampled at 5 (DPD within 2x)."""
    table = sigma_ablation(
        testbed, "flute_like", "violin_like", [(100.0, 5.0), (5.0, 5.0)], n_clips=100
    )
    truncated = table.row("sigma_max=100,sigma_top=5").dpd
    matched = table.row("sigma_max=5,sigma_top=5").dpd
    ratio = max(truncated, matched) / max(min(truncated, matched), 1e-9)
    assert ratio < 2.0
    print(
        f"\n[example] sigma_max=100@5 DPD {truncated:.3f} vs sigma_max=5@5 "
        f"{matched:.3f} (ratio {ratio:.2f})"
    )


def test_criterion_11_pitch_shift_ordering(testbed):
    table = pitch_shift_study(
        testbed, "flute_like", "bassoon_like", (0, -12, -24), n_clips=128
    )
    d0 = table.row("shift=0").dpd
    d12 = table.row("shift=-12").dpd
    f12 = table.row("shift=-12").frechet
    f24 = table.row("shift=-24").frechet
    assert d12 < d0
    assert f24 > f12
    report(
        11,
        "DPD(-12)=%.3f < DPD(0)=%.3f; Frechet(-24)=%.1f > Frechet(-12)=%.1f"
        % (d12, d0, f24, f12),
    )


def test_criterion_12_shared_latent(testbed):
    summary = shared_latent_study(
        testbed, "flute_like", "violin_like", n_trials=100, seed=3
    )
    assert summary.median_dpd_same < summary.median_dpd_independent
    assert summary.fraction_same_below > summary.fraction_independent_below
    report(
        12,
        "median DPD same %.3f < independent %.3f; below-threshold %.2f > %.2f"
        % (
            summary.median_dpd_same,
            summary.median_dpd_independent,
            summary.fraction_same_below,
            summary.fraction_independent_below,
        ),
    )


def test_criterion_13_augmentation_statistics():
    mel = gen_melody(2, (69, 96), 4)
    rng = np.random.default_rng(123)
    policy = ShiftAugmentation()  # probability 0.35, shifts 1..25 down
    shifts = np.array(
        [apply_shift_augmentation(mel, rng, policy)[1] for _ in range(10_000)]
    )
    freq = float(np.mean(shifts != 0))
    assert 0.33 <= freq <= 0.37
    applied = shifts[shifts != 0]
    assert set(np.unique(applied)) <= set(range(-25, 0))
    report(13, f"shift frequency {freq:.4f} in [0.33, 0.37]; all shifts in -25..-1")


def test_criterion_14_determinism(tmp_path):
    def pipeline(root):
        root.mkdir()
        for args in (
            ["synth-data", "--instrument", "flute_like", "--clips", "16",
             "--test-clips", "4", "--seed", "5", "--out", root / "flute"],
            ["synth-data", "--instrument", "violin_like", "--clips", "16",
             "--test-clips", "4", "--seed", "6", "--out", root / "violin"],
            ["train", "--data", root / "flute", "--out-ckpt", root / "flute.tbc",
             "--train-steps", "150", "--seed", "1"],
            ["train", "--data", root / "violin", "--out-ckpt", root / "violin.tbc",
             "--train-steps", "150", "--seed", "2"],
            ["train-classifier", "--data", root / "flute", "--data", root / "violin",
             "--out-ckpt", root / "clf.tbc", "--classifier-steps", "400", "--seed", "3"],
            ["transfer", "--source-ckpt", root / "flute.tbc", "--target-ckpt",
             root / "violin.tbc", "--input", root / "flute", "--output",
             root / "out", "--inference-sigma", "5", "--seed", "4"],
            ["eval", "--originals", root / "flute", "--transferred", root / "out",
             "--target-reference", root / "violin", "--classifier-ckpt",
             root / "clf.tbc", "--report", root / "report.json", "--seed", "5"],
        ):
            assert cli_main([str(a) for a in args]) == 0

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    compared = 0
    for rel in ["flute.tbc", "violin.tbc", "clf.tbc", "report.json"]:
        a = (tmp_path / "run1" / rel).read_bytes()
        b = (tmp_path / "run2" / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
        compared += 1
    for clip in sorted((tmp_path / "run1" / "out").glob("*.clip")):
        twin = tmp_path / "run2" / "out" / clip.name
        assert clip.read_bytes() == twin.read_bytes()
        compared += 1
    for ds in ("flute", "violin"):
        for clip in sorted((tmp_path / "run1" / ds / "clips").glob("*.clip")):
            twin = tmp_path / "run2" / ds / "clips" / clip.name
            assert clip.read_bytes() == twin.read_bytes()
            compared += 1
    report(14, f"two seeded pipeline runs byte-identical across {compared} artifacts")


def test_testbed_training_curves_property(testbed):
    """Corpus-scale loss curves: smoothed windows regress materially in at
    most 5% of steps (denoiser module invariant, checked on the real runs)."""
    from tests.test_training import smoothed_loss_violations

    for key, rep in testbed.reports.items():
        frac, n = smoothed_loss_violations(rep.loss_curve)
        assert n >= 20
        assert frac <= 0.05, f"{key}: {frac:.3f} of windows regress"
