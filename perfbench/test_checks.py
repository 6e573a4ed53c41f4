"""Each benchmark check accepts the program's true output and rejects a perturbed one.

Run from the root of the repository: ``python -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import timbrebridge  # noqa: E402
from timbrebridge import (  # noqa: E402
    bridge,
    coupling,
    dataset,
    denoiser,
    metrics,
    network,
    schedule,
    studies,
    training,
)
from timbrebridge.featurecodec import FeatureCodecSpec  # noqa: E402
from timbrebridge.gmm import GaussianMixture, GaussianMixtureDenoiser  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from speed import NOMINAL_KERNEL_S, SpeedProbe  # noqa: E402
from tracer import Tracer, ancestor_info, package_modules, patched, summarize, swapped  # noqa: E402

TINY = network.ArchSpec(channels=4, width1=3, width2=5, kernel=3, noise_features=4)


@pytest.fixture(scope="module")
def corpus_pair():
    codec = FeatureCodecSpec()
    return codec, {
        name: dataset.build_corpus(dataset.CorpusSpec(name, n_train=4, n_test=6, seed=k), codec)
        for k, name in enumerate(("flute_like", "violin_like"))
    }


def test_close_and_same_reject_a_difference():
    x = np.random.default_rng(0).standard_normal((3, 4))
    checks.check_close("x", x, x.copy(), 1e-12)
    with pytest.raises(CheckFailed):
        checks.check_close("x", x * 1.01, x, 1e-3)
    with pytest.raises(CheckFailed):
        checks.check_close("x", x[:2], x, 1e-3)
    checks.check_same("x", [x, x.copy(), x.copy()])
    y = x.copy()
    y[1, 2] = np.nextafter(y[1, 2], np.inf)
    with pytest.raises(CheckFailed):
        checks.check_same("x", [x, x.copy(), y])


def test_gradient_check():
    rng = np.random.default_rng(1)
    model = denoiser.new_denoiser(TINY, schedule.ScheduleParams(), seed=3)
    x0 = rng.standard_normal((3, 4, 12))
    noise = rng.standard_normal(x0.shape)
    sig = np.array([0.02, 1.5, 40.0])
    _, grads = training.batch_loss_and_grads(model, x0, noise, sig)
    coords = [("enc1.w", (1, 2, 0)), ("mid.nw", (4, 3)), ("out.b", (2,)), ("dec2.w", (0, 4, 2))]
    numeric = checks.finite_difference_gradients(
        lambda: training.batch_loss_and_grads(model, x0, noise, sig)[0], model.params, coords
    )
    analytic = np.array([grads[k][i] for k, i in coords])
    checks.check_close("gradient", analytic, numeric, 1e-5)
    wrong = analytic.copy()
    wrong[2] *= 1.01
    with pytest.raises(CheckFailed):
        checks.check_close("gradient", wrong, numeric, 1e-5)


def test_coupling_checks():
    rng = np.random.default_rng(2)
    d, e = rng.standard_normal((2, 6, 8, 4))
    cfg = coupling.CouplingConfig(time_chunk=4, channel_chunk=8)
    result = coupling.ot_pair(d, e, cfg)
    checks.check_couplings([result], 6)
    brute = checks.brute_force_assignment_cost(d, e)
    checks.check_assignment_optimal(float(result.costs[0]), brute)
    with pytest.raises(CheckFailed):
        checks.check_assignment_optimal(float(result.costs[0]) + 1e-6, brute)
    with pytest.raises(CheckFailed):
        checks.check_couplings([], 6)

    bad_perm = coupling.CouplingResult(
        result.positions, result.permutations.copy(), result.costs, result.identity_costs
    )
    bad_perm.permutations[0, 0] = bad_perm.permutations[0, 1]
    with pytest.raises(CheckFailed):
        checks.check_couplings([bad_perm], 6)
    above = coupling.CouplingResult(
        result.positions,
        result.permutations,
        result.identity_costs * 1.001 + 1e-6,
        result.identity_costs,
    )
    with pytest.raises(CheckFailed):
        checks.check_couplings([above], 6)


def test_loss_check():
    curve = np.linspace(1.0, 0.8, 200) + 0.01 * np.sin(np.arange(200))
    checks.check_loss_decreases(curve)
    with pytest.raises(CheckFailed):
        checks.check_loss_decreases(curve[::-1])
    with pytest.raises(CheckFailed):
        checks.check_loss_decreases(np.append(curve[:-1], np.nan))


def test_reference_forward_matches_network():
    rng = np.random.default_rng(3)
    params = network.init_params(TINY, rng)
    x = rng.standard_normal((2, 4, 10))  # 10 frames: padded to 12 inside
    feats = network.noise_embedding(np.array([-1.0, 0.7]), TINY.noise_features)
    got = network.forward(params, TINY, x, feats)
    want = checks.reference_forward(params, x, feats)
    checks.check_close("forward", got, want, 1e-12)
    got[1, 2, 3] += 1e-6 * np.abs(got).max()
    with pytest.raises(CheckFailed):
        checks.check_close("forward", got, want, 1e-10)


def test_gaussian_flow_map_matches_bridge():
    rng = np.random.default_rng(4)
    gs = GaussianMixture(np.ones(1), rng.normal(size=(1, 6)), rng.uniform(0.3, 2.0, (1, 6)))
    gt = GaussianMixture(np.ones(1), rng.normal(size=(1, 6)), rng.uniform(0.3, 2.0, (1, 6)))
    src, tgt = GaussianMixtureDenoiser(gs, (2, 3)), GaussianMixtureDenoiser(gt, (2, 3))
    sched = schedule.ScheduleParams()
    x = src.sample_clips(5, rng)
    cfg = bridge.BridgeConfig(src, tgt, sched, inference_top_sigma=5.0)
    got = bridge.transfer(x, cfg).reshape(5, 6)
    want = checks.gaussian_flow_transfer(
        x.reshape(5, 6), gs.means[0], gs.variances[0], gt.means[0], gt.variances[0],
        sched.sigma_min, cfg.top_sigma,
    )
    checks.check_close("flow map", got, want, 1e-3)
    with pytest.raises(CheckFailed):
        checks.check_close("flow map", got * 1.01, want, 1e-3)


def test_sweep_rows_check():
    rows = [studies.AblationRow("a", 0.4, 0.3, 20.0, 1.0), studies.AblationRow("b", 0.5, 0.2, 9.0, 0.5)]
    want = [(0.4, 0.3, 20.0, 1.0), (0.5, 0.2, 9.0, 0.5)]
    checks.check_sweep_rows(rows, want)
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows(rows, [want[0], (0.5, 0.2, 9.0 + 1e-6, 0.5)])
    with pytest.raises(CheckFailed):
        checks.check_sweep_rows(rows[:1], want)


def test_metric_checks(corpus_pair):
    codec, corpora = corpus_pair
    flute = corpora["flute_like"].clips("test")
    oracle = [
        dataset.render_melody_clip(m, "violin_like", codec, noise_seed=k)
        for k, m in enumerate(corpora["flute_like"].melodies("test"))
    ]
    p = [metrics.pitch_class_matrix(c, codec) for c in flute]
    q = [metrics.pitch_class_matrix(c, codec) for c in oracle]
    checks.check_columns_sum_to_one(p + q)
    bad = p[0].copy()
    bad[3, 5] += 1e-9
    with pytest.raises(CheckFailed):
        checks.check_columns_sum_to_one([p[1], bad])

    oracle_d = [metrics.dpd(a, b) for a, b in zip(p, q)]
    unrelated = metrics.unrelated_pair_dpd(flute, codec)
    checks.check_oracle_below_unrelated(oracle_d, unrelated)
    with pytest.raises(CheckFailed):
        checks.check_oracle_below_unrelated(unrelated, oracle_d)

    self_d = [metrics.dpd(a, a) for a in p[:3]]
    fwd = [metrics.dpd(a, b) for a, b in zip(p[:3], q[:3])]
    bwd = [metrics.dpd(b, a) for a, b in zip(p[:3], q[:3])]
    checks.check_dpd_axioms(self_d, fwd, bwd)
    with pytest.raises(CheckFailed):
        checks.check_dpd_axioms([0.0, 1e-12, 0.0], fwd, bwd)
    with pytest.raises(CheckFailed):
        checks.check_dpd_axioms(self_d, fwd, [bwd[0], bwd[1] * (1 + 1e-9), bwd[2]])

    short = [(a[:, 10:16], b[:, 20:25]) for a, b in zip(p[:2], q[:2])]
    fast = [metrics.dpd(a, b) for a, b in short]
    brute = [metrics.dpd_brute_force(a, b) for a, b in short]
    checks.check_dpd_brute_force(fast, brute)
    with pytest.raises(CheckFailed):
        checks.check_dpd_brute_force([fast[0] * (1 + 1e-9), fast[1]], brute)


def test_clip_round_trip_check(corpus_pair, tmp_path):
    codec, corpora = corpus_pair
    corpus = corpora["violin_like"]
    dataset.save_corpus(tmp_path, corpus)
    loaded = dataset.load_corpus(tmp_path)
    written = [r.clip.data for r in corpus.records]
    read = [r.clip.data for r in loaded.records]
    checks.check_clip_round_trip(written, read)
    changed = [a.copy() for a in read]
    changed[2][5, 7] = np.nextafter(np.float32(changed[2][5, 7]), np.float32(np.inf))
    with pytest.raises(CheckFailed):
        checks.check_clip_round_trip(written, changed)
    with pytest.raises(CheckFailed):
        checks.check_clip_round_trip(written, read[:-1])


def test_tracer_reaches_names_bound_by_other_modules():
    modules = package_modules(timbrebridge)
    original = bridge.transfer
    tracer = Tracer(timbrebridge, workloads.PROBES)
    gmm = GaussianMixture(np.ones(1), np.zeros((1, 2)), np.ones((1, 2)))
    den = GaussianMixtureDenoiser(gmm, (2, 1))
    sched = schedule.ScheduleParams(n_steps=6)
    cfg = bridge.BridgeConfig(den, den, sched)
    with tracer.active(0):
        assert studies.transfer is bridge.transfer is not original
        studies.transfer(np.ones((1, 2, 1)), cfg)
    assert studies.transfer is bridge.transfer is original
    stats = summarize(tracer.spans, {0})
    assert stats["bridge.transfer"].calls == 1
    assert stats["pfode.solve_sigma_path"].info["steps"] == 10
    # each Heun step calls the denoiser twice, in both solve directions
    directions = [
        ancestor_info(tracer.spans, i, "direction")
        for i, s in enumerate(tracer.spans)
        if s[0] == "gmm.GaussianMixtureDenoiser.denoise"
    ]
    assert directions.count("forward") == directions.count("reverse") == 10
    total = stats["bridge.transfer"].total_s
    assert 0.0 <= stats["bridge.transfer"].self_s <= total
    spans = len(tracer.spans)
    assert 0.0 <= tracer.call_cost(calls=1000, repeats=2) < 1e-3
    assert len(tracer.spans) == spans

    seen = []
    with patched(modules, "bridge", "transfer", lambda f: lambda *a: seen.append(a) or f(*a)):
        studies.transfer(np.ones((1, 2, 1)), cfg)
    assert len(seen) == 1 and studies.transfer is original


def test_conv_gflop_counts_every_stage():
    arch = network.ArchSpec()
    # 64 frames: enc1 and out at 64, enc2 and dec2 at 32, mid at 16
    macs = 5 * (64 * 32 * 32 + 32 * 32 * 64 + 16 * 64 * 64 + 32 * 64 * 32 + 64 * 32 * 32)
    assert workloads.conv_gflop(arch, 3, 64) == pytest.approx(2e-9 * 3 * macs)
    assert workloads.conv_gflop(arch, 1, 62) == workloads.conv_gflop(arch, 1, 64)


def test_speed_probe_scales_by_kernel_time():
    probe = SpeedProbe()
    # (wall start, wall duration, CPU duration): the factor follows CPU time
    probe.samples = [(1.0, 0.003, 0.002), (1.5, 0.0025, 0.002), (2.5, 0.005, 0.004)]
    spent, factor = probe.interval(0.5, 2.0)
    assert spent == pytest.approx(0.0055)
    assert factor == pytest.approx(NOMINAL_KERNEL_S / 0.002)
    # an interval without samples takes the nearest one
    assert probe.interval(2.6, 2.7) == (0.0, pytest.approx(NOMINAL_KERNEL_S / 0.004))


def test_corpus_workload_rejects_a_changed_clip(tmp_path):
    class Small(workloads.CorpusEval):
        N_TRAIN, N_TEST = 4, 6

    wl = Small(5, tmp_path)
    wl.setup()
    outputs = [wl.run_round(0), wl.run_round(1)]
    summaries = [wl.summary(o) for o in outputs]
    wl.verify(outputs[0], summaries)
    with pytest.raises(CheckFailed):
        wl.verify(outputs[0], [summaries[0], summaries[1][:-1] + [summaries[1][-1] + 1e-3]])
    outputs[0]["loaded"]["violin_like"].records[0].clip.data[0, 0] += 1e-3
    with pytest.raises(CheckFailed):
        wl.verify(outputs[0], summaries)


def test_sweep_workload_rejects_a_fault_in_the_timed_batch(tmp_path):
    class Small(workloads.SigmaSweep):
        N_CLIPS, N_SAMPLED = 3, 2

    def first_round():
        wl = Small(7, tmp_path)
        wl.setup()
        table = wl.run_round(0)
        return wl, table

    wl, table = first_round()
    wl.verify(table, [wl.summary(table)])

    # a fault at the timed batch size only, in the sweep's own path and in
    # bridge.transfer wherever it is bound
    def at_timed_batch(transfer):
        def faulty(x, cfg):
            out = transfer(x, cfg)
            if len(x) == Small.N_CLIPS:
                out[-1] += 0.1
            return out

        return faulty

    modules = package_modules(timbrebridge)
    for fault in (
        swapped([(studies, "transfer", at_timed_batch(bridge.transfer))]),
        patched(modules, "bridge", "transfer", at_timed_batch),
    ):
        with fault:
            wl, table = first_round()
            with pytest.raises(CheckFailed, match="rows of the timed batch"):
                wl.verify(table, [wl.summary(table)])

    # a table whose rows are not the scores of the transfers it made
    wl, table = first_round()
    table.rows[1].frechet += 1e-6
    with pytest.raises(CheckFailed, match="sweep row"):
        wl.verify(table, [wl.summary(table)])
