"""Scripted studies: solver convergence, sigma/coupling/shift ablations,
shared-latent and cycle experiments, plus the feature-domain transfer path
(normalize, bridge, denormalize) that they and the CLI share.

Every study is deterministic given its seed and returns plain result
dataclasses; CSV/JSON serialization lives in the CLI layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .bridge import BridgeConfig, cycle, draw_latents, sample_shared, transfer
from .clip import LatentClip
from .coupling import CouplingConfig
from .dataset import Corpus, CorpusSpec, build_corpus, render_melody_clip
from .denoiser import NeuralDenoiser
from .errors import ConfigurationError, ContractViolation, DataError, DomainError
from .featurecodec import FeatureCodecSpec, NormalizationStats
from .gmm import GaussianMixture, GaussianMixtureDenoiser
from .metrics import (
    MetricsReport,
    TimbreClassifier,
    dpd,
    embed_clips,
    evaluate_transfer,
    pitch_class_matrix,
    train_timbre_classifier,
    unrelated_pair_dpd,
)
from .pfode import (
    METHOD_ORDERS,
    SolverSpec,
    fit_loglog_slope,
    max_grid_spacing,
    ode_solve,
)
from .schedule import ScheduleParams
from .synthdata import HOME_REGISTERS, ShiftAugmentation, get_instrument, pitch_shift
from .training import TrainingConfig, TrainingReport, train

# ---------------------------------------------------------------------------
# distributional distances


def gmm_box(gmm: GaussianMixture) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension bounds covering every component mean +- 4 stds."""
    std = np.sqrt(gmm.variances)
    return (gmm.means - 4.0 * std).min(axis=0), (gmm.means + 4.0 * std).max(axis=0)


def histogram_tv(
    a: np.ndarray, b: np.ndarray, box: tuple[np.ndarray, np.ndarray], bins: int = 64
) -> float:
    """Total variation between 2-D histograms on a fixed grid.

    Out-of-box mass is collected into one extra virtual cell so the estimate
    stays a valid TV between probability vectors.
    """
    lo, hi = box
    if a.shape[1] != 2 or b.shape[1] != 2:
        raise ContractViolation("grid TV is defined for 2-D samples only")
    rng = [(lo[0], hi[0]), (lo[1], hi[1])]
    ha, _, _ = np.histogram2d(a[:, 0], a[:, 1], bins=bins, range=rng)
    hb, _, _ = np.histogram2d(b[:, 0], b[:, 1], bins=bins, range=rng)
    pa, pb = ha / len(a), hb / len(b)
    return 0.5 * (np.abs(pa - pb).sum() + abs((1 - pa.sum()) - (1 - pb.sum())))


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Sample energy distance 2 E||X-Y|| - E||X-X'|| - E||Y-Y'||."""

    def mean_pdist(u, v):
        total = 0.0
        # blocks of 2048 rows bound the distance matrix held at once
        for i in range(0, len(u), 2048):
            du = u[i : i + 2048]
            total += np.sqrt(
                np.maximum(
                    np.sum(du * du, axis=1)[:, None]
                    + np.sum(v * v, axis=1)[None, :]
                    - 2.0 * du @ v.T,
                    0.0,
                )
            ).sum()
        return total / (len(u) * len(v))

    return 2.0 * mean_pdist(x, y) - mean_pdist(x, x) - mean_pdist(y, y)


# ---------------------------------------------------------------------------
# convergence study (analytic mixtures)


@dataclass
class ConvergencePoint:
    n_steps: int
    h: float
    solve_l2: float  # single forward-solve endpoint error
    transfer_l2: float  # full-transfer endpoint error
    tv: float | None
    energy: float | None


@dataclass
class ConvergenceResult:
    method: str
    expected_order: int
    points: list[ConvergencePoint]
    slope: float  # fitted on single-solve errors; the order instrument
    transfer_slope: float  # fitted on composite-transfer errors, for inspection
    reference_steps: int
    tv_floor: float | None
    distance_kind: str


def convergence_study(
    source_gmm: GaussianMixture,
    target_gmm: GaussianMixture,
    methods: list[str],
    step_counts: list[int],
    n_samples: int,
    seed: int = 0,
    schedule: ScheduleParams | None = None,
    reference_steps: int | None = None,
    tv_reference_samples: int = 100_000,
    measure_endpoint_l2: bool = True,
) -> list[ConvergenceResult]:
    """Solver-order and distributional-transfer measurements per method and N.

    Two endpoint errors are reported against Heun references on a 32x finer
    grid: the single forward solve under the source model, and the full
    dual-bridge transfer. The order estimate (``slope``) is fitted on the
    single-solve errors: composite transfers run the same top-grid segment
    in both directions, and the partial cancellation of those steps makes
    the composite error decay faster than h^order (superconvergence), which
    biases its fitted slope upward. The composite fit is still reported as
    ``transfer_slope``. Fourth-order fits exclude the finest grids, where
    errors sit at the reference floor. In d=2 the distributional distance
    of the transferred cloud is histogram TV against fresh target draws
    (with a target-vs-target sampling floor); in higher dimension it is the
    energy distance, labeled as such. Distribution-only runs can pass
    ``measure_endpoint_l2=False`` to skip the costly reference solves; the
    L2 columns and slopes then come back as NaN.
    """
    if len(step_counts) < 3:
        raise ConfigurationError("need at least 3 step counts for a slope fit")
    step_counts = sorted(step_counts)
    if schedule is None:
        schedule = ScheduleParams()
    d = source_gmm.dim
    if d != target_gmm.dim:
        raise ConfigurationError("source/target mixtures disagree on dimension")
    use_tv = d == 2
    src = GaussianMixtureDenoiser(source_gmm, (d, 1))
    tgt = GaussianMixtureDenoiser(target_gmm, (d, 1))
    if reference_steps is None:
        reference_steps = 32 * max(step_counts)
    if reference_steps < 32 * max(step_counts):
        raise ConfigurationError("reference grid must be >= 32x the finest tested grid")

    hs_all = [max_grid_spacing(schedule.with_steps(n)) for n in step_counts]
    if max(hs_all) / min(hs_all) < 4.0:
        raise ConfigurationError("step counts must span at least 4x in h")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    x_src = src.sample_clips(n_samples, rng)
    fresh_tgt = target_gmm.sample(n_samples, rng)
    box = gmm_box(target_gmm)
    ref_cloud = tv_floor = None
    if use_tv:
        ref_cloud = target_gmm.sample(tv_reference_samples, rng)
        tv_floor = histogram_tv(fresh_tgt, ref_cloud, box)

    def run_transfer(method: str, n: int) -> np.ndarray:
        cfg = BridgeConfig(src, tgt, schedule.with_steps(n), solver_method=method)
        return transfer(x_src, cfg)

    def run_solve(method: str, n: int) -> np.ndarray:
        spec = SolverSpec(method, schedule.with_steps(n), "forward")
        return ode_solve(x_src, src, spec)

    transfer_ref = solve_ref = None
    if measure_endpoint_l2:
        transfer_ref = run_transfer("heun", reference_steps)
        solve_ref = run_solve("heun", reference_steps)

    def mean_l2(a, b):
        if b is None:
            return float("nan")
        return float(np.mean(np.linalg.norm((a - b).reshape(n_samples, -1), axis=1)))

    results = []
    for method in methods:
        points = []
        for n in step_counts:
            solve_err = (
                mean_l2(run_solve(method, n), solve_ref)
                if measure_endpoint_l2
                else float("nan")
            )
            out = run_transfer(method, n)
            flat = out.reshape(n_samples, -1)
            tv = histogram_tv(flat, ref_cloud, box) if use_tv else None
            en = None if use_tv else energy_distance(flat, fresh_tgt)
            points.append(
                ConvergencePoint(
                    n,
                    max_grid_spacing(schedule.with_steps(n)),
                    solve_err,
                    mean_l2(out, transfer_ref),
                    tv,
                    en,
                )
            )
        if not measure_endpoint_l2:
            slope = transfer_slope = float("nan")
        else:
            # avoid the reference floor for the fourth-order method: drop the
            # finest grids, keeping at least 3 points spanning >= 4x in h
            fit = points
            if METHOD_ORDERS[method] >= 4 and len(points) > 3:
                keep = len(points) - 1
                while keep > 3 and points[0].h / points[keep - 1].h >= 4.0:
                    keep -= 1
                fit = points[: max(keep, 3) + 1]
            slope = fit_loglog_slope(
                [p.h for p in fit], [max(p.solve_l2, 1e-300) for p in fit]
            )
            transfer_slope = fit_loglog_slope(
                [p.h for p in points], [max(p.transfer_l2, 1e-300) for p in points]
            )
        results.append(
            ConvergenceResult(
                method=method,
                expected_order=METHOD_ORDERS[method],
                points=points,
                slope=slope,
                transfer_slope=transfer_slope,
                reference_steps=reference_steps,
                tv_floor=tv_floor,
                distance_kind="tv" if use_tv else "energy",
            )
        )
    return results


# ---------------------------------------------------------------------------
# the trained-instrument testbed


@dataclass
class Testbed:
    codec: FeatureCodecSpec
    corpora: dict[str, Corpus]
    models: dict[tuple[str, float], NeuralDenoiser]
    reports: dict[tuple[str, float], TrainingReport]
    classifier: TimbreClassifier
    base_schedule: ScheduleParams
    train_config: TrainingConfig
    seed: int = 0

    def schedule(self, sigma_max: float) -> ScheduleParams:
        return replace(self.base_schedule, sigma_max=sigma_max)

    def model(self, instrument: str, sigma_max: float) -> NeuralDenoiser:
        try:
            return self.models[(instrument, sigma_max)]
        except KeyError:
            raise ConfigurationError(
                f"no checkpoint for {instrument!r} at sigma_max={sigma_max}"
            ) from None

    def similarity_threshold(self) -> float:
        """25th percentile of DPD between unrelated test clips, all instruments."""
        clips = []
        for corpus in self.corpora.values():
            clips.extend(corpus.clips("test"))
        return float(np.percentile(unrelated_pair_dpd(clips, self.codec), 25))


def build_testbed(
    instruments: list[str],
    n_train: int,
    n_test: int,
    seed: int = 0,
    train_config: TrainingConfig | None = None,
    augmentation: dict[str, ShiftAugmentation] | None = None,
) -> Testbed:
    """Generate corpora, train one denoiser per instrument on the default schedule,
    and train the shared timbre classifier on all instruments' training clips."""
    codec = FeatureCodecSpec()
    train_config = train_config or TrainingConfig()
    base_schedule = ScheduleParams()
    augmentation = augmentation or {}
    corpora = {}
    for k, name in enumerate(instruments):
        corpora[name] = build_corpus(
            CorpusSpec(
                name,
                n_train=n_train,
                n_test=n_test,
                seed=seed * 1000 + k,
                augmentation=augmentation.get(name),
            ),
            codec,
        )
    models, reports = {}, {}
    for k, name in enumerate(instruments):
        cfg = replace(train_config, seed=seed * 100 + k)
        model, report = train(
            corpora[name].normalized("train"),
            base_schedule,
            cfg,
            stats=corpora[name].stats,
            label=name,
        )
        models[(name, base_schedule.sigma_max)] = model
        reports[(name, base_schedule.sigma_max)] = report
    train_clips = [c for corpus in corpora.values() for c in corpus.clips("train")]
    classifier = train_timbre_classifier(embed_clips(train_clips), seed=seed)
    return Testbed(
        codec,
        corpora,
        models,
        reports,
        classifier,
        base_schedule,
        train_config,
        seed,
    )


def transfer_features(
    clips: list[LatentClip],
    config: BridgeConfig,
    source_stats: NormalizationStats,
    target_stats: NormalizationStats,
) -> list[LatentClip]:
    """Feature-domain transfer, the one path every transfer takes: normalize
    with the source statistics, bridge, denormalize with the target's."""
    out = transfer(source_stats.stack(clips), config)
    return target_stats.unstack(out, config.target_model.label)


def transfer_clips(
    testbed: Testbed,
    source: str,
    target: str,
    sigma_max: float,
    sigma_top: float,
    clips: list[LatentClip] | None = None,
) -> tuple[list[LatentClip], list[LatentClip]]:
    """Transfer feature-domain clips and return (originals, transferred).

    Inputs are normalized with the source corpus statistics, bridged, and
    the outputs denormalized with the target statistics.
    """
    src_model = testbed.model(source, sigma_max)
    tgt_model = testbed.model(target, sigma_max)
    sched = testbed.schedule(sigma_max)
    cfg = BridgeConfig(src_model, tgt_model, sched, inference_top_sigma=sigma_top)
    if clips is None:
        clips = testbed.corpora[source].clips("test")
    transferred = transfer_features(
        clips, cfg, testbed.corpora[source].stats, testbed.corpora[target].stats
    )
    return list(clips), transferred


# ---------------------------------------------------------------------------
# ablation studies


@dataclass
class AblationRow:
    setting: str
    dpd: float
    jaccard: float
    frechet: float
    accuracy: float


@dataclass
class AblationTable:
    rows: list[AblationRow]
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            values = (row.dpd, row.jaccard, row.frechet, row.accuracy)
            if not np.all(np.isfinite(values)):
                raise DataError(f"non-finite metrics in row {row.setting!r}")

    def row(self, setting: str) -> AblationRow:
        for r in self.rows:
            if r.setting == setting:
                return r
        raise KeyError(setting)


def evaluate_testbed_transfer(
    testbed: Testbed, source: str, target: str, originals, transferred
) -> MetricsReport:
    """Metrics of a transfer against the target corpus' test split."""
    reference = testbed.corpora[target].clips("test")
    report, _ = evaluate_transfer(
        originals, transferred, reference, testbed.classifier, testbed.codec, target
    )
    return report


def scored_row(
    testbed: Testbed, setting: str, source: str, target: str, originals, transferred
) -> AblationRow:
    """One ablation row: the metrics of a transfer under the label ``setting``."""
    r = evaluate_testbed_transfer(testbed, source, target, originals, transferred)
    return AblationRow(setting, r.dpd, r.jaccard, r.frechet, r.classifier_accuracy)


def trend_non_increasing(values: list[float]) -> bool:
    """Non-increasing up to one adjacent violation of at most 10%."""
    violations = 0
    for prev, cur in zip(values, values[1:]):
        if cur > prev * 1.10:
            return False
        if cur > prev:
            violations += 1
    return violations <= 1


def sigma_ablation(
    testbed: Testbed,
    source: str,
    target: str,
    sigma_pairs: list[tuple[float, float]],
    n_clips: int = 200,
) -> AblationTable:
    """Transfer metrics per (training sigma_max, inference top sigma) pair,
    with a monotonicity verdict for DPD as the top sigma decreases."""
    clips = testbed.corpora[source].clips("test")[:n_clips]
    rows = []
    dpd_by_top = {}
    for sigma_max, sigma_top in sigma_pairs:
        originals, transferred = transfer_clips(
            testbed, source, target, sigma_max, sigma_top, clips
        )
        setting = f"sigma_max={sigma_max:g},sigma_top={sigma_top:g}"
        rows.append(scored_row(testbed, setting, source, target, originals, transferred))
        if sigma_max == max(s for s, _ in sigma_pairs):
            dpd_by_top[sigma_top] = rows[-1].dpd
    notes = {}
    if len(dpd_by_top) >= 2:
        tops = sorted(dpd_by_top, reverse=True)
        seq = [dpd_by_top[t] for t in tops]
        notes["dpd_vs_sigma_top"] = dict(zip(map(str, tops), seq))
        notes["dpd_non_increasing"] = trend_non_increasing(seq)
    return AblationTable(rows, notes)


def coupling_ablation(
    testbed: Testbed,
    source: str,
    target: str,
    configs: list[CouplingConfig] | None = None,
    sigma_max: float = 100.0,
    sigma_top: float = 5.0,
    n_clips: int = 100,
) -> AblationTable:
    """Metrics per coupling configuration; models are retrained per config.

    No directional assertion is made: the table is reported for inspection,
    alongside the mean training assignment cost per configuration.
    """
    if configs is None:
        configs = [
            CouplingConfig(0, 0),
            CouplingConfig(4, 0),
            CouplingConfig(4, 8),
        ]
    clips = testbed.corpora[source].clips("test")[:n_clips]
    sched = testbed.schedule(sigma_max)
    rows, costs = [], {}
    for config in configs:
        label = f"({config.time_chunk},{config.channel_chunk})"
        variant = {}
        mean_costs = []
        for inst in (source, target):
            corpus = testbed.corpora[inst]
            cfg = replace(testbed.train_config, coupling=config)
            model, report = train(
                corpus.normalized("train"), sched, cfg, stats=corpus.stats, label=inst
            )
            variant[inst] = model
            if report.mean_assignment_cost is not None:
                mean_costs.append(report.mean_assignment_cost)
        bridge_cfg = BridgeConfig(
            variant[source], variant[target], sched, inference_top_sigma=sigma_top
        )
        transferred = transfer_features(
            clips, bridge_cfg, testbed.corpora[source].stats, testbed.corpora[target].stats
        )
        rows.append(scored_row(testbed, label, source, target, clips, transferred))
        costs[label] = float(np.mean(mean_costs)) if mean_costs else None
    return AblationTable(rows, {"mean_assignment_cost": costs})


def pitch_shift_study(
    testbed: Testbed,
    source: str,
    target: str,
    shifts: tuple[int, ...] = (0, -12, -24),
    sigma_max: float = 100.0,
    sigma_top: float | None = None,
    n_clips: int = 128,
) -> AblationTable:
    """Transfer metrics per inference-time source shift for an octave-mismatched pair.

    DPD is measured between the shifted input clip (what actually entered
    the bridge) and the transferred output, so it reads as melody
    preservation through the bridge rather than transposition distance.
    The default top noise level is the full sigma_max: register mismatch
    shows up through how strongly the target model must rework the
    content, and that separation grows with the transferred noise range.
    """
    if sigma_top is None:
        sigma_top = sigma_max
    src_home = HOME_REGISTERS[source]
    tgt_home = HOME_REGISTERS[target]
    if src_home[0] - tgt_home[0] < 12:
        raise ContractViolation(
            f"source home register {src_home} is not at least an octave above "
            f"target {tgt_home}; the shift study is meaningless for matched registers"
        )
    inst = get_instrument(source)
    melodies = testbed.corpora[source].melodies("test")[:n_clips]
    rows = []
    for shift in shifts:
        shifted = [pitch_shift(m, shift) for m in melodies]
        for mel in shifted:
            for note in mel.notes:
                if not (inst.register[0] <= note.midi_pitch <= inst.register[1]):
                    raise DomainError(
                        f"shift {shift} leaves the {source} register {inst.register}"
                    )
        clips = [
            render_melody_clip(mel, source, testbed.codec, noise_seed=k)
            for k, mel in enumerate(shifted)
        ]
        originals, transferred = transfer_clips(
            testbed, source, target, sigma_max, sigma_top, clips
        )
        rows.append(
            scored_row(testbed, f"shift={shift}", source, target, originals, transferred)
        )
    return AblationTable(rows)


# ---------------------------------------------------------------------------
# shared latent and cycle studies


@dataclass
class SharedLatentSummary:
    n_trials: int
    median_dpd_same: float
    median_dpd_independent: float
    threshold: float | None
    fraction_same_below: float | None
    fraction_independent_below: float | None


def shared_latent_study(
    testbed: Testbed,
    instrument_a: str,
    instrument_b: str,
    n_trials: int = 100,
    sigma_top: float | None = None,
    sigma_max: float = 100.0,
    seed: int = 0,
) -> SharedLatentSummary:
    """Generate from both models with shared versus independent latents.

    Reports median DPD under both conditions and, when more than one trial
    is run, the fraction of pairs below the calibrated similarity threshold.
    """
    model_a = testbed.model(instrument_a, sigma_max)
    model_b = testbed.model(instrument_b, sigma_max)
    sched = testbed.schedule(sigma_max)
    cfg = BridgeConfig(model_a, model_b, sched, inference_top_sigma=sigma_top)
    shape = (testbed.codec.n_bands, testbed.codec.clip_frames)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x51]))
    lat_a = draw_latents(n_trials, shape, cfg, rng)
    lat_b = draw_latents(n_trials, shape, cfg, rng)

    stats_a = testbed.corpora[instrument_a].stats
    stats_b = testbed.corpora[instrument_b].stats
    gen_a = stats_a.unstack(sample_shared(lat_a, model_a, cfg), None)
    gen_b_same = stats_b.unstack(sample_shared(lat_a, model_b, cfg), None)
    gen_b_indep = stats_b.unstack(sample_shared(lat_b, model_b, cfg), None)

    def dpds(xs, ys):
        return np.array(
            [
                dpd(
                    pitch_class_matrix(x, testbed.codec),
                    pitch_class_matrix(y, testbed.codec),
                )
                for x, y in zip(xs, ys)
            ]
        )
    d_same = dpds(gen_a, gen_b_same)
    d_indep = dpds(gen_a, gen_b_indep)
    if n_trials < 2:
        return SharedLatentSummary(
            n_trials, float(d_same[0]), float(d_indep[0]), None, None, None
        )
    threshold = testbed.similarity_threshold()
    return SharedLatentSummary(
        n_trials,
        float(np.median(d_same)),
        float(np.median(d_indep)),
        threshold,
        float(np.mean(d_same < threshold)),
        float(np.mean(d_indep < threshold)),
    )


@dataclass
class CyclePoint:
    n_steps: int
    mean_normalized_l2: float
    wall_seconds_per_transfer: float


def cycle_study(
    source_model,
    target_model,
    x_batch: np.ndarray,
    step_counts: list[int],
    base_schedule: ScheduleParams,
    sigma_top: float | None = None,
    method: str = "heun",
) -> list[CyclePoint]:
    """Mean normalized reconstruction error of the full cycle per step count."""
    if len(step_counts) < 3:
        raise ConfigurationError("need at least 3 step counts")
    points = []
    for n in sorted(step_counts):
        sched = base_schedule.with_steps(n)
        cfg = BridgeConfig(
            source_model,
            target_model,
            sched,
            inference_top_sigma=sigma_top,
            solver_method=method,
        )
        t0 = time.perf_counter()
        out = cycle(x_batch, cfg)
        wall = (time.perf_counter() - t0) / 2.0  # a cycle is two transfers
        points.append(CyclePoint(n, float(np.mean(cycle_errors(x_batch, out))), wall))
    return points


def cycle_errors(x: np.ndarray, back: np.ndarray) -> np.ndarray:
    """Per-clip reconstruction error ||back - x|| / ||x|| of a (B, C, T) batch."""
    err = np.linalg.norm((back - x).reshape(len(x), -1), axis=1)
    norm = np.linalg.norm(x.reshape(len(x), -1), axis=1)
    return err / norm
