"""The benchmark's three workloads and the per-layer figures of a traced run.

A workload makes its inputs from the benchmark seed in ``setup``, does the
same work in every ``run_round`` and, once the measured rounds are over,
checks the first round's output and the determinism of all rounds in
``verify``. The program sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import inspect
import os
from pathlib import Path

import numpy as np

import timbrebridge
from timbrebridge import (
    bridge,
    coupling,
    dataset,
    denoiser,
    metrics,
    network,
    pfode,
    schedule,
    studies,
    training,
)
from timbrebridge.featurecodec import FeatureCodecSpec
from timbrebridge.gmm import GaussianMixture, GaussianMixtureDenoiser

import checks
from tracer import NAME, PHASE, ancestor_info, package_modules, patched, summarize

SOURCE, TARGET = "flute_like", "violin_like"


def derive(seed: int, tag: int) -> int:
    """A 32-bit seed for one input of the workload, from the benchmark seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def recorded_calls(module_name: str, attr: str, calls: list, keep):
    """Patch ``module_name.attr`` wherever the package binds it, appending
    ``keep(arguments by name, result)`` of every call to ``calls``."""

    def record(fn):
        signature = inspect.signature(fn)

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(keep(signature.bind(*args, **kwargs).arguments, result))
            return result

        return recorded

    return patched(package_modules(timbrebridge), module_name, attr, record)


class Train:
    """``training.train`` with the default TrainingConfig (batch 16, 4x8 OT coupling)."""

    op = "training step"
    N_CLIPS = 64
    # the last tenth of a 200-step loss curve lies clearly below its first tenth
    STEPS = 200

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ops_per_round = self.STEPS
        self.couplings: list = []

    def setup(self) -> None:
        spec = dataset.CorpusSpec(SOURCE, n_train=self.N_CLIPS, n_test=0, seed=derive(self.seed, 1))
        self.corpus = dataset.build_corpus(spec, FeatureCodecSpec())
        self.data = self.corpus.normalized("train")
        self.schedule = schedule.ScheduleParams()
        self.config = training.TrainingConfig(n_steps=self.STEPS, seed=derive(self.seed, 2))

    def _train(self):
        return training.train(
            self.data, self.schedule, self.config, stats=self.corpus.stats, label=SOURCE
        )

    def run_round(self, index: int):
        if index > 0:
            return self._train()
        with recorded_calls("coupling", "ot_pair", self.couplings, lambda _, result: result):
            return self._train()

    @staticmethod
    def summary(output):
        return output[1].loss_curve

    def verify(self, output, summaries) -> None:
        model, report = output
        checks.check_same("training loss curve", summaries)
        checks.check_loss_decreases(report.loss_curve)
        if len(self.couplings) != self.STEPS:
            raise checks.CheckFailed(
                f"{len(self.couplings)} OT couplings recorded for {self.STEPS} steps"
            )
        checks.check_couplings(self.couplings, self.config.batch_size)

        rng = np.random.default_rng(derive(self.seed, 3))
        x0 = np.stack([c.data for c in self.data[:4]])
        noise = rng.standard_normal(x0.shape)
        grid = schedule.sigma_grid(self.schedule)
        sig = grid[rng.integers(0, len(grid), size=len(x0))]
        _, grads = training.batch_loss_and_grads(model, x0, noise, sig)
        keys = sorted(model.params)
        coords = []
        for k in rng.integers(0, len(keys), size=12):
            key = keys[k]
            coords.append((key, tuple(int(rng.integers(0, n)) for n in model.params[key].shape)))
        numeric = checks.finite_difference_gradients(
            lambda: training.batch_loss_and_grads(model, x0, noise, sig)[0],
            model.params,
            coords,
        )
        checks.check_close(
            "analytic gradient vs central differences",
            [grads[key][idx] for key, idx in coords],
            numeric,
            1e-5,
        )

        d, e = rng.standard_normal((2, 6, 8, 4))
        one_chunk = coupling.CouplingConfig(time_chunk=4, channel_chunk=8)
        result = coupling.ot_pair(d, e, one_chunk)
        checks.check_assignment_optimal(
            float(result.costs[0]), checks.brute_force_assignment_cost(d, e)
        )


class SigmaSweep:
    """``studies.sigma_ablation`` flute_like -> violin_like at several sigma_top levels."""

    op = "clip transferred and scored at one sigma_top level"
    # the program's own sweeps transfer 100-200 clips at once, and the cost
    # of a clip grows with the batch
    N_CLIPS = 100
    LEVELS = (5.0, 20.0, 100.0)  # the forward solves are prefixes of one another
    # rows of the timed batch that the check transfers again, as a batch of
    # this size; the first and the last row are always among them
    N_SAMPLED = 8

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops_per_round = self.N_CLIPS * len(self.LEVELS)
        self.scored: list = []

    def setup(self) -> None:
        codec = FeatureCodecSpec()
        sched = schedule.ScheduleParams()
        corpora, models = {}, {}
        for k, name in enumerate((SOURCE, TARGET)):
            spec = dataset.CorpusSpec(
                name, n_train=32, n_test=self.N_CLIPS, seed=derive(self.seed, 10 + k)
            )
            corpora[name] = dataset.build_corpus(spec, codec)
            # the cost of an evaluation does not depend on the weights, so
            # seeded untrained models stand in for trained ones
            model = denoiser.new_denoiser(
                network.ArchSpec(),
                sched,
                seed=derive(self.seed, 20 + k),
                stats=corpora[name].stats,
                label=name,
            )
            path = self.workdir / f"{name}.tbc"
            denoiser.save_denoiser(path, model)
            models[(name, sched.sigma_max)] = denoiser.load_denoiser(path)
        train_clips = [c for corpus in corpora.values() for c in corpus.clips("train")]
        classifier = metrics.train_timbre_classifier(
            metrics.embed_clips(train_clips), seed=derive(self.seed, 30)
        )
        self.testbed = studies.Testbed(
            codec, corpora, models, {}, classifier, sched, training.TrainingConfig(), 0
        )
        self.pairs = [(sched.sigma_max, top) for top in self.LEVELS]

    def _sweep(self):
        return studies.sigma_ablation(
            self.testbed, SOURCE, TARGET, self.pairs, n_clips=self.N_CLIPS
        )

    def run_round(self, index: int):
        if index > 0:
            return self._sweep()
        # keep the transfers the sweep scores, so that the check can test them
        with recorded_calls("metrics", "evaluate_transfer", self.scored, lambda args, _: args):
            return self._sweep()

    @staticmethod
    def summary(table):
        return [(r.dpd, r.jaccard, r.frechet, r.accuracy) for r in table.rows]

    def verify(self, table, summaries) -> None:
        checks.check_same("sweep table", summaries)
        tb = self.testbed
        sched = tb.base_schedule
        src = tb.model(SOURCE, sched.sigma_max)
        tgt = tb.model(TARGET, sched.sigma_max)

        if len(self.scored) != len(self.pairs):
            raise checks.CheckFailed(
                f"the sweep scored {len(self.scored)} transfers for {len(self.pairs)} levels"
            )
        clips = tb.corpora[SOURCE].clips("test")[: self.N_CLIPS]
        x = np.stack([tb.corpora[SOURCE].stats.normalize(c).data for c in clips])
        two = x[:2]  # the checks below need only a couple of clips
        rng = np.random.default_rng(derive(self.seed, 41))
        inner = rng.choice(np.arange(1, len(x) - 1), self.N_SAMPLED - 2, replace=False)
        rows = np.sort(np.concatenate([[0, len(x) - 1], inner]))
        rescored = []
        for (_, top), scored in zip(self.pairs, self.scored):
            cfg = bridge.BridgeConfig(src, tgt, sched, inference_top_sigma=top)
            # the timed batch's own output, as the sweep scored it
            timed = np.stack([c.data for c in scored["transferred"]])
            checks.check_close(
                f"rows of the timed batch vs the same clips transferred apart, sigma_top={top:g}",
                timed[rows],
                tb.corpora[TARGET].stats.denormalize_array(bridge.transfer(x[rows], cfg)),
                1e-9,
            )
            checks.check_close(
                f"one clip alone vs its row of the timed batch, sigma_top={top:g}",
                tb.corpora[TARGET].stats.denormalize_array(bridge.transfer(x[-1:], cfg)),
                timed[-1:],
                1e-9,
            )
            report, _ = metrics.evaluate_transfer(**scored)
            rescored.append(
                (report.dpd, report.jaccard, report.frechet, report.classifier_accuracy)
            )
            same = bridge.BridgeConfig(src, src, sched, inference_top_sigma=top)
            checks.check_close(
                f"source=target round trip, sigma_top={top:g}",
                bridge.transfer(two, same),
                two,
                1e-3,
            )
        checks.check_sweep_rows(table.rows, rescored)

        i5 = bridge.BridgeConfig(src, tgt, sched, inference_top_sigma=5.0).top_index()
        top = sched.n_steps - 1

        def solve(x, start, end):
            return pfode.ode_solve(x, src, pfode.SolverSpec("heun", sched, "forward", start, end))

        checks.check_close(
            "forward solve 0->i5 then i5->top vs 0->top",
            solve(solve(two, 0, i5), i5, top),
            solve(two, 0, top),
            1e-12,
        )

        sigmas = np.array([0.05, 7.0])
        feats = network.noise_embedding(np.log(sigmas) / 4.0, src.arch.noise_features)
        params = src.inference_params
        checks.check_close(
            "network.forward vs direct-summation reference",
            network.forward(params, src.arch, two, feats),
            checks.reference_forward(params, two, feats),
            1e-10,
        )
        self._check_gaussian_bridge(sched)

    def _check_gaussian_bridge(self, sched) -> None:
        rng = np.random.default_rng(derive(self.seed, 40))
        shape = (4, 8)
        dim = shape[0] * shape[1]

        def gaussian():
            return GaussianMixture(
                np.ones(1), rng.normal(0.0, 1.0, (1, dim)), rng.uniform(0.3, 2.0, (1, dim))
            )

        gs, gt = gaussian(), gaussian()
        src = GaussianMixtureDenoiser(gs, shape)
        tgt = GaussianMixtureDenoiser(gt, shape)
        x = src.sample_clips(8, rng)
        sigma_lo = sched.sigma_min
        for top in self.LEVELS:
            cfg = bridge.BridgeConfig(src, tgt, sched, inference_top_sigma=top)
            want = checks.gaussian_flow_transfer(
                x.reshape(len(x), dim),
                gs.means[0],
                gs.variances[0],
                gt.means[0],
                gt.variances[0],
                sigma_lo,
                cfg.top_sigma,
            )
            checks.check_close(
                f"Gaussian bridge vs closed-form flow map, sigma_top={top:g}",
                bridge.transfer(x, cfg).reshape(want.shape),
                want,
                1e-3,
            )


class CorpusEval:
    """Corpus synthesis, save/load, classifier training and scoring of oracle transfers."""

    op = "corpus clip synthesized, encoded, written and read back, with the round's scoring"
    N_TRAIN, N_TEST = 48, 24

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops_per_round = 2 * (self.N_TRAIN + self.N_TEST)

    def setup(self) -> None:
        self.codec = FeatureCodecSpec()
        self.specs = {
            name: dataset.CorpusSpec(
                name, n_train=self.N_TRAIN, n_test=self.N_TEST, seed=derive(self.seed, 50 + k)
            )
            for k, name in enumerate((SOURCE, TARGET))
        }

    def run_round(self, index: int):
        built, loaded = {}, {}
        for name, spec in self.specs.items():
            built[name] = dataset.build_corpus(spec, self.codec)
            dataset.save_corpus(self.workdir / name, built[name])
            loaded[name] = dataset.load_corpus(self.workdir / name)
        src, tgt = loaded[SOURCE], loaded[TARGET]
        classifier = metrics.train_timbre_classifier(
            metrics.embed_clips(src.clips("train") + tgt.clips("train")),
            seed=derive(self.seed, 60),
        )
        # oracle transfers: each source test melody rendered by the target instrument
        oracle = [
            dataset.render_melody_clip(m, TARGET, self.codec, noise_seed=k)
            for k, m in enumerate(src.melodies("test"))
        ]
        originals = src.clips("test")
        report, pairs = metrics.evaluate_transfer(
            originals, oracle, tgt.clips("test"), classifier, self.codec, TARGET
        )
        unrelated = metrics.unrelated_pair_dpd(originals, self.codec)
        return {
            "built": built,
            "loaded": loaded,
            "oracle": oracle,
            "report": report,
            "pairs": pairs,
            "unrelated": unrelated,
        }

    @staticmethod
    def summary(out):
        r = out["report"]
        return [r.dpd, r.jaccard, r.frechet, r.classifier_accuracy, *out["unrelated"]]

    def verify(self, out, summaries) -> None:
        checks.check_same("corpus scores", summaries)
        for name in self.specs:
            checks.check_clip_round_trip(
                [r.clip.data for r in out["built"][name].records],
                [r.clip.data for r in out["loaded"][name].records],
            )
        checks.check_oracle_below_unrelated([d for d, _ in out["pairs"]], out["unrelated"])

        originals = out["loaded"][SOURCE].clips("test")
        mats = [metrics.pitch_class_matrix(c, self.codec) for c in originals + out["oracle"]]
        checks.check_columns_sum_to_one(mats)
        n = len(originals)
        some = mats[: min(6, n)]
        others = mats[n : n + len(some)]
        checks.check_dpd_axioms(
            [metrics.dpd(p, p) for p in some],
            [metrics.dpd(p, q) for p, q in zip(some, others)],
            [metrics.dpd(q, p) for p, q in zip(some, others)],
        )
        short = [(p[:, 10:16], q[:, 20:25]) for p, q in zip(some[:3], others[:3])]
        checks.check_dpd_brute_force(
            [metrics.dpd(p, q) for p, q in short],
            [metrics.dpd_brute_force(p, q) for p, q in short],
        )


WORKLOADS = {"train": Train, "sigma_sweep": SigmaSweep, "corpus_eval": CorpusEval}


# ---------------------------------------------------------------------------
# per-layer figures of a traced run


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def conv_gflop(arch: network.ArchSpec, batch: int, frames: int) -> float:
    """Multiply-adds x 2 of the five convolution stages of one forward pass."""
    t = frames + (-frames) % 4
    c, w1, w2 = arch.channels, arch.width1, arch.width2
    macs = t * c * w1 + (t // 2) * w1 * w2 + (t // 4) * w2 * w2 + (t // 2) * w2 * w1 + t * w1 * c
    return 2e-9 * batch * arch.kernel * macs


def _forward_probe(args, kwargs, result):
    b, _, t = np.shape(_arg(args, kwargs, 2, "x"))
    return {"gflop": conv_gflop(_arg(args, kwargs, 1, "arch"), b, t)}


def _backward_probe(args, kwargs, result):
    # weight and input gradients of every stage: twice the forward work
    b, _, t = np.shape(_arg(args, kwargs, 3, "dy"))
    return {"gflop": 2.0 * conv_gflop(_arg(args, kwargs, 1, "arch"), b, t)}


def _solve_probe(args, kwargs, result):
    sigmas = np.asarray(_arg(args, kwargs, 2, "sigmas"))
    forward = len(sigmas) > 1 and sigmas[-1] > sigmas[0]
    return {"steps": len(sigmas) - 1, "direction": "forward" if forward else "reverse"}


def _ot_probe(args, kwargs, result):
    return {
        "assignments": len(result.positions),
        "cost": float(np.sum(result.costs)),
        "identity_cost": float(np.sum(result.identity_costs)),
    }


def _write_probe(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


PROBES = {
    "network.forward": _forward_probe,
    "network.backward": _backward_probe,
    "pfode.solve_sigma_path": _solve_probe,
    "coupling.ot_pair": _ot_probe,
    "clip.write_clip": _write_probe,
}

# per-layer metric prefix -> span names whose figures it adds up
LAYERS = {
    "network.forward": ["network.forward"],
    "network.backward": ["network.backward"],
    "network.noise_embedding": ["network.noise_embedding"],
    "denoiser.denoise": ["denoiser.NeuralDenoiser.denoise"],
    "pfode.solve": ["pfode.solve_sigma_path"],
    "bridge.forward_to_latent": ["bridge.forward_to_latent"],
    "bridge.sample_shared": ["bridge.sample_shared"],
    "training.batch_loss_and_grads": ["training.batch_loss_and_grads"],
    "training.optimizer": ["training.AdamW.step", "training.ema_update", "training.ema_decay"],
    "coupling.ot_pair": ["coupling.ot_pair"],
    "coupling.apply_coupling": ["coupling.apply_coupling"],
    "metrics.pitch_class_matrix": ["metrics.pitch_class_matrix"],
    "metrics.dpd": ["metrics.dpd"],
    "metrics.frechet": ["metrics.frechet"],
    "metrics.train_timbre_classifier": ["metrics.train_timbre_classifier"],
    "metrics.evaluate_transfer": ["metrics.evaluate_transfer"],
    "metrics.unrelated_pair_dpd": ["metrics.unrelated_pair_dpd"],
    "synthdata.synth": ["synthdata.synth"],
    "featurecodec.features": ["featurecodec.features", "featurecodec.band_energies"],
    "dataset.build_corpus": ["dataset.build_corpus"],
    "dataset.save_corpus": ["dataset.save_corpus"],
    "dataset.load_corpus": ["dataset.load_corpus"],
    "clip.write_clip": ["clip.write_clip"],
    "clip.read_clip": ["clip.read_clip"],
    "checkpoint.save": ["checkpoint.save_checkpoint"],
    "checkpoint.load": ["checkpoint.load_checkpoint"],
}

# (metric name, layer, figure, unit); figure is calls, self_s, total_s or a probe key
PER_LAYER = [
    ("network.forward.calls", "network.forward", "calls", "count"),
    ("network.forward.self_s", "network.forward", "self_s", "s"),
    ("network.forward.gflop", "network.forward", "gflop", "GFLOP"),
    ("network.backward.calls", "network.backward", "calls", "count"),
    ("network.backward.self_s", "network.backward", "self_s", "s"),
    ("network.backward.gflop", "network.backward", "gflop", "GFLOP"),
    ("network.noise_embedding.self_s", "network.noise_embedding", "self_s", "s"),
    ("denoiser.denoise.calls", "denoiser.denoise", "calls", "count"),
    ("denoiser.denoise.self_s", "denoiser.denoise", "self_s", "s"),
    ("pfode.solve.calls", "pfode.solve", "calls", "count"),
    ("pfode.steps", "pfode.solve", "steps", "count"),
    ("pfode.solve.self_s", "pfode.solve", "self_s", "s"),
    ("bridge.forward_to_latent.s", "bridge.forward_to_latent", "total_s", "s"),
    ("bridge.sample_shared.s", "bridge.sample_shared", "total_s", "s"),
    ("training.steps", "training.batch_loss_and_grads", "calls", "count"),
    ("training.batch_loss_and_grads.self_s", "training.batch_loss_and_grads", "self_s", "s"),
    ("training.optimizer.self_s", "training.optimizer", "self_s", "s"),
    ("coupling.ot_pair.calls", "coupling.ot_pair", "calls", "count"),
    ("coupling.assignments", "coupling.ot_pair", "assignments", "count"),
    ("coupling.ot_pair.self_s", "coupling.ot_pair", "self_s", "s"),
    ("coupling.apply_coupling.self_s", "coupling.apply_coupling", "self_s", "s"),
    *(
        (f"metrics.{fn}.{fig}", f"metrics.{fn}", fig, unit)
        for fn in ("pitch_class_matrix", "dpd", "frechet", "train_timbre_classifier", "evaluate_transfer")
        for fig, unit in (("calls", "count"), ("self_s", "s"))
    ),
    ("synthdata.synth.self_s", "synthdata.synth", "self_s", "s"),
    ("featurecodec.features.self_s", "featurecodec.features", "self_s", "s"),
    ("dataset.build_corpus.self_s", "dataset.build_corpus", "self_s", "s"),
    ("dataset.save_corpus.self_s", "dataset.save_corpus", "self_s", "s"),
    ("dataset.load_corpus.self_s", "dataset.load_corpus", "self_s", "s"),
    ("clip.bytes_written", "clip.write_clip", "bytes", "B"),
    ("clip.write_clip.self_s", "clip.write_clip", "self_s", "s"),
    ("clip.read_clip.self_s", "clip.read_clip", "self_s", "s"),
    ("checkpoint.save.self_s", "checkpoint.save", "self_s", "s"),
    ("checkpoint.load.self_s", "checkpoint.load", "self_s", "s"),
]


def layer_figures(spans, traced_rounds: list[int], factors: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the set-up total plus the mean over the traced rounds.

    Times are scaled by the speed factor of the phase they ran in (see speed.py).
    """
    n = max(1, len(traced_rounds))
    parts = [
        (summarize(spans, {phase}), factors[phase], phase) for phase in ["setup", *traced_rounds]
    ]

    def figure(layer, fig, with_setup=True):
        setup = rounds = 0.0
        for stats, factor, phase in parts:
            if phase == "setup" and not with_setup:
                continue
            value = 0.0
            for span in LAYERS[layer]:
                st = stats.get(span)
                if st is None:
                    continue
                if fig == "calls":
                    value += st.calls
                elif fig in ("self_s", "total_s"):
                    value += factor * getattr(st, fig)
                else:
                    value += st.info.get(fig, 0.0)
            if phase == "setup":
                setup = value
            else:
                rounds += value
        return setup + rounds / n

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: (figure(layer, fig), unit) for name, layer, fig, unit in PER_LAYER}
    # NFE by the direction of the solve that made them
    phases = {"setup", *traced_rounds}
    nfe = {"forward": [0, 0], "reverse": [0, 0]}  # [set-up, rounds]
    for i, s in enumerate(spans):
        if s[PHASE] in phases and s[NAME] in LAYERS["denoiser.denoise"]:
            direction = ancestor_info(spans, i, "direction")
            if direction in nfe:
                nfe[direction][s[PHASE] != "setup"] += 1
    nfe = {d: setup + rounds / n for d, (setup, rounds) in nfe.items()}
    for d, count in nfe.items():
        out[f"bridge.{d}_nfe"] = (count, "count")
    for d in ("forward", "backward"):
        out[f"network.{d}.gflop_per_s"] = (
            ratio(out[f"network.{d}.gflop"][0], out[f"network.{d}.self_s"][0]),
            "GFLOP/s",
        )
    out["coupling.cost_ratio"] = (
        ratio(figure("coupling.ot_pair", "cost"), figure("coupling.ot_pair", "identity_cost")),
        "ratio",
    )
    # throughputs of the corpus and scoring paths inside the measured rounds
    corpus_s = sum(
        figure(f"dataset.{f}", "total_s", with_setup=False)
        for f in ("build_corpus", "save_corpus", "load_corpus")
    )
    out["dataset.corpus_clips_per_s"] = (
        ratio(figure("clip.write_clip", "calls", with_setup=False), corpus_s),
        "1/s",
    )
    eval_s = figure("metrics.evaluate_transfer", "total_s", with_setup=False) + figure(
        "metrics.unrelated_pair_dpd", "total_s", with_setup=False
    )
    out["metrics.eval_pairs_per_s"] = (
        ratio(figure("metrics.dpd", "calls", with_setup=False), eval_s),
        "1/s",
    )
    return out
