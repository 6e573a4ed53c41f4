"""Command-line entry point binding all modules.

Subcommands: synth-data, train, train-classifier, transfer, cycle-check,
sample-shared, eval, and the study commands (convergence-study,
sigma-ablation, coupling-ablation, shift-study, shared-latent, cycle-study).
Each is one handler registered in ``COMMANDS`` together with its options.
Every run writes a manifest JSON recording the effective configuration,
seed, package version, and SHA-256 hashes of produced files.

Exit statuses: 0 success, 1 runtime/configuration error, 2 usage error.
The TIMBREBRIDGE_OUT_ROOT environment variable, when set, anchors relative
output paths.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .bridge import BridgeConfig, cycle, draw_latents, sample_shared
from .clip import LatentClip, read_clip, write_clip
from .config import (
    Opt,
    RunConfig,
    load_config_file,
    merge_options,
    parse_bool,
    parse_int_list,
)
from .coupling import CouplingConfig
from .dataset import CorpusSpec, build_corpus, load_corpus, save_corpus
from .denoiser import NeuralDenoiser, load_denoiser, save_denoiser
from .errors import ConfigurationError, TimbrebridgeError
from .featurecodec import FeatureCodecSpec
from .gmm import demo_pair_2d
from .metrics import (
    embed_clips,
    evaluate_transfer,
    load_classifier,
    save_classifier,
    train_timbre_classifier,
)
from .schedule import ScheduleParams
from .studies import (
    AblationTable,
    Testbed,
    convergence_study,
    coupling_ablation,
    cycle_study,
    normalized_stack,
    pitch_shift_study,
    shared_latent_study,
    sigma_ablation,
    transfer_features,
)
from .synthdata import ShiftAugmentation
from .training import TrainingConfig, train

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# option groups and the command table

COMMON_OPTS = [Opt("seed", int, 0, "run seed; all randomness derives from it")]
SCHEDULE_OPTS = [
    Opt("sigma-min", float, 0.01, "lowest noise level of the grid"),
    Opt("sigma-max", float, 100.0, "highest noise level of the grid"),
    Opt("rho", float, 9.0, "grid warp exponent"),
    Opt("steps", int, 100, "number of grid nodes N"),
    Opt("sigma-data", float, 1.0, "data scale entering the preconditioning"),
]
CODEC_OPTS = [
    Opt("sample-rate", int, 8000),
    Opt("bands", int, 32),
    Opt("hop", int, 256),
    Opt("window", int, 512),
    Opt("f-lo", float, 60.0),
    Opt("f-hi", float, 3800.0),
    Opt("clip-seconds", float, 2.048),
]
MODEL_PAIR_OPTS = [
    Opt("source-ckpt", str, required=True),
    Opt("target-ckpt", str, required=True),
]
BRIDGE_OPTS = [
    Opt("inference-sigma", float, None, "top noise level (default: sigma_max)"),
    Opt("solver", str, "heun"),
    Opt("steps", int, None, "override solver grid size"),
]
CLIP_INPUT_OPTS = [
    Opt("input", str, required=True, help="clip file or dataset directory"),
    Opt("split", str, "test", "split to read when input is a dataset"),
    Opt("limit", int, None, "max clips to read"),
]
STUDY_OPTS = [Opt("out", str, required=True), Opt("classifier-ckpt", str, required=True)]
DATA_PAIR_OPTS = [
    Opt("source-data", str, required=True),
    Opt("target-data", str, required=True),
]
CKPT_OPT = Opt(
    "ckpt", str, required=True, repeatable=True,
    help="model checkpoints, format instrument=sigma_max=path",
)

Handler = Callable[[RunConfig], list[Path]]
COMMANDS: dict[str, tuple[Handler, list[Opt]]] = {}


def command(name: str, *opts: Opt):
    """Register the decorated handler as subcommand ``name`` with ``opts``."""

    def register(handler: Handler) -> Handler:
        COMMANDS[name] = (handler, [*COMMON_OPTS, *opts])
        return handler

    return register


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timbrebridge",
        description="Dual diffusion bridges for unpaired instrument timbre transfer.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI or JSON config file")
        p.add_argument("-v", "--verbose", action="store_true")
        for o in opts:
            kwargs: dict = {"dest": o.dest, "default": None, "help": o.help}
            if o.repeatable:
                kwargs["action"] = "append"
            else:
                kwargs["type"] = o.type
            p.add_argument(f"--{o.name}", **kwargs)
    return parser


def parse_and_validate(argv: list[str]) -> RunConfig:
    """argv -> validated RunConfig; flags > config file > defaults."""
    args = build_parser().parse_args(argv)
    opts = COMMANDS[args.command][1]
    cli_values = {o.dest: getattr(args, o.dest) for o in opts}
    sections = load_config_file(args.config) if args.config else None
    effective = merge_options(opts, args.command, cli_values, sections)
    effective["verbose"] = bool(args.verbose)
    return RunConfig(args.command, effective)


# ---------------------------------------------------------------------------
# loading inputs and writing outputs


def _out_path(value: str | Path) -> Path:
    path = Path(value)
    root = os.environ.get("TIMBREBRIDGE_OUT_ROOT")
    if root and not path.is_absolute():
        return Path(root) / path
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, config: RunConfig, outputs: list[Path]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": config.to_json(),
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": {
            str(p.relative_to(out_dir) if p.is_relative_to(out_dir) else p): _sha256(p)
            for p in outputs
            if p.is_file()
        },
    }
    (out_dir / "run_manifest.json").write_text(json.dumps(manifest, indent=1))


def _load_clips(path: Path, split: str, limit) -> list[LatentClip]:
    if (path / "manifest.json").exists():
        clips = load_corpus(path).clips(split)
    elif path.is_dir():
        clips = [read_clip(p) for p in sorted(path.glob("*.clip"))]
    else:
        clips = [read_clip(path)]
    if limit:
        clips = clips[: int(limit)]
    return clips


def _load_model(config: RunConfig, key: str) -> NeuralDenoiser:
    """The denoiser checkpoint named by option ``key``; it must carry the
    normalization statistics that map clips into and out of its domain."""
    path = _out_path(config[key])
    model = load_denoiser(path)
    if model.stats is None:
        raise ConfigurationError(f"{path}: checkpoint carries no normalization statistics")
    return model


def _bridge(config: RunConfig, source, target) -> BridgeConfig:
    """The bridge on the source model's grid, resized by --steps when given."""
    sched = source.schedule
    if config.get("steps"):
        sched = sched.with_steps(config["steps"])
    return BridgeConfig(
        source,
        target,
        sched,
        inference_top_sigma=config.get("inference_sigma"),
        solver_method=config["solver"],
    )


def _parse_ckpt_args(entries: list[str]) -> dict[tuple[str, float], Path]:
    out = {}
    for entry in entries:
        parts = entry.split("=")
        if len(parts) != 3:
            raise ConfigurationError(
                f"--ckpt expects instrument=sigma_max=path, got {entry!r}"
            )
        out[(parts[0], float(parts[1]))] = Path(parts[2])
    return out


def _load_testbed(
    config: RunConfig, data_keys=("source_data", "target_data")
) -> tuple[Testbed, list[str]]:
    """The two corpora, the --ckpt models and the classifier of a study, plus
    the corpora's instrument names in ``data_keys`` order."""
    corpora = [load_corpus(_out_path(config[key])) for key in data_keys]
    ckpts = _parse_ckpt_args(config.get("ckpt", []))
    models = {key: load_denoiser(path) for key, path in ckpts.items()}
    testbed = Testbed(
        codec=corpora[0].codec,
        corpora={c.spec.instrument: c for c in corpora},
        models=models,
        reports={},
        classifier=load_classifier(_out_path(config["classifier_ckpt"])),
        base_schedule=next(iter(models.values())).schedule if models else ScheduleParams(),
        train_config=TrainingConfig(seed=config["seed"]),
        seed=config["seed"],
    )
    return testbed, [c.spec.instrument for c in corpora]


def _write_table(path: Path, header: list[str], rows) -> Path:
    """A CSV file with a header row."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=float))
    return path


def _write_ablation(out: Path, stem: str, table: AblationTable, **extra) -> list[Path]:
    rows = [dataclasses.asdict(r) for r in table.rows]
    header = ["setting", "dpd", "jaccard", "frechet", "accuracy"]
    return [
        _write_table(out / f"{stem}.csv", header, [list(r.values()) for r in rows]),
        _write_json(out / f"{stem}.json", {"rows": rows, **extra}),
    ]


def _write_clips(out: Path, prefix: str, clips: list[LatentClip]) -> list[Path]:
    """``out/<prefix>-00000.clip``, ... one file per clip."""
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{prefix}-{k:05d}.clip" for k in range(len(clips))]
    for path, clip in zip(paths, clips):
        write_clip(path, clip)
    return paths


# ---------------------------------------------------------------------------
# subcommands


@command(
    "synth-data",
    *CODEC_OPTS,
    Opt("instrument", str, required=True),
    Opt("clips", int, 256, "training clips"),
    Opt("test-clips", int, 64),
    Opt("out", str, required=True),
    Opt("augment-probability", float, 0.0, "pitch-shift augmentation probability"),
    Opt("augment-min", int, 1),
    Opt("augment-max", int, 25),
)
def _cmd_synth_data(config: RunConfig) -> list[Path]:
    codec = FeatureCodecSpec(
        sample_rate=config["sample_rate"],
        n_bands=config["bands"],
        hop=config["hop"],
        window=config["window"],
        f_lo=config["f_lo"],
        f_hi=config["f_hi"],
        clip_seconds=config["clip_seconds"],
    )
    augmentation = None
    if config["augment_probability"] > 0:
        augmentation = ShiftAugmentation(
            probability=config["augment_probability"],
            min_shift=config["augment_min"],
            max_shift=config["augment_max"],
        )
    spec = CorpusSpec(
        instrument=config["instrument"],
        n_train=config["clips"],
        n_test=config["test_clips"],
        seed=config["seed"],
        augmentation=augmentation,
    )
    out = _out_path(config["out"])
    save_corpus(out, build_corpus(spec, codec))
    return [out / "manifest.json", out / "stats.json"]


@command(
    "train",
    *SCHEDULE_OPTS,
    Opt("data", str, required=True, help="dataset directory"),
    Opt("out-ckpt", str, required=True),
    Opt("train-steps", int, 4000),
    Opt("batch-size", int, 16),
    Opt("lr", float, 1e-4),
    Opt("coupling.enabled", parse_bool, True),
    Opt("coupling.time-chunk", int, 4),
    Opt("coupling.channel-chunk", int, 8),
)
def _cmd_train(config: RunConfig) -> list[Path]:
    corpus = load_corpus(_out_path(config["data"]))
    coupling = CouplingConfig(
        time_chunk=config["coupling_time_chunk"],
        channel_chunk=config["coupling_channel_chunk"],
        enabled=config["coupling_enabled"],
    )
    tcfg = TrainingConfig(
        n_steps=config["train_steps"],
        batch_size=config["batch_size"],
        lr=config["lr"],
        seed=config["seed"],
        coupling=coupling,
    )
    schedule = ScheduleParams(
        sigma_min=config["sigma_min"],
        sigma_max=config["sigma_max"],
        rho=config["rho"],
        n_steps=config["steps"],
        sigma_data=config["sigma_data"],
    )
    model, report = train(
        corpus.normalized("train"),
        schedule,
        tcfg,
        stats=corpus.stats,
        label=corpus.spec.instrument,
    )
    out = _out_path(config["out_ckpt"])
    save_denoiser(out, model)
    log.info(
        "trained %s: final loss %.4g in %.0f s",
        corpus.spec.instrument,
        report.final_loss,
        report.wall_seconds,
    )
    return [out, Path(str(out) + ".json")]


@command(
    "train-classifier",
    Opt("data", str, required=True, repeatable=True, help="dataset directories"),
    Opt("out-ckpt", str, required=True),
    Opt("classifier-steps", int, 4000),
)
def _cmd_train_classifier(config: RunConfig) -> list[Path]:
    clips = []
    for entry in config["data"]:
        clips.extend(load_corpus(_out_path(entry)).clips("train"))
    clf = train_timbre_classifier(
        embed_clips(clips), n_steps=config["classifier_steps"], seed=config["seed"]
    )
    out = _out_path(config["out_ckpt"])
    save_classifier(out, clf)
    return [out, Path(str(out) + ".json")]


@command(
    "transfer",
    *MODEL_PAIR_OPTS,
    *CLIP_INPUT_OPTS,
    Opt("output", str, required=True),
    *BRIDGE_OPTS,
)
def _cmd_transfer(config: RunConfig) -> list[Path]:
    source = _load_model(config, "source_ckpt")
    target = _load_model(config, "target_ckpt")
    bridge_cfg = _bridge(config, source, target)
    clips = _load_clips(_out_path(config["input"]), config["split"], config.get("limit"))
    transferred = transfer_features(clips, bridge_cfg, source.stats, target.stats)
    out = _out_path(config["output"])
    if len(clips) == 1 and out.suffix:
        write_clip(out, transferred[0])
        return [out]
    return _write_clips(out, "transfer", transferred)


@command(
    "cycle-check",
    *MODEL_PAIR_OPTS,
    *CLIP_INPUT_OPTS,
    Opt("output", str, None),
    *BRIDGE_OPTS,
    Opt("report", str, required=True, help="CSV of per-clip reconstruction errors"),
)
def _cmd_cycle_check(config: RunConfig) -> list[Path]:
    source = _load_model(config, "source_ckpt")
    bridge_cfg = _bridge(config, source, _load_model(config, "target_ckpt"))
    clips = _load_clips(_out_path(config["input"]), config["split"], config.get("limit"))
    x = normalized_stack(clips, source.stats)
    back = cycle(x, bridge_cfg)
    err = np.linalg.norm((back - x).reshape(len(x), -1), axis=1)
    norm = np.linalg.norm(x.reshape(len(x), -1), axis=1)
    rel = err / norm
    outputs = [
        _write_table(
            _out_path(config["report"]),
            ["clip_index", "normalized_l2"],
            enumerate(rel),
        )
    ]
    if config.get("output"):
        outputs += _write_clips(
            _out_path(config["output"]),
            "cycle",
            [LatentClip(source.stats.denormalize_array(arr)) for arr in back],
        )
    log.info("cycle reconstruction: mean %.4g, max %.4g", rel.mean(), rel.max())
    return outputs


@command(
    "sample-shared",
    Opt("ckpt", str, required=True),
    Opt("n", int, 16, "number of latents to draw"),
    Opt("frames", int, 64, "frame count of the generated clips"),
    *BRIDGE_OPTS,
    Opt("out", str, required=True),
)
def _cmd_sample_shared(config: RunConfig) -> list[Path]:
    model = _load_model(config, "ckpt")
    bridge_cfg = _bridge(config, model, model)
    shape = (model.arch.channels, config["frames"])
    rng = np.random.default_rng(np.random.SeedSequence([config["seed"], 0x5A]))
    latents = draw_latents(config["n"], shape, bridge_cfg, rng)
    samples = [
        LatentClip(model.stats.denormalize_array(arr), domain_label=model.label)
        for arr in sample_shared(latents, model, bridge_cfg)
    ]
    return _write_clips(_out_path(config["out"]), "sample", samples)


@command(
    "eval",
    Opt("originals", str, required=True, help="dataset dir or clip dir"),
    Opt("transferred", str, required=True),
    Opt("target-reference", str, required=True, help="target dataset dir"),
    Opt("classifier-ckpt", str, required=True),
    Opt("report", str, required=True, help="output JSON path"),
    Opt("split", str, "test"),
    Opt("limit", int, None),
)
def _cmd_eval(config: RunConfig) -> list[Path]:
    originals, transferred = (
        _load_clips(_out_path(config[key]), config["split"], config.get("limit"))
        for key in ("originals", "transferred")
    )
    reference_corpus = load_corpus(_out_path(config["target_reference"]))
    report, pairs = evaluate_transfer(
        originals,
        transferred,
        reference_corpus.clips("test"),
        load_classifier(_out_path(config["classifier_ckpt"])),
        reference_corpus.codec,
        reference_corpus.spec.instrument,
    )
    report_path = _write_json(_out_path(config["report"]), report.to_dict())
    csv_path = Path(str(report_path) + ".pairs.csv")
    rows = [[k, d, j] for k, (d, j) in enumerate(pairs)]
    return [report_path, _write_table(csv_path, ["pair_index", "dpd", "jaccard"], rows)]


@command(
    "convergence-study",
    Opt("out", str, required=True),
    Opt("methods", str, "euler,heun,rk4"),
    Opt("step-counts", parse_int_list, [10, 20, 40, 80, 160]),
    Opt("samples", int, 4000),
    Opt("reference-steps", int, 5120),
    Opt("sigma-max", float, 100.0),
)
def _cmd_convergence_study(config: RunConfig) -> list[Path]:
    source, target = demo_pair_2d()
    results = convergence_study(
        source,
        target,
        [m.strip() for m in config["methods"].split(",")],
        config["step_counts"],
        n_samples=config["samples"],
        seed=config["seed"],
        schedule=ScheduleParams(sigma_max=config["sigma_max"]),
        reference_steps=config["reference_steps"],
    )
    out = _out_path(config["out"])
    rows = [
        [res.method, p.n_steps, p.h, p.solve_l2, p.transfer_l2, p.tv, res.slope]
        for res in results
        for p in res.points
    ]
    header = ["method", "n_steps", "h", "mean_l2", "transfer_l2", "tv", "slope"]
    return [
        _write_table(out / "convergence.csv", header, rows),
        _write_json(out / "convergence.json", [dataclasses.asdict(r) for r in results]),
    ]


@command(
    "sigma-ablation",
    *STUDY_OPTS,
    *DATA_PAIR_OPTS,
    CKPT_OPT,
    Opt("pairs", str, "100:100,100:50,100:20,100:5", help="sigma_max:sigma_top pairs"),
    Opt("clips", int, 200),
)
def _cmd_sigma_ablation(config: RunConfig) -> list[Path]:
    testbed, (source, target) = _load_testbed(config)
    pairs = [
        (float(a), float(b))
        for a, b in (pair.split(":") for pair in config["pairs"].split(","))
    ]
    table = sigma_ablation(testbed, source, target, pairs, n_clips=config["clips"])
    return _write_ablation(_out_path(config["out"]), "sigma_ablation", table, notes=table.notes)


@command(
    "coupling-ablation",
    *STUDY_OPTS,
    *DATA_PAIR_OPTS,
    Opt("sigma-max", float, 100.0),
    Opt("inference-sigma", float, 5.0),
    Opt("train-steps", int, 4000),
    Opt("batch-size", int, 16),
    Opt("clips", int, 100),
    Opt("configs", str, "0:0,4:0,4:8", "time:channel chunk pairs"),
)
def _cmd_coupling_ablation(config: RunConfig) -> list[Path]:
    testbed, (source, target) = _load_testbed(config)
    testbed.train_config = TrainingConfig(
        n_steps=config["train_steps"], batch_size=config["batch_size"], seed=config["seed"]
    )
    configs = [
        CouplingConfig(int(t), int(c))
        for t, c in (pair.split(":") for pair in config["configs"].split(","))
    ]
    table = coupling_ablation(
        testbed,
        source,
        target,
        configs,
        sigma_max=config["sigma_max"],
        sigma_top=config["inference_sigma"],
        n_clips=config["clips"],
    )
    return _write_ablation(
        _out_path(config["out"]), "coupling_ablation", table, notes=table.notes
    )


@command(
    "shift-study",
    *STUDY_OPTS,
    *DATA_PAIR_OPTS,
    CKPT_OPT,
    Opt("shifts", parse_int_list, [0, -12, -24]),
    Opt("sigma-max", float, 100.0),
    Opt("inference-sigma", float, None, "default: the full sigma_max"),
    Opt("clips", int, 128),
)
def _cmd_shift_study(config: RunConfig) -> list[Path]:
    testbed, (source, target) = _load_testbed(config)
    table = pitch_shift_study(
        testbed,
        source,
        target,
        shifts=tuple(config["shifts"]),
        sigma_max=config["sigma_max"],
        sigma_top=config.get("inference_sigma"),
        n_clips=config["clips"],
    )
    return _write_ablation(_out_path(config["out"]), "shift_study", table)


@command(
    "shared-latent",
    *STUDY_OPTS,
    Opt("a-data", str, required=True),
    Opt("b-data", str, required=True),
    CKPT_OPT,
    Opt("trials", int, 100),
    Opt("sigma-max", float, 100.0),
    Opt("inference-sigma", float, None),
)
def _cmd_shared_latent(config: RunConfig) -> list[Path]:
    testbed, (a, b) = _load_testbed(config, ("a_data", "b_data"))
    summary = shared_latent_study(
        testbed,
        a,
        b,
        n_trials=config["trials"],
        sigma_top=config.get("inference_sigma"),
        sigma_max=config["sigma_max"],
        seed=config["seed"],
    )
    out = _out_path(config["out"]) / "shared_latent.json"
    return [_write_json(out, dataclasses.asdict(summary))]


@command(
    "cycle-study",
    Opt("out", str, required=True),
    *MODEL_PAIR_OPTS,
    Opt("data", str, required=True, help="source dataset directory"),
    Opt("step-counts", parse_int_list, [25, 50, 100, 200]),
    *BRIDGE_OPTS[:2],
    Opt("clips", int, 100),
)
def _cmd_cycle_study(config: RunConfig) -> list[Path]:
    source = _load_model(config, "source_ckpt")
    target = _load_model(config, "target_ckpt")
    clips = load_corpus(_out_path(config["data"])).clips("test")[: config["clips"]]
    points = cycle_study(
        source,
        target,
        normalized_stack(clips, source.stats),
        config["step_counts"],
        source.schedule,
        sigma_top=config.get("inference_sigma"),
        method=config["solver"],
    )
    out = _out_path(config["out"])
    header = ["n_steps", "mean_normalized_l2", "wall_seconds_per_transfer"]
    rows = [[p.n_steps, p.mean_normalized_l2, p.wall_seconds_per_transfer] for p in points]
    return [
        _write_table(out / "cycle_study.csv", header, rows),
        _write_json(out / "cycle_study.json", [dataclasses.asdict(p) for p in points]),
    ]


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    logging.basicConfig(
        level=logging.DEBUG if config.get("verbose") else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    outputs = COMMANDS[config.command][0](config)
    manifest_dir = None
    for key in ("out", "output", "out_ckpt", "report"):
        if config.get(key):
            candidate = _out_path(config[key])
            manifest_dir = candidate if candidate.is_dir() else candidate.parent
            break
    if manifest_dir is not None:
        _write_manifest(manifest_dir, config, [Path(p) for p in outputs])
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_and_validate(argv)
    except TimbrebridgeError as exc:
        # bad flags/config keys are usage errors, like argparse's own
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (TimbrebridgeError, OSError) as exc:
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
