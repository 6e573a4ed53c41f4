import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from timbrebridge.cli import main, parse_and_validate
from timbrebridge.errors import ConfigurationError


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "timbrebridge.cli", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_no_args_usage_exit_2():
    proc = run_cli([])
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_unknown_flag_exit_2():
    assert run_cli(["transfer", "--bogus", "1"]).returncode == 2


def test_missing_required_exit_2():
    assert run_cli(["transfer"]).returncode == 2


def test_type_mismatch_exit_2():
    proc = run_cli(["train", "--data", "x", "--out-ckpt", "y", "--steps", "many"])
    assert proc.returncode == 2


def test_flag_echo():
    cfg = parse_and_validate(
        ["train", "--data", "d", "--out-ckpt", "c", "--sigma-max", "100", "--steps", "100"]
    )
    dump = cfg.to_json()
    assert dump["options"]["sigma_max"] == 100.0
    assert dump["options"]["steps"] == 100
    assert dump["command"] == "train"


def test_config_file_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[transfer]\nsteps = 50\ninference-sigma = 5\n")
    base = [
        "transfer", "--config", str(ini), "--source-ckpt", "a",
        "--target-ckpt", "b", "--input", "x", "--output", "y",
    ]
    cfg = parse_and_validate(base)
    assert cfg["steps"] == 50 and cfg["inference_sigma"] == 5.0
    cfg2 = parse_and_validate(base + ["--steps", "100"])
    assert cfg2["steps"] == 100


def test_json_config_accepted(tmp_path):
    jsn = tmp_path / "run.json"
    jsn.write_text(json.dumps({"transfer": {"steps": 64}}))
    cfg = parse_and_validate(
        ["transfer", "--config", str(jsn), "--source-ckpt", "a",
         "--target-ckpt", "b", "--input", "x", "--output", "y"]
    )
    assert cfg["steps"] == 64


def test_unknown_config_key_names_it(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[transfer]\nbananas = 7\n")
    with pytest.raises(ConfigurationError, match="bananas"):
        parse_and_validate(
            ["transfer", "--config", str(ini), "--source-ckpt", "a",
             "--target-ckpt", "b", "--input", "x", "--output", "y"]
        )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth-data -> train -> transfer -> eval on a micro testbed."""
    root = tmp_path_factory.mktemp("pipeline")

    def cli(*args):
        code = main([str(a) for a in args])
        assert code == 0, f"command failed: {args}"

    cli("synth-data", "--instrument", "flute_like", "--clips", "24",
        "--test-clips", "6", "--seed", "3", "--out", root / "flute")
    cli("synth-data", "--instrument", "violin_like", "--clips", "24",
        "--test-clips", "6", "--seed", "4", "--out", root / "violin")
    cli("train", "--data", root / "flute", "--out-ckpt", root / "ckpt" / "flute.tbc",
        "--train-steps", "50", "--seed", "1")
    cli("train", "--data", root / "violin", "--out-ckpt", root / "ckpt" / "violin.tbc",
        "--train-steps", "50", "--seed", "2")
    cli("train-classifier", "--data", root / "flute", "--data", root / "violin",
        "--out-ckpt", root / "ckpt" / "clf.tbc", "--classifier-steps", "300")
    cli("transfer", "--source-ckpt", root / "ckpt" / "flute.tbc",
        "--target-ckpt", root / "ckpt" / "violin.tbc", "--input", root / "flute",
        "--output", root / "out", "--inference-sigma", "5", "--seed", "7")
    cli("eval", "--originals", root / "flute", "--transferred", root / "out",
        "--target-reference", root / "violin",
        "--classifier-ckpt", root / "ckpt" / "clf.tbc",
        "--report", root / "eval" / "report.json")
    return root


def test_pipeline_outputs_exist(pipeline):
    report = json.loads((pipeline / "eval" / "report.json").read_text())
    for key in ("dpd", "jaccard", "frechet", "classifier_accuracy"):
        assert np.isfinite(report[key])
    assert (pipeline / "eval" / "report.json.pairs.csv").exists()
    assert len(list((pipeline / "out").glob("*.clip"))) == 6


def test_pipeline_manifests(pipeline):
    manifest = json.loads((pipeline / "out" / "run_manifest.json").read_text())
    assert manifest["config"]["command"] == "transfer"
    assert manifest["seed"] == 7
    assert manifest["outputs"]  # sha256 per produced file


def test_artifact_headers(pipeline):
    ckpt = (pipeline / "ckpt" / "flute.tbc").read_bytes()
    assert ckpt[:8] == b"TBRCHKPT"
    clip = next((pipeline / "out").glob("*.clip")).read_bytes()
    assert clip[:8] == b"TBRCLIP1"


def test_transfer_rejects_mismatched_channels(pipeline, tmp_path):
    from timbrebridge.denoiser import save_denoiser, new_denoiser
    from timbrebridge.network import ArchSpec
    from timbrebridge.schedule import ScheduleParams
    from timbrebridge.featurecodec import NormalizationStats

    other = new_denoiser(
        ArchSpec(channels=8, width1=4, width2=6, kernel=3, noise_features=4),
        ScheduleParams(),
        stats=NormalizationStats(np.zeros(8), np.ones(8)),
    )
    save_denoiser(tmp_path / "other.tbc", other)
    code = main([
        "transfer", "--source-ckpt", str(pipeline / "ckpt" / "flute.tbc"),
        "--target-ckpt", str(tmp_path / "other.tbc"),
        "--input", str(pipeline / "flute"), "--output", str(tmp_path / "o"),
    ])
    assert code == 1


def test_cycle_check_cli(pipeline, tmp_path):
    code = main([
        "cycle-check", "--source-ckpt", str(pipeline / "ckpt" / "flute.tbc"),
        "--target-ckpt", str(pipeline / "ckpt" / "violin.tbc"),
        "--input", str(pipeline / "flute"), "--inference-sigma", "5",
        "--limit", "2", "--report", str(tmp_path / "cycle.csv"),
    ])
    assert code == 0
    lines = (tmp_path / "cycle.csv").read_text().strip().splitlines()
    assert lines[0] == "clip_index,normalized_l2"
    assert len(lines) == 3


def test_sample_shared_deterministic_cli(pipeline, tmp_path):
    for out in ("s1", "s2"):
        code = main([
            "sample-shared", "--ckpt", str(pipeline / "ckpt" / "violin.tbc"),
            "--n", "2", "--inference-sigma", "5", "--seed", "21",
            "--out", str(tmp_path / out),
        ])
        assert code == 0
    a = (tmp_path / "s1" / "sample-00000.clip").read_bytes()
    b = (tmp_path / "s2" / "sample-00000.clip").read_bytes()
    assert a == b


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TIMBREBRIDGE_OUT_ROOT", str(tmp_path))
    code = main([
        "synth-data", "--instrument", "flute_like", "--clips", "4",
        "--test-clips", "1", "--seed", "0", "--out", "envds",
    ])
    assert code == 0
    assert (tmp_path / "envds" / "manifest.json").exists()


def test_jobs_flag_removed(tmp_path):
    assert run_cli(["synth-data", "--instrument", "flute_like", "--out",
                    str(tmp_path / "d"), "--jobs", "2"]).returncode == 2
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\njobs = 2\n")
    with pytest.raises(ConfigurationError, match="jobs"):
        parse_and_validate(["synth-data", "--config", str(ini), "--instrument",
                            "flute_like", "--out", str(tmp_path / "d")])


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_missing_checkpoint_is_one_line_error(tmp_path, capsys):
    code = main([
        "transfer", "--source-ckpt", str(tmp_path / "missing.tbc"),
        "--target-ckpt", str(tmp_path / "missing.tbc"),
        "--input", str(tmp_path), "--output", str(tmp_path / "o"),
    ])
    assert code == 1
    assert "FileNotFoundError" in _one_line_error(capsys)


@pytest.fixture()
def no_stats_ckpt(tmp_path, tiny_arch):
    from timbrebridge.denoiser import new_denoiser, save_denoiser
    from timbrebridge.schedule import ScheduleParams

    path = tmp_path / "nostats.tbc"
    save_denoiser(path, new_denoiser(tiny_arch, ScheduleParams()))
    return str(path)


@pytest.mark.parametrize("command", ["cycle-check", "sample-shared", "cycle-study"])
def test_checkpoint_without_stats_is_one_line_error(
    command, pipeline, no_stats_ckpt, tmp_path, capsys
):
    flute = str(pipeline / "flute")
    args = {
        "cycle-check": ["--source-ckpt", no_stats_ckpt, "--target-ckpt", no_stats_ckpt,
                        "--input", flute, "--report", str(tmp_path / "c.csv")],
        "sample-shared": ["--ckpt", no_stats_ckpt, "--out", str(tmp_path / "s")],
        "cycle-study": ["--source-ckpt", no_stats_ckpt, "--target-ckpt", no_stats_ckpt,
                        "--data", flute, "--out", str(tmp_path / "cs")],
    }[command]
    assert main([command, *args]) == 1
    assert "normalization statistics" in _one_line_error(capsys)


def test_transfer_rejects_target_schedule_mismatch(pipeline, tmp_path, capsys):
    from timbrebridge.denoiser import load_denoiser, save_denoiser
    from timbrebridge.schedule import ScheduleParams

    violin = load_denoiser(pipeline / "ckpt" / "violin.tbc")
    violin.schedule = ScheduleParams(sigma_max=5.0)
    save_denoiser(tmp_path / "violin5.tbc", violin)
    args = [
        "transfer", "--source-ckpt", str(pipeline / "ckpt" / "flute.tbc"),
        "--target-ckpt", str(tmp_path / "violin5.tbc"),
        "--input", str(pipeline / "flute"), "--output", str(tmp_path / "o"),
    ]
    assert main(args) == 1  # full grid: top sigma 100 > the target's 5
    assert "sigma_max" in _one_line_error(capsys)
    assert main([*args, "--inference-sigma", "5", "--limit", "1"]) == 0


def test_malformed_json_config_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = main([
        "transfer", "--config", str(bad), "--source-ckpt", "a", "--target-ckpt", "b",
        "--input", "x", "--output", "y",
    ])
    assert code == 2
    assert _one_line_error(capsys).startswith("usage error:")


def _cut_header(path):
    path.write_bytes(path.read_bytes()[:40])


def _append_junk(path):
    path.write_bytes(path.read_bytes() + b"junk")


def _drop_schedule(path):
    from timbrebridge.checkpoint import load_checkpoint, save_checkpoint

    kind, meta, arrays = load_checkpoint(path)
    del meta["schedule"]
    save_checkpoint(path, kind, meta, arrays)


def _break_json(path):
    path.write_text("{")


def _empty_manifest(path):
    path.write_text('{"version": 1}')


@pytest.mark.parametrize(
    "target, damage",
    [
        ("ckpt/flute.tbc", _cut_header),
        ("ckpt/flute.tbc", _append_junk),
        ("ckpt/flute.tbc", _drop_schedule),
        ("flute/manifest.json", _break_json),
        ("flute/manifest.json", _empty_manifest),
        ("flute/stats.json", _break_json),
    ],
)
def test_damaged_input_is_one_line_error(pipeline, tmp_path, capsys, target, damage):
    for part in ("ckpt", "flute"):
        shutil.copytree(pipeline / part, tmp_path / part)
    damage(tmp_path / target)
    code = main([
        "transfer", "--source-ckpt", str(tmp_path / "ckpt" / "flute.tbc"),
        "--target-ckpt", str(tmp_path / "ckpt" / "violin.tbc"),
        "--input", str(tmp_path / "flute"), "--output", str(tmp_path / "o"),
        "--inference-sigma", "5", "--limit", "1",
    ])
    assert code == 1
    assert "DataError" in _one_line_error(capsys)


def _sigma_ablation(pipeline, tmp_path, *ckpts):
    return main([
        "sigma-ablation", "--out", str(tmp_path / "study"),
        "--classifier-ckpt", str(pipeline / "ckpt" / "clf.tbc"),
        "--source-data", str(pipeline / "flute"), "--target-data", str(pipeline / "violin"),
        *[arg for ckpt in ckpts for arg in ("--ckpt", str(ckpt))],
        "--pairs", "100:5", "--clips", "2",
    ])


def _resaved(pipeline, tmp_path, name, **changes):
    """The pipeline's ``name`` checkpoint saved again with ``changes`` applied."""
    from timbrebridge.denoiser import load_denoiser, save_denoiser

    model = load_denoiser(pipeline / "ckpt" / f"{name}.tbc")
    for field, value in changes.items():
        setattr(model, field, value)
    path = tmp_path / f"{name}-changed.tbc"
    save_denoiser(path, model)
    return path


def test_sigma_ablation_reads_instrument_and_sigma_max_from_checkpoints(pipeline, tmp_path):
    ckpt = pipeline / "ckpt"
    assert _sigma_ablation(pipeline, tmp_path, ckpt / "flute.tbc", ckpt / "violin.tbc") == 0
    rows = (tmp_path / "study" / "sigma_ablation.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith('"sigma_max=100,sigma_top=5",')


def test_study_rejects_checkpoint_without_label(pipeline, tmp_path, capsys):
    unlabeled = _resaved(pipeline, tmp_path, "flute", label=None)
    code = _sigma_ablation(pipeline, tmp_path, unlabeled, pipeline / "ckpt" / "violin.tbc")
    assert code == 1
    assert "no instrument label" in _one_line_error(capsys)


def test_study_rejects_two_checkpoints_for_one_model(pipeline, tmp_path, capsys):
    ckpt = pipeline / "ckpt"
    code = _sigma_ablation(
        pipeline, tmp_path, ckpt / "flute.tbc", ckpt / "flute.tbc", ckpt / "violin.tbc"
    )
    assert code == 1
    assert "second checkpoint for 'flute_like' at sigma_max=100" in _one_line_error(capsys)


def test_study_names_the_missing_model(pipeline, tmp_path, capsys):
    from timbrebridge.schedule import ScheduleParams

    violin5 = _resaved(pipeline, tmp_path, "violin", schedule=ScheduleParams(sigma_max=5.0))
    code = _sigma_ablation(pipeline, tmp_path, pipeline / "ckpt" / "flute.tbc", violin5)
    assert code == 1
    assert "'violin_like' at sigma_max=100" in _one_line_error(capsys)
