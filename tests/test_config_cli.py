import json
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
