"""The experiment scripts pass arguments the CLI accepts; checked without training.

Each script's ``main()`` runs with no arguments of its own, and its ``cli``
is replaced by a stub that validates the argv with
``timbrebridge.cli.parse_and_validate`` and returns 0. A renamed flag, a
flag that restates the CLI default, or an input the testbed script does not
produce then fails here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from timbrebridge.cli import COMMANDS, build_parser, parse_and_validate

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
STUDY_SCRIPTS = sorted(p.name for p in SCRIPTS.glob("run_*.py"))
DATA_KEYS = ("source_data", "target_data", "a_data", "b_data", "data")
CKPT_KEYS = ("source_ckpt", "target_ckpt", "classifier_ckpt", "ckpt")


def run_script(name, monkeypatch):
    """The validated configs of every CLI call the script ``name`` makes."""
    path = SCRIPTS / name
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    configs = []

    def stub(argv):
        configs.append(parse_and_validate(argv))
        restated = []
        args = build_parser().parse_args(argv)
        for opt in COMMANDS[args.command][1]:
            value = getattr(args, opt.dest)
            if value is not None and value == opt.default:
                restated.append(opt.name)
        assert not restated, f"{name} restates CLI defaults: {restated}"
        return 0

    monkeypatch.setattr(module, "cli", stub)
    monkeypatch.setattr(sys, "argv", [name])
    try:
        module.main()
    except SystemExit as exc:
        assert exc.code == 0
    return configs


@pytest.fixture()
def testbed(monkeypatch):
    """What build_testbed.py makes: dataset directory -> instrument, and
    denoiser checkpoint -> (instrument, sigma_max), plus the classifier."""
    configs = run_script("build_testbed.py", monkeypatch)
    instruments = {c["out"]: c["instrument"] for c in configs if c.command == "synth-data"}
    models = {
        c["out_ckpt"]: (instruments[c["data"]], c["sigma_max"])
        for c in configs
        if c.command == "train"
    }
    classifiers = {c["out_ckpt"] for c in configs if c.command == "train-classifier"}
    return instruments, models, classifiers


def test_build_testbed_script(testbed):
    instruments, models, classifiers = testbed
    assert sorted(instruments.values()) == ["bassoon_like", "flute_like", "violin_like"]
    assert sorted(models.values()) == [
        ("bassoon_like", 100.0), ("flute_like", 5.0), ("flute_like", 100.0),
        ("violin_like", 5.0), ("violin_like", 100.0),
    ]
    assert len(classifiers) == 1


@pytest.mark.parametrize("name", STUDY_SCRIPTS)
def test_study_script_reads_what_the_testbed_makes(name, testbed, monkeypatch):
    instruments, models, classifiers = testbed
    (config,) = run_script(name, monkeypatch)
    made = {*instruments, *models, *classifiers}
    for key in DATA_KEYS + CKPT_KEYS:
        value = config.get(key) or []
        for path in value if isinstance(value, list) else [value]:
            assert path in made, f"{name}: --{key} {path} is not made by build_testbed.py"
    if "ckpt" not in config.options:
        return
    have = {models[path] for path in config["ckpt"]}
    studied = [instruments[config[key]] for key in DATA_KEYS if config.get(key)]
    if config.command == "sigma-ablation":
        sigma_maxes = {float(p.split(":")[0]) for p in config["pairs"].split(",")}
    else:
        sigma_maxes = {config["sigma_max"]}
    need = {(inst, s) for inst in studied for s in sigma_maxes}
    assert need <= have, f"{name}: no checkpoint for {sorted(need - have)}"
