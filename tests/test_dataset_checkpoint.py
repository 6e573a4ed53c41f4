import ast
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timbrebridge
from timbrebridge import checkpoint
from timbrebridge.checkpoint import (
    CHECKPOINT_MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from timbrebridge.clip import LatentClip, read_clip, write_clip
from timbrebridge.dataset import CorpusSpec, build_corpus, load_corpus, save_corpus
from timbrebridge.denoiser import load_denoiser, new_denoiser, save_denoiser
from timbrebridge.errors import DataError
from timbrebridge.featurecodec import NormalizationStats
from timbrebridge.metrics import load_classifier
from timbrebridge.schedule import ScheduleParams


def test_clip_file_roundtrip(tmp_path, rng):
    clip = LatentClip(rng.standard_normal((4, 6)), domain_label="x")
    write_clip(tmp_path / "a.clip", clip)
    back = read_clip(tmp_path / "a.clip", domain_label="x")
    assert back.data == pytest.approx(clip.data, abs=1e-6)  # float32 storage
    assert back.shape == (4, 6)


def test_clip_file_rejects_garbage(tmp_path):
    (tmp_path / "bad.clip").write_bytes(b"NOTACLIPxxxx")
    with pytest.raises(DataError):
        read_clip(tmp_path / "bad.clip")
    (tmp_path / "trunc.clip").write_bytes(
        b"TBRCLIP1" + np.array([2, 3], dtype="<u4").tobytes() + b"\x00" * 8
    )
    with pytest.raises(DataError):
        read_clip(tmp_path / "trunc.clip")


def test_clip_rejects_non_finite():
    bad = np.zeros((2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(DataError):
        LatentClip(bad)


def test_checkpoint_roundtrip(tmp_path, rng):
    arrays = {"a/w": rng.standard_normal((3, 4)), "b": np.arange(5.0)}
    save_checkpoint(tmp_path / "x.tbc", "denoiser", {"k": 1, "s": "v"}, arrays)
    kind, meta, back = load_checkpoint(tmp_path / "x.tbc")
    assert kind == "denoiser" and meta == {"k": 1, "s": "v"}
    for key in arrays:
        assert back[key] == pytest.approx(arrays[key], abs=1e-6)
    sidecar = json.loads((tmp_path / "x.tbc.json").read_text())
    assert sidecar["kind"] == "denoiser" and sidecar["version"] == 1


def test_checkpoint_rejects_bad_magic_and_version(tmp_path):
    path = tmp_path / "x.tbc"
    save_checkpoint(path, "denoiser", {}, {"w": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    bad = tmp_path / "bad.tbc"
    bad.write_bytes(b"WRONGMAG" + bytes(raw[8:]))
    with pytest.raises(DataError):
        load_checkpoint(bad)
    raw2 = bytearray(raw)
    raw2[8] = 99  # version field
    bad2 = tmp_path / "badv.tbc"
    bad2.write_bytes(bytes(raw2))
    with pytest.raises(DataError):
        load_checkpoint(bad2)
    assert raw[:8] == CHECKPOINT_MAGIC


def test_corpus_roundtrip(tmp_path, codec):
    corpus = build_corpus(CorpusSpec("flute_like", n_train=6, n_test=2, seed=1), codec)
    save_corpus(tmp_path / "ds", corpus)
    assert (tmp_path / "ds" / "manifest.json").exists()
    assert (tmp_path / "ds" / "stats.json").exists()
    back = load_corpus(tmp_path / "ds")
    assert back.spec.instrument == "flute_like"
    assert len(back.clips("train")) == 6 and len(back.clips("test")) == 2
    assert back.stats.mean == pytest.approx(corpus.stats.mean)
    assert back.records[0].melody == corpus.records[0].melody
    assert back.records[0].clip.data == pytest.approx(
        corpus.records[0].clip.data, abs=1e-5
    )


def test_corpus_deterministic(codec):
    a = build_corpus(CorpusSpec("violin_like", n_train=4, n_test=1, seed=9), codec)
    b = build_corpus(CorpusSpec("violin_like", n_train=4, n_test=1, seed=9), codec)
    for ra, rb in zip(a.records, b.records):
        assert ra.melody == rb.melody
        assert np.array_equal(ra.clip.data, rb.clip.data)


def test_corpus_augmentation_recorded(codec):
    from timbrebridge.synthdata import ShiftAugmentation

    spec = CorpusSpec(
        "flute_like",
        n_train=40,
        n_test=4,
        seed=5,
        augmentation=ShiftAugmentation(probability=1.0, min_shift=3, max_shift=3),
    )
    corpus = build_corpus(spec, codec)
    train_shifts = [r.shift for r in corpus.records if r.split == "train"]
    test_shifts = [r.shift for r in corpus.records if r.split == "test"]
    assert all(s == -3 for s in train_shifts)
    assert all(s == 0 for s in test_shifts)


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(DataError):
        load_corpus(tmp_path / "nope")


# ---------------------------------------------------------------------------
# damaged checkpoints and datasets


@pytest.fixture(scope="module")
def tiny_files(tmp_path_factory, tiny_arch):
    """A small denoiser checkpoint and a small clip file."""
    root = tmp_path_factory.mktemp("tiny")
    stats = NormalizationStats(np.zeros(2), np.ones(2))
    model = new_denoiser(tiny_arch, ScheduleParams(), seed=1, stats=stats, label="flute_like")
    save_denoiser(root / "tiny.tbc", model)
    write_clip(root / "tiny.clip", LatentClip(np.arange(12.0).reshape(3, 4)))
    return root / "tiny.tbc", root / "tiny.clip"


def test_checkpoint_cut_inside_header(tmp_path, tiny_files):
    cut = tmp_path / "cut.tbc"
    cut.write_bytes(tiny_files[0].read_bytes()[:40])
    with pytest.raises(DataError, match="header"):
        load_checkpoint(cut)


def test_checkpoint_rejects_trailing_bytes(tmp_path, tiny_files):
    long = tmp_path / "long.tbc"
    long.write_bytes(tiny_files[0].read_bytes() + b"junk")
    with pytest.raises(DataError, match="past the last array"):
        load_checkpoint(long)


@pytest.mark.parametrize("key", ["arch", "schedule"])
def test_denoiser_checkpoint_missing_metadata_key(tmp_path, tiny_files, key):
    kind, meta, arrays = load_checkpoint(tiny_files[0])
    del meta[key]
    save_checkpoint(tmp_path / "m.tbc", kind, meta, arrays)
    with pytest.raises(DataError, match=key):
        load_denoiser(tmp_path / "m.tbc")


def _narrow_kernel(arrays):
    for part in ("raw", "ema"):
        arrays[f"{part}/enc1.w"] = arrays[f"{part}/enc1.w"][:, :, 1:2]


def _nan_weight(arrays):
    arrays["ema/enc1.w"][0, 0, 0] = np.nan


@pytest.mark.parametrize(
    "damage, message",
    [
        (_narrow_kernel, r"'raw/enc1.w' has shape \(2, 2, 1\), the arch implies \(2, 2, 3\)"),
        (_nan_weight, "'ema/enc1.w' has non-finite entries"),
    ],
)
def test_denoiser_checkpoint_rejects_weights_its_arch_does_not_describe(
    tmp_path, tiny_files, damage, message
):
    kind, meta, arrays = load_checkpoint(tiny_files[0])
    damage(arrays)
    path = tmp_path / "damaged.tbc"
    save_checkpoint(path, kind, meta, arrays)
    with pytest.raises(DataError, match=message) as info:
        load_denoiser(path)
    assert str(path) in str(info.value)


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "a.clip"
    write_clip(target, LatentClip(np.ones((2, 3))))
    old = target.read_bytes()

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(checkpoint.os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_clip(target, LatentClip(np.zeros((2, 3))))
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["a.clip"]


def _writes_files(call: ast.Call) -> bool:
    """A call of write_bytes or write_text, or an open with a writing mode."""
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in ("write_bytes", "write_text"):
        return True
    modes = [*call.args, *(k.value for k in call.keywords if k.arg == "mode")]
    return name in ("open", "fdopen") and any(
        isinstance(m, ast.Constant)
        and isinstance(m.value, str)
        and set(m.value) <= set("rwxabt+")
        and set(m.value) & set("wxa+")
        for m in modes
    )


def test_only_checkpoint_module_writes_files():
    """Every file the package writes goes through checkpoint.write_file."""
    writers = []
    for path in sorted(Path(timbrebridge.__file__).parent.glob("*.py")):
        if path.name == "checkpoint.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and _writes_files(node):
                writers.append(f"{path.name}:{node.lineno}")
    assert not writers, f"files written outside checkpoint.py at {writers}"


def test_classifier_checkpoint_missing_classes(tmp_path):
    arrays = {name: np.zeros(1) for name in ("in_mean", "in_std", "w1", "b1", "w2", "b2")}
    save_checkpoint(tmp_path / "c.tbc", "classifier", {}, arrays)
    with pytest.raises(DataError, match="classes"):
        load_classifier(tmp_path / "c.tbc")


@pytest.mark.parametrize(
    "name, text",
    [
        ("manifest.json", "{"),
        ("manifest.json", '{"version": 1}'),
        ("manifest.json", "[1]"),
        ("stats.json", "{"),
        ("stats.json", '{"mean": [0.0]}'),
    ],
)
def test_load_corpus_rejects_malformed_json(tmp_path, codec, name, text):
    corpus = build_corpus(CorpusSpec("flute_like", n_train=2, n_test=1, seed=1), codec)
    save_corpus(tmp_path / "ds", corpus)
    (tmp_path / "ds" / name).write_text(text)
    with pytest.raises(DataError):
        load_corpus(tmp_path / "ds")


@settings(max_examples=300, deadline=None)
@given(
    cut=st.booleans(),
    position=st.integers(min_value=0, max_value=2**20),
    mask=st.integers(min_value=1, max_value=255),
)
def test_damaged_files_load_or_raise_data_error(tiny_files, cut, position, mask):
    """A checkpoint or clip file cut short or with one byte changed either
    loads or raises DataError, never another exception."""
    for path, load in zip(tiny_files, (load_denoiser, read_clip)):
        raw = bytearray(path.read_bytes())
        position %= len(raw)
        if cut:
            raw = raw[:position]
        else:
            raw[position] ^= mask
        damaged = path.with_name("damaged" + path.suffix)
        damaged.write_bytes(bytes(raw))
        try:
            load(damaged)
        except DataError:
            pass
