"""Corpus generation and the on-disk dataset layout.

A dataset directory holds one binary tensor file per clip under clips/, a
manifest.json describing every clip (id, instrument, note events, split,
augmentation), and stats.json with the frozen per-channel normalization
statistics of the training split. Clip tensors are stored unnormalized.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_file
from .clip import LatentClip, read_clip, write_clip
from .errors import ConfigurationError, DataError
from .featurecodec import (
    FeatureCodecSpec,
    NormalizationStats,
    compute_stats,
    features,
)
from .synthdata import (
    HOME_REGISTERS,
    TEMPO_RANGE,
    Melody,
    NoteEvent,
    ShiftAugmentation,
    apply_shift_augmentation,
    gen_melody,
    get_instrument,
    synth,
)

MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CorpusSpec:
    instrument: str
    n_train: int
    n_test: int
    seed: int = 0
    augmentation: ShiftAugmentation | None = None

    def register(self) -> tuple[int, int]:
        """The instrument's home register, where melodies are generated."""
        if self.instrument in HOME_REGISTERS:
            return HOME_REGISTERS[self.instrument]
        raise ConfigurationError(f"no home register known for {self.instrument!r}")


@dataclass
class ClipRecord:
    clip_id: str
    split: str
    melody: Melody
    shift: int
    clip: LatentClip


@dataclass
class Corpus:
    spec: CorpusSpec
    codec: FeatureCodecSpec
    records: list[ClipRecord]
    stats: NormalizationStats

    def clips(self, split: str) -> list[LatentClip]:
        return [r.clip for r in self.records if r.split == split]

    def melodies(self, split: str) -> list[Melody]:
        return [r.melody for r in self.records if r.split == split]

    def normalized(self, split: str) -> list[LatentClip]:
        return [self.stats.normalize(c) for c in self.clips(split)]


NOISE_FLOOR = 1e-4  # ~-75 dB analog-style hiss so every band always fluctuates


def render_melody_clip(
    melody: Melody,
    instrument_name: str,
    codec: FeatureCodecSpec,
    noise_seed: int = 0,
) -> LatentClip:
    """Synthesize a melody and encode it, padded/truncated to the fixed clip length."""
    inst = get_instrument(instrument_name)
    wave = synth(melody, inst, codec)
    n = codec.clip_samples
    wave = np.pad(wave, (0, max(0, n - len(wave))))[:n]
    wave = wave + NOISE_FLOOR * np.random.default_rng(noise_seed).standard_normal(n)
    return features(wave, codec, domain_label=instrument_name)


def build_corpus(spec: CorpusSpec, codec: FeatureCodecSpec) -> Corpus:
    """Generate melodies, synthesize, encode, and freeze training-split statistics."""
    register = spec.register()
    root = np.random.SeedSequence([spec.seed, _stable_hash(spec.instrument)])
    melody_seeds = root.spawn(spec.n_train + spec.n_test)
    aug_rng = np.random.default_rng(root.spawn(1)[0])
    records: list[ClipRecord] = []
    for k, mseed in enumerate(melody_seeds):
        split = "train" if k < spec.n_train else "test"
        seed_int = int(mseed.generate_state(1)[0])
        # enough notes to cover the clip at the fastest admissible tempo
        n_notes = int(np.ceil(codec.clip_seconds * TEMPO_RANGE[1] / 60.0)) + 1
        melody = gen_melody(seed_int, register, n_notes)
        shift = 0
        if spec.augmentation is not None and split == "train":
            melody, shift = apply_shift_augmentation(melody, aug_rng, spec.augmentation)
        clip = render_melody_clip(melody, spec.instrument, codec, noise_seed=seed_int)
        records.append(ClipRecord(f"{spec.instrument}-{k:05d}", split, melody, shift, clip))
    stats = compute_stats([r.clip for r in records if r.split == "train"])
    return Corpus(spec, codec, records, stats)


def _stable_hash(text: str) -> int:
    import zlib

    return zlib.crc32(text.encode("utf-8"))


def _melody_to_json(melody: Melody) -> dict:
    return {
        "total_duration": melody.total_duration,
        "notes": [
            {
                "midi_pitch": n.midi_pitch,
                "onset": n.onset,
                "duration": n.duration,
                "amplitude": n.amplitude,
            }
            for n in melody.notes
        ],
    }


def _melody_from_json(obj: dict) -> Melody:
    notes = tuple(NoteEvent(**n) for n in obj["notes"])
    return Melody(notes, obj["total_duration"])


def save_corpus(directory: str | Path, corpus: Corpus) -> None:
    directory = Path(directory)
    entries = []
    for rec in corpus.records:
        rel = f"clips/{rec.clip_id}.clip"
        write_clip(directory / rel, rec.clip)
        entries.append(
            {
                "id": rec.clip_id,
                "instrument": corpus.spec.instrument,
                "split": rec.split,
                "shift": rec.shift,
                "melody": _melody_to_json(rec.melody),
                "file": rel,
            }
        )
    manifest = {
        "version": MANIFEST_VERSION,
        "instrument": corpus.spec.instrument,
        "seed": corpus.spec.seed,
        "codec": asdict(corpus.codec),
        "clips": entries,
    }
    write_file(directory / "manifest.json", json.dumps(manifest, indent=1))
    stats = {"mean": corpus.stats.mean.tolist(), "std": corpus.stats.std.tolist()}
    write_file(directory / "stats.json", json.dumps(stats))


def _read_json_object(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:  # undecodable text or JSON
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataError(f"{path}: expected a JSON object")
    return obj


def load_corpus(directory: str | Path) -> Corpus:
    """The dataset saved in ``directory``; a manifest.json or stats.json that
    does not decode or lacks an entry raises DataError."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise DataError(f"{directory} is not a dataset directory (no manifest.json)")
    manifest = _read_json_object(manifest_path)
    if manifest.get("version") != MANIFEST_VERSION:
        raise DataError(f"unsupported manifest version {manifest.get('version')}")
    stats_obj = _read_json_object(directory / "stats.json")
    try:
        codec = FeatureCodecSpec(**manifest["codec"])
        records = []
        for e in manifest["clips"]:
            clip = read_clip(directory / e["file"], domain_label=e["instrument"])
            melody = _melody_from_json(e["melody"])
            records.append(ClipRecord(e["id"], e["split"], melody, e["shift"], clip))
        stats = NormalizationStats(np.array(stats_obj["mean"]), np.array(stats_obj["std"]))
        spec = CorpusSpec(
            instrument=manifest["instrument"],
            n_train=sum(1 for r in records if r.split == "train"),
            n_test=sum(1 for r in records if r.split == "test"),
            seed=manifest["seed"],
        )
    except (KeyError, TypeError) as exc:
        raise DataError(
            f"{directory}: incomplete manifest or stats ({type(exc).__name__}: {exc})"
        ) from None
    return Corpus(spec, codec, records, stats)
