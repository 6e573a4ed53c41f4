"""Synthetic monophonic testbed: melodies, additive-synthesis instruments, pitch shifts.

Instruments are harmonic-gain profiles with a spectral tilt and a four-
segment amplitude envelope. The envelope fields are segment durations in
seconds (rescaled proportionally to each note's length); the held level of
the third segment is a module constant.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractViolation, DomainError
from .featurecodec import FeatureCodecSpec

log = logging.getLogger(__name__)

MIDI_LO = 21
MIDI_HI = 108
SUSTAIN_LEVEL = 0.75
MAJOR_SCALE = frozenset({0, 2, 4, 5, 7, 9, 11})
TEMPO_RANGE = (210.0, 270.0)  # beats per minute, one note per beat


def midi_to_hz(midi: float) -> float:
    return 440.0 * 2.0 ** ((midi - 69) / 12.0)


@dataclass(frozen=True)
class NoteEvent:
    midi_pitch: int
    onset: float
    duration: float
    amplitude: float

    def __post_init__(self):
        if not (MIDI_LO <= self.midi_pitch <= MIDI_HI):
            raise DomainError(f"midi pitch {self.midi_pitch} outside [{MIDI_LO}, {MIDI_HI}]")
        if self.duration <= 0.0:
            raise ContractViolation("note duration must be positive")
        if not (0.0 < self.amplitude <= 1.0):
            raise ContractViolation(f"amplitude {self.amplitude} outside (0, 1]")

    @property
    def offset(self) -> float:
        return self.onset + self.duration


@dataclass(frozen=True)
class Melody:
    notes: tuple[NoteEvent, ...]
    total_duration: float

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        prev_off = 0.0
        for n in self.notes:
            if n.onset < prev_off - 1e-9:
                raise ContractViolation("overlapping notes; melody must be monophonic")
            prev_off = n.offset
        if self.notes and self.notes[-1].offset > self.total_duration + 1e-9:
            raise ContractViolation("last note offset exceeds total duration")

    @property
    def pitches(self) -> list[int]:
        return [n.midi_pitch for n in self.notes]


@dataclass(frozen=True)
class InstrumentSpec:
    name: str
    harmonic_gains: tuple[float, ...]
    attack: float
    decay: float
    sustain: float
    release: float
    register: tuple[int, int]
    brightness_tilt: float  # dB per octave applied across harmonics

    def __post_init__(self):
        if not self.harmonic_gains or self.harmonic_gains[0] <= 0.0:
            raise ConfigurationError("fundamental gain must be positive")
        if any(g < 0.0 for g in self.harmonic_gains):
            raise ConfigurationError("harmonic gains must be non-negative")
        if not (self.register[0] < self.register[1]):
            raise ConfigurationError(f"bad register {self.register}")


def gen_melody(
    seed: int,
    register: tuple[int, int],
    n_notes: int,
) -> Melody:
    """Diatonic random walk inside the register; deterministic per seed."""
    lo, hi = register
    if hi - lo < 5:
        raise ConfigurationError(f"register {register} narrower than 5 semitones")
    if not (MIDI_LO <= lo and hi <= MIDI_HI):
        raise ConfigurationError(f"register {register} outside MIDI bounds")
    candidates = [m for m in range(lo, hi + 1) if m % 12 in MAJOR_SCALE]
    rng = np.random.default_rng(seed)
    tempo = float(rng.uniform(*TEMPO_RANGE))
    dur = 60.0 / tempo
    pos = len(candidates) // 2
    notes = []
    for k in range(n_notes):
        amp = float(rng.uniform(0.55, 0.9))
        notes.append(NoteEvent(candidates[pos], k * dur, dur, amp))
        step = int(rng.choice([-2, -1, 1, 2]))
        pos = min(max(pos + step, 0), len(candidates) - 1)
    return Melody(tuple(notes), n_notes * dur)


def _envelope(t: np.ndarray, note: NoteEvent, inst: InstrumentSpec) -> np.ndarray:
    """Piecewise envelope; segment durations rescaled to the note length."""
    segs = np.array([inst.attack, inst.decay, inst.sustain, inst.release])
    segs = segs * (note.duration / segs.sum())
    a, d, s, _ = np.cumsum(segs)
    env = np.empty_like(t)
    m = t < a
    env[m] = t[m] / max(a, 1e-12)
    m = (t >= a) & (t < d)
    env[m] = 1.0 + (SUSTAIN_LEVEL - 1.0) * (t[m] - a) / max(d - a, 1e-12)
    m = (t >= d) & (t < s)
    env[m] = SUSTAIN_LEVEL
    m = t >= s
    env[m] = SUSTAIN_LEVEL * np.clip(
        (note.duration - t[m]) / max(note.duration - s, 1e-12), 0.0, 1.0
    )
    return env


def synth(
    melody: Melody,
    instrument: InstrumentSpec,
    codec: FeatureCodecSpec,
) -> np.ndarray:
    """Render a melody as a mono waveform by band-limited additive synthesis.

    Harmonics at or above Nyquist are silently omitted (logged at debug
    level), so low notes keep their full profile and high notes thin out.
    """
    lo, hi = instrument.register
    for n in melody.notes:
        if not (lo <= n.midi_pitch <= hi):
            raise ContractViolation(
                f"pitch {n.midi_pitch} outside register {instrument.register} "
                f"of {instrument.name}"
            )
    sr = codec.sample_rate
    nyquist = sr / 2.0
    out = np.zeros(int(np.ceil(melody.total_duration * sr)) + 1)
    # one fixed set of harmonic phases, shared by every note of every instrument
    phases = np.random.default_rng(0).uniform(
        0.0, 2.0 * np.pi, len(instrument.harmonic_gains)
    )
    for note in melody.notes:
        i0 = int(round(note.onset * sr))
        n_samp = int(round(note.duration * sr))
        if n_samp <= 0:
            continue
        t = np.arange(n_samp) / sr
        f0 = midi_to_hz(note.midi_pitch)
        env = _envelope(t, note, instrument)
        wave = np.zeros(n_samp)
        for h, gain in enumerate(instrument.harmonic_gains, start=1):
            if gain == 0.0:
                continue
            freq = h * f0
            if freq >= nyquist:
                log.debug(
                    "omitting harmonic %d of midi %d (%.0f Hz >= Nyquist)",
                    h,
                    note.midi_pitch,
                    freq,
                )
                continue
            tilt = 10.0 ** (instrument.brightness_tilt * np.log2(h) / 20.0)
            wave += gain * tilt * np.sin(2.0 * np.pi * freq * t + phases[h - 1])
        out[i0 : i0 + n_samp] += note.amplitude * env * wave
    return out


def pitch_shift(melody: Melody, semitones: int) -> Melody:
    """Shift every pitch; timing untouched. Out-of-range results are domain errors."""
    if semitones == 0:
        return melody
    shifted = []
    for n in melody.notes:
        p = n.midi_pitch + semitones
        if not (MIDI_LO <= p <= MIDI_HI):
            raise DomainError(
                f"shift by {semitones} moves pitch {n.midi_pitch} outside MIDI bounds"
            )
        shifted.append(replace(n, midi_pitch=p))
    return Melody(tuple(shifted), melody.total_duration)


@dataclass(frozen=True)
class ShiftAugmentation:
    """Downward-shift policy: with the given probability, shift down a uniform
    integer number of semitones in [min_shift, max_shift]."""

    probability: float = 0.35
    min_shift: int = 1
    max_shift: int = 25

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError("probability must lie in [0, 1]")
        if not (1 <= self.min_shift <= self.max_shift):
            raise ConfigurationError("need 1 <= min_shift <= max_shift")


def apply_shift_augmentation(
    melody: Melody, rng: np.random.Generator, policy: ShiftAugmentation
) -> tuple[Melody, int]:
    """Returns the (possibly shifted) melody and the shift actually applied."""
    if rng.uniform() < policy.probability:
        shift = -int(rng.integers(policy.min_shift, policy.max_shift + 1))
        return pitch_shift(melody, shift), shift
    return melody, 0


# Built-in instruments: two high-register and two low-register timbres. The
# playable register is deliberately wider than the home register used for
# melody generation, so shifted-down material stays synthesizable.
BUILTIN_INSTRUMENTS: dict[str, InstrumentSpec] = {
    "flute_like": InstrumentSpec(
        name="flute_like",
        harmonic_gains=(1.0, 0.32, 0.12, 0.05),
        attack=0.04,
        decay=0.08,
        sustain=0.7,
        release=0.18,
        register=(40, 96),
        brightness_tilt=-2.0,
    ),
    "violin_like": InstrumentSpec(
        name="violin_like",
        harmonic_gains=(1.0, 0.62, 0.5, 0.42, 0.34, 0.27, 0.2, 0.14, 0.1, 0.07),
        attack=0.09,
        decay=0.1,
        sustain=0.62,
        release=0.19,
        register=(40, 96),
        brightness_tilt=-1.0,
    ),
    "bassoon_like": InstrumentSpec(
        name="bassoon_like",
        harmonic_gains=(0.6, 1.0, 0.75, 0.45, 0.25, 0.12),
        attack=0.06,
        decay=0.09,
        sustain=0.66,
        release=0.19,
        register=(28, 84),
        brightness_tilt=-2.5,
    ),
    "cello_like": InstrumentSpec(
        name="cello_like",
        harmonic_gains=(1.0, 0.7, 0.55, 0.45, 0.35, 0.28, 0.2, 0.12),
        attack=0.08,
        decay=0.1,
        sustain=0.63,
        release=0.19,
        register=(30, 88),
        brightness_tilt=-1.5,
    ),
}

# Melody-generation registers per instrument (the "home" octave-and-a-bit).
HOME_REGISTERS: dict[str, tuple[int, int]] = {
    "flute_like": (69, 84),
    "violin_like": (69, 84),
    "bassoon_like": (53, 68),
    "cello_like": (50, 65),
}


def get_instrument(name: str) -> InstrumentSpec:
    try:
        return BUILTIN_INSTRUMENTS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown instrument {name!r}; built-ins: {sorted(BUILTIN_INSTRUMENTS)}"
        ) from None
