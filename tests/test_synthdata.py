import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrebridge.errors import ConfigurationError, ContractViolation, DomainError
from timbrebridge.featurecodec import (
    FeatureCodecSpec,
    band_energies,
    compute_stats,
    features,
)
from timbrebridge.synthdata import (
    BUILTIN_INSTRUMENTS,
    HOME_REGISTERS,
    Melody,
    NoteEvent,
    ShiftAugmentation,
    apply_shift_augmentation,
    gen_melody,
    get_instrument,
    pitch_shift,
    synth,
)


def test_gen_melody_deterministic():
    a = gen_melody(42, (69, 84), 8)
    b = gen_melody(42, (69, 84), 8)
    assert a == b
    assert len(a.notes) == 8


def test_gen_melody_respects_register():
    for seed in range(60):
        mel = gen_melody(seed, (72, 96), 12)
        assert all(72 <= p <= 96 for p in mel.pitches)


def test_gen_melody_narrow_register_rejected():
    with pytest.raises(ConfigurationError):
        gen_melody(0, (60, 64), 4)


def test_melody_monophonic_invariant():
    notes = (NoteEvent(60, 0.0, 1.0, 0.5), NoteEvent(62, 0.5, 1.0, 0.5))
    with pytest.raises(ContractViolation):
        Melody(notes, 2.0)


def test_synth_pure_tone_peak(codec):
    mel = Melody((NoteEvent(69, 0.0, 2.0, 0.8),), 2.0)
    inst = get_instrument("flute_like")
    wave = synth(mel, inst, codec)
    spec = np.abs(np.fft.rfft(wave[: 4096] * np.hanning(4096)))
    peak_hz = spec.argmax() * codec.sample_rate / 4096
    assert abs(peak_hz - 440.0) <= codec.sample_rate / 4096


def _peak_hz(wave, sample_rate, n=8192):
    """Quadratic-interpolated spectral peak (beats the DFT bin quantization)."""
    spec = np.abs(np.fft.rfft(wave[:n] * np.hanning(n)))
    k = int(spec.argmax())
    a, b, c = np.log(spec[k - 1 : k + 2] + 1e-30)
    delta = 0.5 * (a - c) / (a - 2 * b + c)
    return (k + delta) * sample_rate / n


def test_synth_octave_ratio(codec):
    inst = get_instrument("cello_like")
    f0s = []
    for midi in (57, 69):
        mel = Melody((NoteEvent(midi, 0.0, 2.0, 0.8),), 2.0)
        f0s.append(_peak_hz(synth(mel, inst, codec), codec.sample_rate))
    assert f0s[1] / f0s[0] == pytest.approx(2.0, rel=1e-3)


def test_synth_empty_melody_is_silent(codec):
    wave = synth(Melody((), 1.0), get_instrument("flute_like"), codec)
    assert np.all(wave == 0.0)


def test_synth_register_precondition(codec):
    mel = Melody((NoteEvent(24, 0.0, 1.0, 0.5),), 1.0)
    with pytest.raises(ContractViolation):
        synth(mel, get_instrument("flute_like"), codec)


def test_synth_band_limited(codec, caplog):
    # midi 96 ~ 2093 Hz; harmonics 2+ exceed Nyquist 4000 and are omitted
    mel = Melody((NoteEvent(96, 0.0, 1.0, 0.8),), 1.0)
    wave = synth(mel, get_instrument("violin_like"), codec)
    spec = np.abs(np.fft.rfft(wave[: 4096] * np.hanning(4096)))
    freqs = np.arange(spec.size) * codec.sample_rate / 4096
    above = spec[freqs > 3000]
    assert above.max() < 0.01 * spec.max()


def test_pitch_shift_identity_and_inverse():
    mel = gen_melody(7, (69, 84), 6)
    assert pitch_shift(mel, 0) is mel
    assert pitch_shift(pitch_shift(mel, -20), 20) == mel


def test_pitch_shift_halves_f0(codec):
    inst = get_instrument("violin_like")
    mel = Melody((NoteEvent(81, 0.0, 2.0, 0.8),), 2.0)

    def f0(m):
        return _peak_hz(synth(m, inst, codec), codec.sample_rate)

    assert f0(pitch_shift(mel, -12)) / f0(mel) == pytest.approx(0.5, rel=1e-3)


def test_pitch_shift_bounds():
    mel = Melody((NoteEvent(22, 0.0, 1.0, 0.5),), 1.0)
    with pytest.raises(DomainError):
        pitch_shift(mel, -2)


def test_augmentation_identity_when_disabled():
    mel = gen_melody(1, (69, 84), 4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        out, shift = apply_shift_augmentation(mel, rng, ShiftAugmentation(probability=0.0))
        assert shift == 0 and out == mel


def test_augmentation_statistics():
    """Paper recipe: shift down 1..25 semitones with 35% probability."""
    mel = gen_melody(2, (69, 96), 4)
    rng = np.random.default_rng(123)
    policy = ShiftAugmentation()
    shifts = [apply_shift_augmentation(mel, rng, policy)[1] for _ in range(10_000)]
    shifts = np.array(shifts)
    freq = np.mean(shifts != 0)
    assert 0.33 <= freq <= 0.37
    applied = shifts[shifts != 0]
    assert set(np.unique(applied)) <= set(range(-25, 0))
    assert applied.min() == -25 and applied.max() == -1


def test_builtin_instruments_valid():
    for name, inst in BUILTIN_INSTRUMENTS.items():
        assert inst.harmonic_gains[0] > 0
        assert inst.register[0] < inst.register[1]
        home = HOME_REGISTERS[name]
        assert inst.register[0] <= home[0] < home[1] <= inst.register[1]
    with pytest.raises(ConfigurationError):
        get_instrument("kazoo")


# ---------------------------------------------------------------------------
# feature codec


def test_features_silence_is_log_floor(codec):
    clip = features(np.zeros(codec.clip_samples), codec)
    assert clip.data == pytest.approx(np.log(codec.log_floor))


def test_features_tone_band_peak(codec):
    t = np.arange(codec.clip_samples) / codec.sample_rate
    tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
    energies = band_energies(tone, codec)
    band_440 = int(np.searchsorted(codec.band_edges, 440.0)) - 1
    assert energies.mean(axis=1).argmax() == band_440


def test_features_amplitude_scaling(codec):
    """Doubling the waveform raises every band log-energy by log 4."""
    rng = np.random.default_rng(0)
    wave = 0.3 * rng.standard_normal(codec.clip_samples)
    small = features(wave, FeatureCodecSpec(log_floor=1e-30))
    big = features(2.0 * wave, FeatureCodecSpec(log_floor=1e-30))
    assert big.data - small.data == pytest.approx(np.log(4.0), abs=1e-6)


def test_features_too_short(codec):
    with pytest.raises(Exception):
        features(np.zeros(codec.window - 1), codec)


def test_feature_frame_count(codec):
    clip = features(np.zeros(codec.clip_samples), codec)
    assert clip.shape == (codec.n_bands, codec.clip_frames) == (32, 64)


def test_codec_invariants():
    with pytest.raises(ConfigurationError):
        FeatureCodecSpec(n_bands=8)
    with pytest.raises(ConfigurationError):
        FeatureCodecSpec(f_hi=4000.0)  # at Nyquist
    edges = FeatureCodecSpec().band_edges
    assert np.all(np.diff(edges) > 0)


@given(seed=st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_stats_normalize_roundtrip(seed, codec):
    from timbrebridge.clip import LatentClip

    rng = np.random.default_rng(seed)
    clips = [LatentClip(rng.standard_normal((4, 6)) * 3 + 1) for _ in range(3)]
    stats = compute_stats(clips)
    normed = [stats.normalize(c) for c in clips]
    stacked = np.concatenate([c.data for c in normed], axis=1)
    assert np.abs(stacked.mean(axis=1)).max() < 1e-6
    assert np.abs(stacked.var(axis=1) - 1).max() < 1e-3
    back = stats.unstack(stats.stack(clips), None)
    assert back[0].data == pytest.approx(clips[0].data)
