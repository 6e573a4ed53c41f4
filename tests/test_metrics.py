import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrebridge.errors import ContractViolation, DataError
from timbrebridge.featurecodec import features
from timbrebridge.metrics import (
    EmbeddingSet,
    active_classes,
    dpd,
    dpd_brute_force,
    embed_clips,
    evaluate_transfer,
    frechet,
    frechet_from_moments,
    jaccard,
    load_classifier,
    pitch_class_matrix,
    save_classifier,
    train_timbre_classifier,
    unrelated_pair_dpd,
)
from timbrebridge.synthdata import Melody, NoteEvent, get_instrument, synth


def _clip_for(midis, codec, instrument="flute_like"):
    dur = codec.clip_seconds / len(midis) + 0.001
    notes = tuple(
        NoteEvent(m, i * dur, dur, 0.8) for i, m in enumerate(midis)
    )
    mel = Melody(notes, len(midis) * dur + 0.01)
    wave = synth(mel, get_instrument(instrument), codec)
    wave = np.pad(wave, (0, max(0, codec.clip_samples - len(wave))))[: codec.clip_samples]
    return features(wave, codec)


# ---------------------------------------------------------------------------
# pitch-class extraction


def test_sustained_a4_peaks_at_class_9(codec):
    pcm = pitch_class_matrix(_clip_for([69], codec), codec)
    assert pcm.mean(axis=1).argmax() == 9
    assert pcm.shape == (12, codec.clip_frames)
    assert np.all((pcm >= 0) & (pcm <= 1))


def test_silence_near_uniform(codec):
    clip = features(np.zeros(codec.clip_samples), codec)
    pcm = pitch_class_matrix(clip, codec)
    assert pcm.max() < 2.0 / 12.0


def test_arpeggio_active_set(codec):
    pcm = pitch_class_matrix(_clip_for([60, 64, 67], codec), codec)
    assert active_classes(pcm) == {0, 4, 7}


def test_waveform_input_accepted(codec):
    t = np.arange(codec.clip_samples) / codec.sample_rate
    tone = 0.4 * np.sin(2 * np.pi * 440.0 * t)
    pcm = pitch_class_matrix(tone, codec)
    assert pcm.mean(axis=1).argmax() == 9


def test_octave_equivalence(codec):
    """Shifting a sustained note by -12 leaves the class estimate unchanged."""
    for midi in (60, 69, 76):
        hi = pitch_class_matrix(_clip_for([midi], codec), codec)
        lo = pitch_class_matrix(_clip_for([midi - 12], codec), codec)
        assert hi.mean(axis=1).argmax() == lo.mean(axis=1).argmax() == midi % 12


# ---------------------------------------------------------------------------
# dynamic pitch distance


def test_dpd_identity():
    p = np.random.default_rng(0).uniform(size=(12, 9))
    assert dpd(p, p) == 0.0


def test_dpd_symmetry(rng):
    p = rng.uniform(size=(12, 7))
    q = rng.uniform(size=(12, 5))
    assert dpd(p, q) == dpd(q, p)


def test_dpd_time_stretch_absorbed(rng):
    p = rng.uniform(size=(12, 8))
    q = np.repeat(p, 2, axis=1)
    mean_norm = float(np.mean(np.linalg.norm(p, axis=0)))
    assert dpd(p, q) < 0.05 * mean_norm


def test_dpd_tritone_rotation_sqrt2():
    """Disjoint one-hot columns cost sqrt(2) per cell on every path."""
    rng = np.random.default_rng(1)
    classes = rng.integers(0, 12, size=6)
    p = np.zeros((12, 6))
    p[classes, np.arange(6)] = 1.0
    q = np.roll(p, 6, axis=0)
    assert dpd(p, q) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_dpd_matches_brute_force(rng):
    for _ in range(50):
        n, m = rng.integers(1, 7, size=2)
        p = rng.uniform(size=(12, n))
        q = rng.uniform(size=(12, m))
        assert dpd(p, q) == pytest.approx(dpd_brute_force(p, q), rel=1e-12)


def test_dpd_empty_rejected():
    with pytest.raises(DataError):
        dpd(np.zeros((12, 0)), np.zeros((12, 3)))
    with pytest.raises(ContractViolation):
        dpd(np.zeros((12, 3)), np.zeros((11, 3)))


# ---------------------------------------------------------------------------
# jaccard


def test_jaccard_identical_zero(rng):
    p = rng.uniform(size=(12, 6))
    assert jaccard(p, p) == 0.0


def test_jaccard_disjoint_one():
    p = np.zeros((12, 4))
    q = np.zeros((12, 4))
    p[2] = 1.0
    q[7] = 1.0
    assert jaccard(p, q) == 1.0


def test_jaccard_half_overlap():
    # A={0,4,7}, B={0,4,9}: intersection 2, union 4
    p = np.zeros((12, 3))
    q = np.zeros((12, 3))
    for t, c in enumerate((0, 4, 7)):
        p[c, t] = 1.0
    for t, c in enumerate((0, 4, 9)):
        q[c, t] = 1.0
    assert jaccard(p, q) == pytest.approx(0.5)


def test_jaccard_both_empty():
    z = np.zeros((12, 3))
    assert jaccard(z, z) == 0.0


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_jaccard_bounded(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=(12, 5))
    q = rng.uniform(size=(12, 5))
    assert 0.0 <= jaccard(p, q) <= 1.0


# ---------------------------------------------------------------------------
# frechet


def test_frechet_one_dimensional_closed_form():
    # (mu1-mu2)^2 + (s1-s2)^2 = 9 + 1 = 10 with exact moments
    assert frechet_from_moments(0.0, 1.0, 3.0, 4.0) == pytest.approx(10.0, abs=1e-8)


def test_frechet_same_set_zero(rng):
    v = rng.standard_normal((40, 5))
    a = EmbeddingSet(v, ["x"] * 40)
    assert frechet(a, a) < 1e-8


def test_frechet_rotation_invariance(rng):
    v1 = rng.standard_normal((60, 4)) + 1.0
    v2 = 2.0 * rng.standard_normal((50, 4)) - 0.5
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    base = frechet(EmbeddingSet(v1, ["a"] * 60), EmbeddingSet(v2, ["b"] * 50))
    rot = frechet(EmbeddingSet(v1 @ q.T, ["a"] * 60), EmbeddingSet(v2 @ q.T, ["b"] * 50))
    assert rot == pytest.approx(base, abs=1e-8)


def test_frechet_near_singular_no_nan(rng):
    # rank-deficient sets: all mass on one direction
    u = rng.standard_normal((10, 1))
    a = EmbeddingSet(np.hstack([u, u * 2, u * 3]), ["a"] * 10)
    b = EmbeddingSet(np.hstack([u + 1, u * 2, u * 3]), ["b"] * 10)
    value = frechet(a, b)
    assert np.isfinite(value) and value >= 0.0


def test_frechet_needs_two(rng):
    with pytest.raises(DataError):
        frechet(
            EmbeddingSet(rng.standard_normal((1, 3)), ["a"]),
            EmbeddingSet(rng.standard_normal((5, 3)), ["b"] * 5),
        )


# ---------------------------------------------------------------------------
# timbre classifier


def test_classifier_separable_data(rng):
    a = rng.standard_normal((80, 6)) + np.array([3, 0, 0, 0, 0, 0])
    b = rng.standard_normal((80, 6)) - np.array([3, 0, 0, 0, 0, 0])
    train_set = EmbeddingSet(np.vstack([a[:60], b[:60]]), ["a"] * 60 + ["b"] * 60)
    test_set = EmbeddingSet(np.vstack([a[60:], b[60:]]), ["a"] * 20 + ["b"] * 20)
    clf = train_timbre_classifier(train_set, n_steps=1500)
    assert clf.accuracy(test_set) >= 0.99


def test_classifier_shuffled_labels_chance(rng):
    x = rng.standard_normal((200, 6))
    labels = ["a", "b"] * 100
    clf = train_timbre_classifier(EmbeddingSet(x[:160], labels[:160]), n_steps=600)
    acc = clf.accuracy(EmbeddingSet(x[160:], labels[160:]))
    # 3-sigma binomial band around 1/2 over 40 held-out points
    assert abs(acc - 0.5) <= 3 * np.sqrt(0.25 / 40)


def test_classifier_instruments(small_corpus_pair, codec):
    flute, violin = small_corpus_pair
    train_set = embed_clips(flute.clips("train") + violin.clips("train"))
    test_set = embed_clips(flute.clips("test") + violin.clips("test"))
    clf = train_timbre_classifier(train_set, n_steps=2000)
    assert clf.accuracy(test_set) >= 0.95


def test_classifier_class_count_guards(rng):
    with pytest.raises(DataError):
        train_timbre_classifier(EmbeddingSet(rng.standard_normal((5, 3)), ["a"] * 5))
    with pytest.raises(DataError):
        train_timbre_classifier(
            EmbeddingSet(rng.standard_normal((5, 3)), ["a", "a", "a", "a", "b"])
        )


def test_classifier_checkpoint_roundtrip(tmp_path, rng):
    x = rng.standard_normal((40, 4))
    labels = ["a"] * 20 + ["b"] * 20
    x[:20] += 2.0
    clf = train_timbre_classifier(EmbeddingSet(x, labels), n_steps=300)
    save_classifier(tmp_path / "clf.tbc", clf)
    loaded = load_classifier(tmp_path / "clf.tbc")
    probe = EmbeddingSet(rng.standard_normal((10, 4)), ["a"] * 10)
    assert loaded.predict(probe) == clf.predict(probe)


# ---------------------------------------------------------------------------
# evaluate_transfer


def test_evaluate_transfer_identity(small_corpus_pair, codec):
    flute, violin = small_corpus_pair
    clips = flute.clips("test")[:8]
    train_set = embed_clips(flute.clips("train") + violin.clips("train"))
    clf = train_timbre_classifier(train_set, n_steps=1500)
    report, pairs = evaluate_transfer(clips, clips, clips, clf, codec, "flute_like")
    assert report.dpd == 0.0 and report.jaccard == 0.0
    assert report.frechet < 1e-6
    assert report.classifier_accuracy >= 0.9
    assert len(pairs) == 8


def test_evaluate_transfer_length_mismatch(small_corpus_pair, codec):
    flute, violin = small_corpus_pair
    clips = flute.clips("test")
    clf = train_timbre_classifier(
        embed_clips(flute.clips("train") + violin.clips("train")), n_steps=200
    )
    with pytest.raises(ContractViolation):
        evaluate_transfer(clips[:3], clips[:2], clips, clf, codec, "violin_like")


def test_unrelated_pair_dpd_positive(small_corpus_pair, codec):
    flute, _ = small_corpus_pair
    floor = unrelated_pair_dpd(flute.clips("test"), codec)
    assert np.all(floor > 0.0)
    assert np.median(floor) > 0.2
