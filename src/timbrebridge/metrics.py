"""Evaluation metrics: pitch-class probabilities, DPD, Jaccard, Frechet, classifier.

Pitch extraction scores every candidate MIDI pitch against a frame's band
energies using harmonic templates rendered through the same feature codec,
then softmaxes the scores and folds octaves into 12 pitch classes. DPD
aligns two pitch-class sequences with dynamic time warping and reports the
per-cell average cost along the optimal path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .clip import LatentClip
from .errors import ConfigurationError, ContractViolation, DataError
from .featurecodec import FeatureCodecSpec, band_energies
from .training import AdamW, TrainingConfig

PITCH_MIDI_LO = 36
PITCH_MIDI_HI = 96
# cosine gaps between semitone-adjacent candidates run ~0.07 at 32-band
# resolution, so the softmax needs tau well below that to keep runners-up
# out of thresholded active sets
PITCH_TEMPERATURE = 0.05
JACCARD_THRESHOLD = 0.5
TEMPLATE_HARMONICS = 8


# ---------------------------------------------------------------------------
# pitch-class probabilities


@lru_cache(maxsize=8)
def _pitch_templates(codec: FeatureCodecSpec) -> np.ndarray:
    """(n_candidates, n_bands) unit-norm band-energy templates.

    Each template is one Hann-windowed frame of a synthetic harmonic complex
    (1/h amplitudes) pushed through the codec's band summation, so spectral
    leakage matches what real frames exhibit.
    """
    n_cand = PITCH_MIDI_HI - PITCH_MIDI_LO + 1
    out = np.zeros((n_cand, codec.n_bands))
    t = np.arange(codec.window) / codec.sample_rate
    nyquist = codec.sample_rate / 2.0
    for k in range(n_cand):
        f0 = 440.0 * 2.0 ** ((PITCH_MIDI_LO + k - 69) / 12.0)
        tone = np.zeros(codec.window)
        for h in range(1, TEMPLATE_HARMONICS + 1):
            if h * f0 >= nyquist:
                break
            tone += (1.0 / h) * np.sin(2.0 * np.pi * h * f0 * t)
        mag = np.sqrt(band_energies(tone, codec)[:, 0])
        norm = np.linalg.norm(mag)
        if norm > 0:
            out[k] = mag / norm
    return out


def _frame_energies(clip_or_wave, codec: FeatureCodecSpec) -> np.ndarray:
    """Linear band energies (n_bands, T) from a feature clip or a waveform."""
    if isinstance(clip_or_wave, LatentClip):
        if clip_or_wave.channels != codec.n_bands:
            raise ConfigurationError(
                f"clip has {clip_or_wave.channels} channels, codec expects {codec.n_bands}"
            )
        # invert the log(floor + E) encoding; exact zeros map back to silence
        return np.maximum(np.exp(clip_or_wave.data) - codec.log_floor, 0.0)
    wave = np.asarray(clip_or_wave, dtype=np.float64)
    if wave.ndim == 2:
        raise ContractViolation("pass a LatentClip for feature-domain input")
    return band_energies(wave, codec)


def pitch_class_matrix(
    clip_or_wave,
    codec: FeatureCodecSpec,
) -> np.ndarray:
    """(12, T) pitch-class probabilities via harmonic-template scoring.

    Frames are scored by cosine similarity (in band-magnitude domain, which
    weights harmonics more evenly than raw power) against every candidate
    template, softmaxed over candidates at PITCH_TEMPERATURE, and summed
    over octaves. Zero-energy frames get flat scores, hence a near-uniform
    column.
    """
    mags = np.sqrt(_frame_energies(clip_or_wave, codec))
    templates = _pitch_templates(codec)
    norms = np.linalg.norm(mags, axis=0)
    unit = np.divide(mags, norms[None, :], out=np.zeros_like(mags), where=norms > 0)
    scores = templates @ unit  # (n_candidates, T)
    z = scores / PITCH_TEMPERATURE
    z -= z.max(axis=0, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=0, keepdims=True)
    classes = np.zeros((12, mags.shape[1]))
    for k in range(p.shape[0]):
        classes[(PITCH_MIDI_LO + k) % 12] += p[k]
    return classes


# ---------------------------------------------------------------------------
# dynamic pitch distance


def dpd(p: np.ndarray, q: np.ndarray) -> float:
    """DTW distance between pitch-class sequences, averaged over path cells.

    Local cost is the Euclidean distance between 12-d columns; steps are
    (1,0), (0,1), (1,1) with no windowing. Among minimum-cost paths the
    shortest is used for normalization.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.ndim != 2 or q.ndim != 2 or p.shape[0] != q.shape[0]:
        raise ContractViolation(f"incompatible matrices {p.shape} vs {q.shape}")
    n, m = p.shape[1], q.shape[1]
    if n == 0 or m == 0:
        raise DataError("empty pitch-class matrix")
    diff = p[:, :, None] - q[:, None, :]
    local = np.sqrt(np.sum(diff * diff, axis=0))  # (n, m)
    cost = np.full((n, m), np.inf)
    length = np.zeros((n, m), dtype=np.int64)
    cost[0, 0] = local[0, 0]
    length[0, 0] = 1
    for j in range(1, m):
        cost[0, j] = cost[0, j - 1] + local[0, j]
        length[0, j] = j + 1
    for i in range(1, n):
        cost[i, 0] = cost[i - 1, 0] + local[i, 0]
        length[i, 0] = i + 1
        ci, ci1 = cost[i], cost[i - 1]
        li, li1 = length[i], length[i - 1]
        for j in range(1, m):
            best_c, best_l = ci1[j - 1], li1[j - 1]  # diagonal
            if ci1[j] < best_c or (ci1[j] == best_c and li1[j] < best_l):
                best_c, best_l = ci1[j], li1[j]
            if ci[j - 1] < best_c or (ci[j - 1] == best_c and li[j - 1] < best_l):
                best_c, best_l = ci[j - 1], li[j - 1]
            ci[j] = best_c + local[i, j]
            li[j] = best_l + 1
    return float(cost[n - 1, m - 1] / length[n - 1, m - 1])


def dpd_brute_force(p: np.ndarray, q: np.ndarray) -> float:
    """Exhaustive enumeration over all monotone warping paths (small T only)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    n, m = p.shape[1], q.shape[1]
    diff = p[:, :, None] - q[:, None, :]
    local = np.sqrt(np.sum(diff * diff, axis=0))
    best: list[tuple[float, int]] = [(math.inf, 0)]

    def walk(i: int, j: int, total: float, cells: int):
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], (total, cells))
            return
        if i + 1 < n:
            walk(i + 1, j, total + local[i + 1, j], cells + 1)
        if j + 1 < m:
            walk(i, j + 1, total + local[i, j + 1], cells + 1)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, total + local[i + 1, j + 1], cells + 1)

    walk(0, 0, local[0, 0], 1)
    total, cells = best[0]
    return float(total / cells)


# ---------------------------------------------------------------------------
# jaccard distance on active pitch-class sets


def active_classes(p: np.ndarray) -> set[int]:
    """Classes whose max-over-time probability exceeds JACCARD_THRESHOLD,
    after per-frame max-normalization."""
    p = np.asarray(p, dtype=np.float64)
    peak = p.max(axis=0, keepdims=True)
    normed = np.divide(p, peak, out=np.zeros_like(p), where=peak > 0)
    return set(np.nonzero(normed.max(axis=1) > JACCARD_THRESHOLD)[0].tolist())


def jaccard(p: np.ndarray, q: np.ndarray) -> float:
    a = active_classes(p)
    b = active_classes(q)
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


# ---------------------------------------------------------------------------
# Frechet distance between Gaussian fits


@dataclass
class EmbeddingSet:
    """M time-averaged clip feature vectors with one label per vector."""

    vectors: np.ndarray  # (M, C)
    labels: list[str]

    def __post_init__(self):
        self.vectors = np.atleast_2d(np.asarray(self.vectors, dtype=np.float64))
        if not np.all(np.isfinite(self.vectors)):
            raise DataError("embedding set contains non-finite entries")
        if len(self.labels) != self.vectors.shape[0]:
            raise ContractViolation("one label per embedding vector required")


def embed_clips(clips: list[LatentClip]) -> EmbeddingSet:
    vectors = np.stack([c.data.mean(axis=1) for c in clips])
    labels = [c.domain_label or "" for c in clips]
    return EmbeddingSet(vectors, labels)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((mat + mat.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def frechet_from_moments(mu_a, cov_a, mu_b, cov_b) -> float:
    """||mu_a - mu_b||^2 + Tr(cov_a + cov_b - 2 (cov_a^1/2 cov_b cov_a^1/2)^1/2)."""
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=np.float64))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=np.float64))
    cov_a = np.atleast_2d(np.asarray(cov_a, dtype=np.float64))
    cov_b = np.atleast_2d(np.asarray(cov_b, dtype=np.float64))
    root_a = _sqrtm_psd(cov_a)
    cross = _sqrtm_psd(root_a @ cov_b @ root_a)
    diff = mu_a - mu_b
    value = float(diff @ diff + np.trace(cov_a) + np.trace(cov_b) - 2.0 * np.trace(cross))
    return max(value, 0.0)


def frechet(a: EmbeddingSet, b: EmbeddingSet) -> float:
    """Frechet distance between Gaussian fits of two embedding sets."""
    for s in (a, b):
        if s.vectors.shape[0] < 2:
            raise DataError("need at least 2 embeddings per set")
    dim = a.vectors.shape[1]
    mu_a, mu_b = a.vectors.mean(axis=0), b.vectors.mean(axis=0)
    cov_a = np.atleast_2d(np.cov(a.vectors, rowvar=False))
    cov_b = np.atleast_2d(np.cov(b.vectors, rowvar=False))
    # small sets yield rank-deficient covariances; regularize for stability
    if min(a.vectors.shape[0], b.vectors.shape[0]) <= dim:
        cov_a = cov_a + 1e-6 * np.eye(dim)
        cov_b = cov_b + 1e-6 * np.eye(dim)
    return frechet_from_moments(mu_a, cov_a, mu_b, cov_b)


# ---------------------------------------------------------------------------
# timbre classifier


@dataclass
class TimbreClassifier:
    """Two fully connected layers (C -> C/2, rectifier, -> K) on standardized inputs."""

    classes: list[str]
    in_mean: np.ndarray
    in_std: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def logits(self, vectors: np.ndarray) -> np.ndarray:
        x = (np.atleast_2d(vectors) - self.in_mean) / self.in_std
        hidden = np.maximum(x @ self.w1.T + self.b1, 0.0)
        return hidden @ self.w2.T + self.b2

    def predict(self, embeddings: EmbeddingSet) -> list[str]:
        idx = np.argmax(self.logits(embeddings.vectors), axis=1)
        return [self.classes[i] for i in idx]

    def accuracy(self, embeddings: EmbeddingSet) -> float:
        pred = self.predict(embeddings)
        return float(np.mean([p == t for p, t in zip(pred, embeddings.labels)]))


def train_timbre_classifier(
    train: EmbeddingSet,
    n_steps: int = 4000,
    lr: float = 1e-3,
    seed: int = 0,
) -> TimbreClassifier:
    """Full-batch cross-entropy training with the denoiser's AdamW settings."""
    classes = sorted(set(train.labels))
    if len(classes) < 2:
        raise DataError("need at least 2 classes")
    counts = {c: train.labels.count(c) for c in classes}
    lacking = [c for c, n in counts.items() if n < 2]
    if lacking:
        raise DataError(f"classes with fewer than 2 examples: {lacking}")
    x = train.vectors
    y = np.array([classes.index(label) for label in train.labels])
    dim = x.shape[1]
    hidden = max(2, dim // 2)
    k = len(classes)

    mean = x.mean(axis=0)
    std = np.maximum(x.std(axis=0), 1e-8)
    xs = (x - mean) / std

    rng = np.random.default_rng(seed)
    params = {
        "w1": rng.uniform(-1, 1, (hidden, dim)) / np.sqrt(dim),
        "b1": np.zeros(hidden),
        "w2": rng.uniform(-1, 1, (k, hidden)) / np.sqrt(hidden),
        "b2": np.zeros(k),
    }
    opt = AdamW(params, TrainingConfig(lr=lr))
    onehot = np.zeros((len(y), k))
    onehot[np.arange(len(y)), y] = 1.0
    for _ in range(n_steps):
        pre = xs @ params["w1"].T + params["b1"]
        hid = np.maximum(pre, 0.0)
        logits = hid @ params["w2"].T + params["b2"]
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        dlogits = (p - onehot) / len(y)
        grads = {
            "w2": dlogits.T @ hid,
            "b2": dlogits.sum(axis=0),
        }
        dhid = (dlogits @ params["w2"]) * (pre > 0)
        grads["w1"] = dhid.T @ xs
        grads["b1"] = dhid.sum(axis=0)
        opt.step(params, grads)
    return TimbreClassifier(classes, mean, std, **params)


def save_classifier(path, clf: TimbreClassifier) -> list:
    from .checkpoint import save_checkpoint

    arrays = {f.name: getattr(clf, f.name) for f in fields(clf) if f.name != "classes"}
    return save_checkpoint(path, "classifier", {"classes": clf.classes}, arrays)


def load_classifier(path) -> TimbreClassifier:
    from .checkpoint import load_checkpoint

    kind, meta, arrays = load_checkpoint(path)
    if kind != "classifier":
        raise DataError(f"{path}: checkpoint kind {kind!r}, expected 'classifier'")
    try:
        return TimbreClassifier(list(meta["classes"]), **arrays)
    except (KeyError, TypeError) as exc:
        raise DataError(
            f"{path}: not a valid classifier checkpoint ({type(exc).__name__}: {exc})"
        ) from None


# ---------------------------------------------------------------------------
# whole-run evaluation


@dataclass
class MetricsReport:
    dpd: float
    jaccard: float
    frechet: float
    classifier_accuracy: float

    def __post_init__(self):
        for name in ("dpd", "jaccard", "frechet", "classifier_accuracy"):
            if not np.isfinite(getattr(self, name)):
                raise DataError(f"metric {name} is not finite")


def evaluate_transfer(
    originals: list[LatentClip],
    transferred: list[LatentClip],
    target_reference: list[LatentClip],
    classifier: TimbreClassifier,
    codec: FeatureCodecSpec,
    target_class: str,
) -> tuple[MetricsReport, list[tuple[float, float]]]:
    """Pair-averaged DPD/Jaccard, set-level Frechet, and target-class accuracy.

    Returns the report and the per-pair (dpd, jaccard) values for CSV output.
    """
    if len(originals) != len(transferred):
        raise ContractViolation(
            f"{len(originals)} originals vs {len(transferred)} transferred clips"
        )
    if not target_reference:
        raise ContractViolation("target reference set is empty")
    pairs = []
    for orig, out in zip(originals, transferred):
        p = pitch_class_matrix(orig, codec)
        q = pitch_class_matrix(out, codec)
        pairs.append((dpd(p, q), jaccard(p, q)))
    emb_out = embed_clips(transferred)
    emb_ref = embed_clips(target_reference)
    predicted = classifier.predict(emb_out)
    report = MetricsReport(
        dpd=float(np.mean([d for d, _ in pairs])),
        jaccard=float(np.mean([j for _, j in pairs])),
        frechet=frechet(emb_out, emb_ref),
        classifier_accuracy=float(np.mean([p == target_class for p in predicted])),
    )
    return report, pairs


def unrelated_pair_dpd(
    clips: list[LatentClip], codec: FeatureCodecSpec
) -> np.ndarray:
    """DPD between each clip and a differently-melodied partner (cyclic shift)."""
    if len(clips) < 2:
        raise DataError("need at least two clips")
    offset = len(clips) // 2
    mats = [pitch_class_matrix(c, codec) for c in clips]
    return np.array(
        [dpd(mats[i], mats[(i + offset) % len(mats)]) for i in range(len(mats))]
    )
