"""Filterbank feature codec: waveform -> band log-energy clips, plus corpus normalization.

Frames start every ``hop`` samples and cover ``window`` samples (zero-padded
past the end), so a clip of ceil(L / hop) frames covers the whole waveform.
Each frame is Hann-windowed, Fourier transformed, and its power spectrum
summed into geometrically spaced bands; features are log(floor + energy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .clip import LatentClip
from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class FeatureCodecSpec:
    sample_rate: int = 8000
    n_bands: int = 32
    hop: int = 256
    window: int = 512
    f_lo: float = 60.0
    f_hi: float = 3800.0
    log_floor: float = 1e-8
    clip_seconds: float = 2.048  # 16384 samples -> 64 frames at hop 256

    def __post_init__(self):
        if self.n_bands < 12:
            raise ConfigurationError(f"need at least 12 bands, got {self.n_bands}")
        if not (0.0 < self.f_lo < self.f_hi):
            raise ConfigurationError("band edges must satisfy 0 < f_lo < f_hi")
        if self.f_hi >= self.sample_rate / 2:
            raise ConfigurationError(
                f"top band edge {self.f_hi} must be below Nyquist {self.sample_rate / 2}"
            )
        if self.window < self.hop:
            raise ConfigurationError("window must be >= hop")
        if self.log_floor <= 0.0:
            raise ConfigurationError("log floor must be positive")

    @property
    def band_edges(self) -> np.ndarray:
        return np.geomspace(self.f_lo, self.f_hi, self.n_bands + 1)

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate))

    @property
    def clip_frames(self) -> int:
        return math.ceil(self.clip_samples / self.hop)


@lru_cache(maxsize=8)
def _band_matrix(codec: FeatureCodecSpec) -> np.ndarray:
    """(n_bands, n_bins) matrix distributing rfft bin power into bands.

    Each bin's nominal width is split across the bands it overlaps, so
    narrow low bands (below the bin spacing) still collect a fraction of
    their neighbors' power and bin power inside [f_lo, f_hi) is counted
    exactly once.
    """
    n_bins = codec.window // 2 + 1
    df = codec.sample_rate / codec.window
    bin_lo = np.arange(n_bins) * df - df / 2.0
    bin_hi = bin_lo + df
    edges = codec.band_edges
    mat = np.zeros((codec.n_bands, n_bins))
    for j in range(codec.n_bands):
        overlap = np.minimum(bin_hi, edges[j + 1]) - np.maximum(bin_lo, edges[j])
        mat[j] = np.clip(overlap, 0.0, None) / df
    return mat


def band_energies(waveform: np.ndarray, codec: FeatureCodecSpec) -> np.ndarray:
    """Per-frame linear band energies, shape (n_bands, n_frames)."""
    wave = np.asarray(waveform, dtype=np.float64)
    if wave.ndim != 1:
        raise DataError(f"waveform must be 1-D, got shape {wave.shape}")
    if wave.size < codec.window:
        raise DataError(
            f"waveform of {wave.size} samples is shorter than the window {codec.window}"
        )
    n_frames = math.ceil(wave.size / codec.hop)
    padded = np.pad(wave, (0, (n_frames - 1) * codec.hop + codec.window - wave.size))
    starts = np.arange(n_frames) * codec.hop
    frames = padded[starts[:, None] + np.arange(codec.window)[None, :]]
    spec = np.fft.rfft(frames * np.hanning(codec.window)[None, :], axis=1)
    power = spec.real**2 + spec.imag**2
    return _band_matrix(codec) @ power.T  # (n_bands, n_frames)


def features(
    waveform: np.ndarray,
    codec: FeatureCodecSpec,
    domain_label: str | None = None,
) -> LatentClip:
    """Band log-energy clip of a waveform, unnormalized."""
    out = np.log(codec.log_floor + band_energies(waveform, codec))
    return LatentClip(out, domain_label=domain_label)


@dataclass
class NormalizationStats:
    """Frozen per-channel corpus statistics; applied as (x - mean) / std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).ravel()
        self.std = np.asarray(self.std, dtype=np.float64).ravel()
        if self.mean.shape != self.std.shape:
            raise ConfigurationError("mean/std length mismatch")
        if np.any(self.std <= 0.0):
            raise ConfigurationError("std entries must be positive")

    def normalize_array(self, data: np.ndarray) -> np.ndarray:
        return (data - self.mean[:, None]) / self.std[:, None]

    def denormalize_array(self, data: np.ndarray) -> np.ndarray:
        return data * self.std[:, None] + self.mean[:, None]

    def normalize(self, clip: LatentClip) -> LatentClip:
        return LatentClip(self.normalize_array(clip.data), clip.domain_label)

    def stack(self, clips: list[LatentClip]) -> np.ndarray:
        """Feature-domain clips as one normalized (B, C, T) batch."""
        return np.stack([self.normalize(c).data for c in clips])

    def unstack(self, batch: np.ndarray, label: str | None) -> list[LatentClip]:
        """A normalized (B, C, T) batch as feature-domain clips labelled ``label``."""
        return [LatentClip(self.denormalize_array(x), domain_label=label) for x in batch]


def compute_stats(clips: list[LatentClip]) -> NormalizationStats:
    """Per-channel mean and (biased) standard deviation over a corpus."""
    if not clips:
        raise DataError("cannot compute statistics of an empty corpus")
    stacked = np.concatenate([c.data for c in clips], axis=1)
    mean = stacked.mean(axis=1)
    std = stacked.std(axis=1)
    return NormalizationStats(mean=mean, std=np.maximum(std, 1e-12))
