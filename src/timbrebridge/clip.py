"""The channels-by-frames tensor all diffusion math operates on, plus its file format.

Clip files are a small binary container: an 8-byte magic string, two uint32
fields (channels, frames), then channels*frames float32 little-endian values
in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_file
from .errors import ContractViolation, DataError

CLIP_MAGIC = b"TBRCLIP1"


@dataclass
class LatentClip:
    """A (channels, frames) float array with an optional instrument label."""

    data: np.ndarray
    domain_label: str | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ContractViolation(f"clip data must be 2-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DataError("clip contains non-finite entries")
        self.data = arr

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape


def write_clip(path: str | Path, clip: LatentClip) -> None:
    c, t = clip.shape
    header = CLIP_MAGIC + np.array([c, t], dtype="<u4").tobytes()
    body = clip.data.astype("<f4").tobytes(order="C")
    write_file(path, header + body)


def read_clip(path: str | Path, domain_label: str | None = None) -> LatentClip:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != CLIP_MAGIC:
        raise DataError(f"{path}: not a clip file (bad magic)")
    c, t = np.frombuffer(raw[8:16], dtype="<u4")
    expected = 16 + 4 * int(c) * int(t)
    if len(raw) != expected:
        raise DataError(f"{path}: truncated clip file ({len(raw)} vs {expected} bytes)")
    data = np.frombuffer(raw[16:], dtype="<f4").reshape(int(c), int(t))
    return LatentClip(data.astype(np.float64), domain_label=domain_label)
