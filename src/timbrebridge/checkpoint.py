"""Self-identifying binary checkpoint container with a JSON sidecar.

Layout: 8-byte magic, uint32 format version, uint32 header length, then the
UTF-8 JSON header (kind, scalar metadata, array manifest), then the named
float32 little-endian arrays concatenated in manifest order. The sidecar
<path>.json duplicates the scalar metadata for casual inspection.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError

CHECKPOINT_MAGIC = b"TBRCHKPT"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str | Path, kind: str, metadata: dict, arrays: dict[str, np.ndarray]
) -> None:
    path = Path(path)
    manifest = []
    blobs = []
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape)})
        blobs.append(arr.tobytes(order="C"))
    header = json.dumps(
        {"kind": kind, "metadata": metadata, "arrays": manifest}
    ).encode("utf-8")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.array([CHECKPOINT_VERSION, len(header)], dtype="<u4").tobytes())
        fh.write(header)
        for blob in blobs:
            fh.write(blob)
    sidecar = {"kind": kind, "version": CHECKPOINT_VERSION, "metadata": metadata}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=1))


def load_checkpoint(path: str | Path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(kind, metadata, arrays) of a checkpoint file; a file that is cut short,
    has an unreadable header or carries bytes past its last array raises
    DataError."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = np.frombuffer(raw[8:16], dtype="<u4")
    if int(version) != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {int(version)}")
    offset = 16 + int(header_len)
    try:
        header = json.loads(raw[16:offset].decode("utf-8"))
        kind, metadata = header["kind"], header["metadata"]
        manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["arrays"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"{path}: unreadable checkpoint header ({exc})") from None
    arrays = {}
    for name, shape in manifest:
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise DataError(f"{path}: bad shape {list(shape)} of array {name!r}")
        end = offset + 4 * math.prod(shape)
        if end > len(raw):
            raise DataError(f"{path}: truncated checkpoint")
        arr = np.frombuffer(raw[offset:end], dtype="<f4").reshape(shape)
        arrays[name] = arr.astype(np.float64)
        offset = end
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} bytes past the last array")
    return kind, metadata, arrays
