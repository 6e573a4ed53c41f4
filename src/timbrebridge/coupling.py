"""Chunk-based minibatch optimal-transport coupling of data and noise.

Each chunk position (a channel block crossed with a time block) is paired
independently: the B data sub-tensors and B noise sub-tensors at that
position are matched by an exact assignment minimizing total squared
Euclidean distance, and the noise batch is permuted accordingly before the
noise level is drawn. Chunk size 0 along an axis means no chunking there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ConfigurationError, ContractViolation

MAX_EXACT_BATCH = 128


@dataclass(frozen=True)
class CouplingConfig:
    time_chunk: int = 4
    channel_chunk: int = 8
    enabled: bool = True

    def __post_init__(self):
        if self.time_chunk < 0 or self.channel_chunk < 0:
            raise ConfigurationError("chunk sizes must be >= 0")


def chunk_positions(
    channels: int, frames: int, config: CouplingConfig
) -> list[tuple[slice, slice]]:
    """All (channel block, time block) slices; (0, 0) yields one full-clip position."""
    cc = config.channel_chunk or channels
    tc = config.time_chunk or frames
    if channels % cc != 0:
        raise ConfigurationError(
            f"channel chunk {cc} does not divide channel count {channels}"
        )
    if frames % tc != 0:
        raise ConfigurationError(f"time chunk {tc} does not divide frame count {frames}")
    return [
        (slice(c0, c0 + cc), slice(t0, t0 + tc))
        for c0 in range(0, channels, cc)
        for t0 in range(0, frames, tc)
    ]


@dataclass
class CouplingResult:
    positions: list[tuple[slice, slice]]
    permutations: np.ndarray  # (n_positions, B) noise index assigned to each data item
    costs: np.ndarray  # (n_positions,) optimal total squared distance
    identity_costs: np.ndarray  # (n_positions,) cost of the unpermuted pairing

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())


def ot_pair(
    data_batch: np.ndarray, noise_batch: np.ndarray, config: CouplingConfig
) -> CouplingResult:
    """Exact assignment between data and noise chunks at every chunk position."""
    data_batch = np.asarray(data_batch, dtype=np.float64)
    noise_batch = np.asarray(noise_batch, dtype=np.float64)
    if data_batch.shape != noise_batch.shape:
        raise ContractViolation(
            f"data/noise shape mismatch: {data_batch.shape} vs {noise_batch.shape}"
        )
    b = data_batch.shape[0]
    if b < 1:
        raise ContractViolation("batch must contain at least one clip")
    if b > MAX_EXACT_BATCH:
        raise ConfigurationError(
            f"batch size {b} exceeds the exact-assignment limit "
            f"{MAX_EXACT_BATCH}; use a smaller batch"
        )
    positions = chunk_positions(data_batch.shape[1], data_batch.shape[2], config)
    # (P, B, n): the B flattened chunks at each position, positions in the
    # order chunk_positions lists them
    d = _chunk_rows(data_batch, positions)
    e = _chunk_rows(noise_batch, positions)
    # ||d_i - e_j||^2 expanded; the Hungarian solver needs the full matrices
    cost = (
        np.sum(d * d, axis=2)[:, :, None]
        + np.sum(e * e, axis=2)[:, None, :]
        - 2.0 * d @ e.transpose(0, 2, 1)
    )
    perms = np.empty((len(positions), b), dtype=np.int64)
    costs = np.empty(len(positions))
    id_costs = np.empty(len(positions))
    for p, c in enumerate(cost):
        rows, cols = linear_sum_assignment(c)
        perms[p] = cols[np.argsort(rows)]
        costs[p] = float(c[rows, cols].sum())
        id_costs[p] = float(np.trace(c))
    return CouplingResult(positions, perms, costs, id_costs)


def _chunk_rows(batch: np.ndarray, positions: list[tuple[slice, slice]]) -> np.ndarray:
    b, channels, frames = batch.shape
    cc = positions[0][0].stop - positions[0][0].start
    tc = positions[0][1].stop - positions[0][1].start
    blocks = batch.reshape(b, channels // cc, cc, frames // tc, tc)
    return blocks.transpose(1, 3, 0, 2, 4).reshape(len(positions), b, cc * tc)


def apply_coupling(noise_batch: np.ndarray, result: CouplingResult) -> np.ndarray:
    """Rebuild the noise batch with each chunk position permuted independently."""
    out = np.empty_like(noise_batch)
    for (cs, ts), perm in zip(result.positions, result.permutations):
        out[:, cs, ts] = noise_batch[perm, cs, ts]
    return out


def couple_noise(
    data_batch: np.ndarray, noise_batch: np.ndarray, config: CouplingConfig
) -> tuple[np.ndarray, CouplingResult]:
    result = ot_pair(data_batch, noise_batch, config)
    return apply_coupling(noise_batch, result), result
