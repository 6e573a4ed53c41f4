import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrebridge.coupling import (
    MAX_EXACT_BATCH,
    CouplingConfig,
    apply_coupling,
    chunk_positions,
    couple_noise,
    ot_pair,
)
from timbrebridge.errors import ConfigurationError, ContractViolation


def brute_force_cost(cost: np.ndarray) -> float:
    b = cost.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(b)):
        best = min(best, sum(cost[i, perm[i]] for i in range(b)))
    return best


def test_no_chunking_single_position():
    assert len(chunk_positions(32, 64, CouplingConfig(0, 0))) == 1


def test_chunk_position_count():
    # C=32 channel chunks of 8 -> 4 blocks; T=8 time chunks of 4 -> 2 blocks
    assert len(chunk_positions(32, 8, CouplingConfig(4, 8))) == 8


def test_non_divisor_rejected():
    with pytest.raises(ConfigurationError):
        chunk_positions(32, 7, CouplingConfig(4, 8))
    with pytest.raises(ConfigurationError):
        chunk_positions(30, 8, CouplingConfig(4, 8))


def test_partition_covers_batch():
    # the chunk positions tile the clip: every entry lies in exactly one
    seen = np.zeros((8, 12))
    for cs, ts in chunk_positions(8, 12, CouplingConfig(4, 2)):
        assert seen[cs, ts].shape == (2, 4)
        seen[cs, ts] += 1
    assert np.all(seen == 1.0)


def test_identical_batches_identity_permutation(rng):
    batch = rng.standard_normal((6, 4, 8))
    result = ot_pair(batch, batch.copy(), CouplingConfig(4, 2))
    assert np.all(result.permutations == np.arange(6))
    assert result.costs == pytest.approx(np.zeros(len(result.positions)), abs=1e-9)


def test_two_by_two_cost_matrix_example():
    # cost [[1,2],[3,1]]: diagonal pairing costs 2, off-diagonal 5
    data = np.zeros((2, 1, 1))
    noise = np.zeros((2, 1, 1))
    data[0], data[1] = 0.0, 2.0
    noise[0], noise[1] = 1.0, 3.0
    # distances^2: d(0,n0)=1 d(0,n1)=9 / d(2,n0)=1 d(2,n1)=1
    result = ot_pair(data, noise, CouplingConfig(0, 0))
    assert result.costs[0] == pytest.approx(
        brute_force_cost(np.array([[1.0, 9.0], [1.0, 1.0]]))
    )


def test_single_clip_identity():
    data = np.random.default_rng(1).standard_normal((1, 2, 4))
    noise = np.random.default_rng(2).standard_normal((1, 2, 4))
    result = ot_pair(data, noise, CouplingConfig(0, 0))
    assert result.permutations.tolist() == [[0]]


@given(b=st.integers(2, 7), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_assignment_matches_brute_force(b, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((b, 2, 2))
    noise = rng.standard_normal((b, 2, 2))
    result = ot_pair(data, noise, CouplingConfig(0, 0))
    d = data.reshape(b, -1)
    e = noise.reshape(b, -1)
    cost = ((d[:, None, :] - e[None, :, :]) ** 2).sum(axis=2)
    assert result.costs[0] == pytest.approx(brute_force_cost(cost), rel=1e-10)


def test_marginal_preservation(rng):
    data = rng.standard_normal((8, 4, 8))
    noise = rng.standard_normal((8, 4, 8))
    config = CouplingConfig(4, 2)
    coupled, result = couple_noise(data, noise, config)
    for (cs, ts), perm in zip(result.positions, result.permutations):
        original = np.sort(noise[:, cs, ts].reshape(8, -1), axis=0)
        permuted = np.sort(coupled[:, cs, ts].reshape(8, -1), axis=0)
        assert np.array_equal(original, permuted)


def test_cost_never_exceeds_identity(rng):
    for _ in range(20):
        data = rng.standard_normal((6, 4, 4))
        noise = rng.standard_normal((6, 4, 4))
        result = ot_pair(data, noise, CouplingConfig(2, 2))
        assert np.all(result.costs <= result.identity_costs + 1e-12)


def test_chunked_cost_at_most_unchunked(rng):
    data = rng.standard_normal((10, 8, 8))
    noise = rng.standard_normal((10, 8, 8))
    whole = ot_pair(data, noise, CouplingConfig(0, 0)).costs.sum()
    chunked = ot_pair(data, noise, CouplingConfig(4, 8)).costs.sum()
    assert chunked <= whole + 1e-12


def test_batch_limit():
    data = np.zeros((MAX_EXACT_BATCH + 1, 1, 1))
    with pytest.raises(ConfigurationError):
        ot_pair(data, data, CouplingConfig(0, 0))


def test_shape_mismatch():
    with pytest.raises(ContractViolation):
        ot_pair(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)), CouplingConfig(0, 0))


def test_apply_coupling_roundtrip(rng):
    noise = rng.standard_normal((4, 2, 4))
    data = rng.standard_normal((4, 2, 4))
    result = ot_pair(data, noise, CouplingConfig(2, 2))
    coupled = apply_coupling(noise, result)
    assert coupled.shape == noise.shape
