import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timbrebridge.errors import ConfigurationError, ContractViolation, DomainError
from timbrebridge.bridge import BridgeConfig
from timbrebridge.gmm import GaussianMixtureDenoiser, standard_normal_mixture
from timbrebridge.schedule import ScheduleParams, precond, sigma_at, sigma_grid

PAPER_PARAMS = ScheduleParams(sigma_min=0.01, sigma_max=100.0, rho=9.0, n_steps=100)


def test_endpoints_exact():
    assert sigma_at(PAPER_PARAMS, 0) == pytest.approx(0.01, abs=4 * np.spacing(0.01))
    assert sigma_at(PAPER_PARAMS, 99) == pytest.approx(100.0, abs=4 * np.spacing(100.0))
    grid = sigma_grid(PAPER_PARAMS)
    assert grid[0] == 0.01 and grid[-1] == 100.0


def test_interior_value_matches_extended_precision():
    # mpmath at 50 digits: ((0.01^(1/9) + (50/99)*(100^(1/9)-0.01^(1/9)))^9
    assert sigma_at(PAPER_PARAMS, 50) == pytest.approx(
        3.2311980212084784, rel=1e-10
    )


def test_index_out_of_range():
    with pytest.raises(ContractViolation):
        sigma_at(PAPER_PARAMS, -1)
    with pytest.raises(ContractViolation):
        sigma_at(PAPER_PARAMS, 100)


@given(
    smin=st.floats(1e-4, 0.5),
    ratio=st.floats(2.0, 1e4),
    rho=st.floats(1.0, 12.0),
    n=st.integers(2, 300),
)
@settings(max_examples=60, deadline=None)
def test_grid_strictly_increasing(smin, ratio, rho, n):
    params = ScheduleParams(smin, smin * ratio, rho, n)
    grid = sigma_grid(params)
    assert np.all(np.diff(grid) > 0)


def test_rho_one_is_uniform():
    params = ScheduleParams(0.5, 4.5, 1.0, 9)
    assert sigma_grid(params) == pytest.approx(np.linspace(0.5, 4.5, 9), rel=1e-12)


def test_precond_zero_noise_identity():
    c = precond(0.0, 1.0)
    assert c.c_skip == 1.0 and c.c_out == 0.0 and c.c_in == 1.0 and c.c_noise is None


def test_precond_unit_values():
    c = precond(1.0, 1.0)
    assert c.c_skip == pytest.approx(0.5)
    assert c.c_out == pytest.approx(1 / math.sqrt(2))
    assert c.c_in == pytest.approx(1 / math.sqrt(2))
    assert c.c_noise == pytest.approx(0.0)


def test_precond_high_noise_asymptote():
    assert precond(100.0, 1.0).c_skip == pytest.approx(1.0 / 10001.0)


@pytest.mark.parametrize("sigma", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_precond_identity(sigma):
    c = precond(sigma, 1.0)
    lhs = c.c_skip**2 * (sigma**2 + 1.0) + c.c_out**2
    assert abs(lhs - 1.0) < 1e-12


@given(
    sigma=st.floats(1e-4, 1e4),
    sigma_data=st.floats(0.1, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_precond_identity_property(sigma, sigma_data):
    c = precond(sigma, sigma_data)
    lhs = c.c_skip**2 * (sigma**2 + sigma_data**2) + c.c_out**2
    assert abs(lhs - sigma_data**2) < 1e-12 * sigma_data**2
    assert 0.0 < c.c_skip <= 1.0
    assert c.c_out >= 0.0
    assert 0.0 < c.c_in <= 1.0 / sigma_data


def test_loss_weight_values():
    # the training loss weight lambda(sigma) = 1 / c_out(sigma)^2
    assert 1.0 / precond(1.0, 1.0).c_out ** 2 == pytest.approx(2.0)
    assert 1.0 / precond(0.01, 1.0).c_out ** 2 == pytest.approx(10001.0, rel=1e-10)


def test_c_noise_domain_error():
    assert precond(0.0, 1.0).c_noise is None  # ln(sigma)/4 is undefined at 0
    with pytest.raises(DomainError):
        precond(-1.0, 1.0)
    with pytest.raises(DomainError):
        precond(np.array([1.0, -0.5]), 1.0)
    with pytest.raises(DomainError):
        precond(1.0, 0.0)


def test_precond_vectorised_matches_scalar():
    sigmas = sigma_grid(PAPER_PARAMS)
    c = precond(sigmas, 1.5)
    for k in (0, 37, 99):
        one = precond(sigmas[k], 1.5)
        assert c.c_skip[k] == one.c_skip and c.c_out[k] == one.c_out
        assert c.c_in[k] == one.c_in and c.c_noise[k] == one.c_noise


def test_invalid_params_rejected():
    with pytest.raises(ConfigurationError):
        ScheduleParams(sigma_min=1.0, sigma_max=0.5)
    with pytest.raises(ConfigurationError):
        ScheduleParams(rho=0.5)
    with pytest.raises(ConfigurationError):
        ScheduleParams(n_steps=1)
    with pytest.raises(ConfigurationError):
        ScheduleParams(sigma_data=0.0)


def test_nearest_grid_index():
    unit = GaussianMixtureDenoiser(standard_normal_mixture(2), (2, 1))

    def top_index(sigma):
        return BridgeConfig(unit, unit, PAPER_PARAMS, inference_top_sigma=sigma).top_index()

    assert top_index(0.01) == 0
    assert top_index(100.0) == 99
    assert top_index(5.0) == 55
