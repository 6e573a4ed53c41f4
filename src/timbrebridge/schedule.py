"""Noise-level schedule and denoiser preconditioning coefficients.

The grid warps ``n_steps`` indices between ``sigma_min`` and ``sigma_max``
through a ``rho``-powered interpolation; index 0 is the low-noise end and
index ``n_steps - 1`` the high-noise end. Solvers iterate this ascending grid
in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractViolation, DomainError


@dataclass(frozen=True)
class ScheduleParams:
    """Parameters of the warped noise grid.

    ``sigma_data`` is the data scale entering the preconditioning
    coefficients; it is carried here because training and inference must
    agree on it.
    """

    sigma_min: float = 0.01
    sigma_max: float = 100.0
    rho: float = 9.0
    n_steps: int = 100
    sigma_data: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.sigma_min < self.sigma_max):
            raise ConfigurationError(
                f"need 0 < sigma_min < sigma_max, got {self.sigma_min}, {self.sigma_max}"
            )
        if self.rho < 1.0:
            raise ConfigurationError(f"rho must be >= 1, got {self.rho}")
        if self.n_steps < 2:
            raise ConfigurationError(f"n_steps must be >= 2, got {self.n_steps}")
        if self.sigma_data <= 0.0:
            raise ConfigurationError(f"sigma_data must be > 0, got {self.sigma_data}")

    def with_steps(self, n_steps: int) -> "ScheduleParams":
        return replace(self, n_steps=n_steps)


def sigma_at(params: ScheduleParams, i: int) -> float:
    """Noise level at grid index ``i``; strictly increasing in ``i``."""
    n = params.n_steps
    if not (0 <= i <= n - 1):
        raise ContractViolation(f"grid index {i} outside [0, {n - 1}]")
    inv_rho = 1.0 / params.rho
    lo = params.sigma_min**inv_rho
    hi = params.sigma_max**inv_rho
    return (lo + (i / (n - 1)) * (hi - lo)) ** params.rho


def sigma_grid(params: ScheduleParams) -> np.ndarray:
    """The full ascending grid as a float64 array of length ``n_steps``."""
    n = params.n_steps
    inv_rho = 1.0 / params.rho
    lo = params.sigma_min**inv_rho
    hi = params.sigma_max**inv_rho
    ramp = np.arange(n, dtype=np.float64) / (n - 1)
    grid = (lo + ramp * (hi - lo)) ** params.rho
    # pin endpoints exactly; the power round-trip can be off by an ulp
    grid[0] = params.sigma_min
    grid[-1] = params.sigma_max
    return grid


@dataclass(frozen=True)
class PrecondCoeffs:
    """The four scalings applied around the raw network, one per noise level."""

    c_skip: np.ndarray
    c_out: np.ndarray
    c_in: np.ndarray
    c_noise: np.ndarray | None


def precond(sigma, sigma_data: float) -> PrecondCoeffs:
    """Preconditioning coefficients at noise level ``sigma`` (a scalar or an array).

    The training loss weight is ``1 / c_out**2``. ``c_noise`` is ``ln(sigma)/4``
    and therefore only defined for sigma > 0; when any sigma is 0 it is
    returned as None so that the zero-noise identity (c_skip=1, c_out=0)
    remains usable.
    """
    sig = np.asarray(sigma, dtype=np.float64)
    if np.any(sig < 0.0):
        raise DomainError(f"sigma must be >= 0, got {sigma}")
    if sigma_data <= 0.0:
        raise DomainError(f"sigma_data must be > 0, got {sigma_data}")
    var = sig * sig + sigma_data * sigma_data
    c_skip = sigma_data * sigma_data / var
    c_out = sig * sigma_data / np.sqrt(var)
    c_in = 1.0 / np.sqrt(var)
    c_noise = np.log(sig) / 4.0 if np.all(sig > 0.0) else None
    return PrecondCoeffs(c_skip, c_out, c_in, c_noise)
