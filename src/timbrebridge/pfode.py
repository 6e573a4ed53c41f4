"""Deterministic probability-flow ODE solvers over the noise grid.

The integration variable is sigma itself: dx/dsigma = (x - D(x; sigma)) / sigma.
All methods walk the ascending schedule grid between two indices, in either
direction; Heun is the reference predictor-corrector (order 2), Euler drops
the corrector, and classical RK4 adds midpoint stages at the arithmetic mean
of adjacent grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    ContractViolation,
    DivergenceError,
    DomainError,
)
from .schedule import ScheduleParams, sigma_grid

METHODS = ("euler", "heun", "rk4")
METHOD_ORDERS = {"euler": 1, "heun": 2, "rk4": 4}


@dataclass(frozen=True)
class SolverSpec:
    method: str = "heun"
    schedule: ScheduleParams = ScheduleParams()
    direction: str = "reverse"
    start_index: int | None = None
    end_index: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose from {METHODS}"
            )
        if self.direction not in ("forward", "reverse"):
            raise ConfigurationError(f"unknown direction {self.direction!r}")
        n = self.schedule.n_steps
        start, end = self.resolved_indices()
        for name, idx in (("start_index", start), ("end_index", end)):
            if not (0 <= idx <= n - 1):
                raise ConfigurationError(f"{name}={idx} outside [0, {n - 1}]")
        if start != end:
            ascending = end > start
            if ascending != (self.direction == "forward"):
                raise ConfigurationError(
                    f"index order {start}->{end} contradicts direction {self.direction}"
                )

    def resolved_indices(self) -> tuple[int, int]:
        n = self.schedule.n_steps
        if self.direction == "forward":
            start = 0 if self.start_index is None else self.start_index
            end = n - 1 if self.end_index is None else self.end_index
        else:
            start = n - 1 if self.start_index is None else self.start_index
            end = 0 if self.end_index is None else self.end_index
        return start, end

    def sigma_path(self) -> np.ndarray:
        grid = sigma_grid(self.schedule)
        start, end = self.resolved_indices()
        step = 1 if end >= start else -1
        return grid[start : end + step if end + step >= 0 else None : step]


def _slope(x: np.ndarray, sigma: float, denoise) -> np.ndarray:
    if sigma <= 0.0:
        raise DomainError(f"slope evaluation at sigma={sigma} is undefined")
    return (x - denoise(x, sigma)) / sigma


def solve_sigma_path(
    x: np.ndarray, denoise, sigmas: np.ndarray, method: str = "heun"
) -> np.ndarray:
    """Integrate along an explicit sigma sequence; ``denoise`` is D(x, sigma).

    A terminal sigma of exactly 0 is allowed: Euler never evaluates a slope
    there and Heun skips its corrector for that step (the guard in the
    predictor-corrector scheme). RK4 cannot visit sigma = 0 at all.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}")
    sigmas = np.asarray(sigmas, dtype=np.float64)
    x = np.array(x, dtype=np.float64)
    for i in range(len(sigmas) - 1):
        s_cur, s_next = float(sigmas[i]), float(sigmas[i + 1])
        h = s_next - s_cur
        d = _slope(x, s_cur, denoise)
        if method == "euler":
            x = x + h * d
        elif method == "heun":
            x_pred = x + h * d
            if s_next != 0.0:
                d_hat = _slope(x_pred, s_next, denoise)
                x = x + h * (0.5 * d + 0.5 * d_hat)
            else:
                x = x_pred
        else:  # rk4
            s_mid = 0.5 * (s_cur + s_next)
            k2 = _slope(x + 0.5 * h * d, s_mid, denoise)
            k3 = _slope(x + 0.5 * h * k2, s_mid, denoise)
            k4 = _slope(x + h * k3, s_next, denoise)
            x = x + (h / 6.0) * (d + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"solver state became non-finite at step {i} "
                f"(sigma {s_cur:.4g} -> {s_next:.4g})",
                step_index=i,
            )
    return x


def ode_solve(x: np.ndarray, model, spec: SolverSpec) -> np.ndarray:
    """Solve over the grid segment named by ``spec``; identity for zero-length solves."""
    x = np.asarray(x, dtype=np.float64)
    shape = getattr(model, "clip_shape", None)
    if shape is not None and x.shape[-2:] != tuple(shape):
        raise ContractViolation(
            f"model expects trailing shape {shape}, got {x.shape}"
        )
    sigmas = spec.sigma_path()
    if len(sigmas) < 2:
        return x.copy()
    return solve_sigma_path(x, model.denoise, sigmas, spec.method)


def max_grid_spacing(schedule: ScheduleParams) -> float:
    grid = sigma_grid(schedule)
    return float(np.max(np.abs(np.diff(grid))))


def fit_loglog_slope(hs, errs) -> float:
    hs = np.asarray(hs, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    return float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
