"""Dual-bridge orchestration through the shared Gaussian latent.

A transfer runs the source model's ODE forward (data to noise) up to the
inference top noise level, then hands the latent to the target model's
reverse solve unchanged. Truncated inference snaps the requested top level
to the nearest schedule node and solves over that grid prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, ContractViolation, DataError
from .pfode import SolverSpec, ode_solve
from .schedule import ScheduleParams, sigma_grid

SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class BridgeConfig:
    source_model: object
    target_model: object
    schedule: ScheduleParams
    inference_top_sigma: float | None = None  # None means the full grid
    solver_method: str = "heun"
    snap_top_sigma: bool = True

    def __post_init__(self):
        src_shape = getattr(self.source_model, "clip_shape", None)
        tgt_shape = getattr(self.target_model, "clip_shape", None)
        if src_shape is not None and tgt_shape is not None and src_shape != tgt_shape:
            raise ConfigurationError(
                f"models disagree on clip shape: {src_shape} vs {tgt_shape}"
            )
        top = self.top_sigma  # validate snapping now, not at solve time
        sched = self.schedule
        for name, model in (("source", self.source_model), ("target", self.target_model)):
            sd = getattr(model, "sigma_data", None)
            if sd is not None and sd != sched.sigma_data:
                raise ConfigurationError(
                    f"{name} model sigma_data {sd} != schedule {sched.sigma_data}"
                )
            # analytic denoisers carry no schedule and are valid at every sigma
            trained = getattr(model, "schedule", None)
            if trained is None:
                continue
            if (trained.sigma_min, trained.rho) != (sched.sigma_min, sched.rho):
                raise ConfigurationError(
                    f"{name} model grid (sigma_min {trained.sigma_min}, rho {trained.rho}) "
                    f"differs from the bridge's (sigma_min {sched.sigma_min}, "
                    f"rho {sched.rho})"
                )
            if top > trained.sigma_max:
                raise ConfigurationError(
                    f"top sigma {top:g} exceeds the {name} model's trained "
                    f"sigma_max {trained.sigma_max:g}"
                )

    def top_index(self) -> int:
        """Grid index of the inference top noise level."""
        if self.inference_top_sigma is None:
            return self.schedule.n_steps - 1
        grid = sigma_grid(self.schedule)
        if not (grid[0] <= self.inference_top_sigma <= grid[-1]):
            raise ConfigurationError(
                f"inference top sigma {self.inference_top_sigma} outside "
                f"[{grid[0]}, {grid[-1]}]"
            )
        idx = int(np.argmin(np.abs(grid - self.inference_top_sigma)))
        off = abs(grid[idx] - self.inference_top_sigma)
        if not self.snap_top_sigma and off > SNAP_REL_TOL * max(
            1.0, abs(self.inference_top_sigma)
        ):
            raise ConfigurationError(
                f"requested top sigma {self.inference_top_sigma} is not a grid node "
                f"(nearest is {grid[idx]}) and snapping is disabled"
            )
        return idx

    @property
    def top_sigma(self) -> float:
        return float(sigma_grid(self.schedule)[self.top_index()])

    def swapped(self) -> "BridgeConfig":
        return replace(
            self, source_model=self.target_model, target_model=self.source_model
        )


def forward_to_latent(x_src: np.ndarray, config: BridgeConfig) -> np.ndarray:
    """Source-domain data to the shared latent at the top noise level."""
    spec = SolverSpec(
        method=config.solver_method,
        schedule=config.schedule,
        direction="forward",
        start_index=0,
        end_index=config.top_index(),
    )
    return ode_solve(x_src, config.source_model, spec)


def sample_shared(latent: np.ndarray, model, config: BridgeConfig) -> np.ndarray:
    """Reverse solve from the shared latent under ``model``; deterministic."""
    latent = np.asarray(latent, dtype=np.float64)
    shape = getattr(model, "clip_shape", None)
    if shape is not None and latent.shape[-2:] != tuple(shape):
        raise ContractViolation(
            f"latent trailing shape {latent.shape} incompatible with model {shape}"
        )
    if not np.all(np.isfinite(latent)):
        raise DataError("latent contains non-finite entries")
    spec = SolverSpec(
        method=config.solver_method,
        schedule=config.schedule,
        direction="reverse",
        start_index=config.top_index(),
        end_index=0,
    )
    return ode_solve(latent, model, spec)


def transfer(x_src: np.ndarray, config: BridgeConfig) -> np.ndarray:
    """Source to target domain through the shared latent (the dual bridge)."""
    return sample_shared(forward_to_latent(x_src, config), config.target_model, config)


def cycle(x_src: np.ndarray, config: BridgeConfig) -> np.ndarray:
    """Transfer source->target, then target->source; reconstructs the input."""
    return transfer(transfer(x_src, config), config.swapped())


def draw_latents(
    n: int, clip_shape: tuple[int, int], config: BridgeConfig, rng: np.random.Generator
) -> np.ndarray:
    """i.i.d. N(0, top_sigma^2) latents of shape (n, C, T)."""
    return config.top_sigma * rng.standard_normal((n, *clip_shape))
