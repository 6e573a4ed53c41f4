"""Denoiser training: weighted denoising loss, AdamW, and EMA weights.

Each step draws a data batch, pairs it with (optionally OT-coupled) noise,
draws one grid index per sample uniformly over the whole schedule, and
minimizes mean_j lambda(sigma_j) * mse(x0_j, D(x0_j + sigma_j * eps_j)).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from . import network
from .clip import LatentClip
from .coupling import CouplingConfig, couple_noise
from .denoiser import NeuralDenoiser, new_denoiser
from .errors import ConfigurationError, DivergenceError
from .featurecodec import NormalizationStats
from .network import ArchSpec, Params
from .schedule import ScheduleParams, precond, sigma_grid

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingConfig:
    n_steps: int = 4000
    batch_size: int = 16
    lr: float = 1e-4
    beta1: float = 0.95
    beta2: float = 0.999
    adam_eps: float = 1e-6
    weight_decay: float = 1e-3
    ema_beta: float = 0.995
    ema_power: float = 0.7
    seed: int = 0
    coupling: CouplingConfig = field(default_factory=CouplingConfig)


@dataclass
class TrainingReport:
    final_loss: float
    loss_curve: np.ndarray
    epochs: float
    wall_seconds: float
    mean_assignment_cost: float | None = None


class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer."""

    def __init__(self, params: Params, config: TrainingConfig):
        self.cfg = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: Params, grads: Params) -> None:
        c = self.cfg
        self.t += 1
        b1c = 1.0 - c.beta1**self.t
        b2c = 1.0 - c.beta2**self.t
        for k, g in grads.items():
            self.m[k] = c.beta1 * self.m[k] + (1.0 - c.beta1) * g
            self.v[k] = c.beta2 * self.v[k] + (1.0 - c.beta2) * (g * g)
            update = (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + c.adam_eps)
            params[k] -= c.lr * update + c.lr * c.weight_decay * params[k]


def ema_decay(step: int, beta: float, power: float) -> float:
    """Warmed-up EMA decay; ramps from ~0 toward beta as training proceeds."""
    return beta * (1.0 - (1.0 + step) ** (-power))


def ema_update(ema: Params, params: Params, decay: float) -> None:
    for k in ema:
        ema[k] = decay * ema[k] + (1.0 - decay) * params[k]


def batch_loss_and_grads(
    model: NeuralDenoiser,
    x0: np.ndarray,
    noise: np.ndarray,
    sigmas: np.ndarray,
    params: Params | None = None,
) -> tuple[float, Params]:
    """Loss lambda(sigma) * per-sample MSE averaged over the batch, plus gradients.

    Writing the denoiser out as c_skip*x + c_out*F lets the chain rule stop
    at dL/dF = c_out * dL/dD, which is all the network backward pass needs.
    """
    if params is None:
        params = model.params
    b = x0.shape[0]
    x_noisy = x0 + sigmas[:, None, None] * noise
    c = precond(sigmas, model.schedule.sigma_data)
    feats = network.noise_embedding(c.c_noise, model.arch.noise_features)
    f, cache = network.forward(
        params, model.arch, c.c_in[:, None, None] * x_noisy, feats, want_cache=True
    )
    denoised = c.c_skip[:, None, None] * x_noisy + c.c_out[:, None, None] * f
    resid = denoised - x0
    # lambda(sigma) = 1/c_out^2, applied to the per-sample element mean
    lam = 1.0 / (c.c_out * c.c_out)
    per_sample = np.mean(resid * resid, axis=(1, 2))
    loss = float(np.mean(lam * per_sample))
    dresid = (2.0 / (b * resid.shape[1] * resid.shape[2])) * (
        lam[:, None, None] * resid
    )
    df = c.c_out[:, None, None] * dresid
    grads = network.backward(params, model.arch, cache, df)
    return loss, grads


def train(
    dataset: list[LatentClip],
    params: ScheduleParams,
    config: TrainingConfig,
    arch: ArchSpec | None = None,
    stats: NormalizationStats | None = None,
    label: str | None = None,
) -> tuple[NeuralDenoiser, TrainingReport]:
    """Train a denoiser on normalized clips; returns the model and its report.

    ``dataset`` must already be in normalized feature space; ``stats`` is
    carried into the checkpoint so downstream consumers can invert it.
    """
    if not dataset:
        raise ConfigurationError("training dataset is empty")
    shapes = {c.shape for c in dataset}
    if len(shapes) > 1:
        raise ConfigurationError(f"clips disagree on shape: {sorted(shapes)}")
    (c, t) = dataset[0].shape
    if arch is None:
        arch = ArchSpec(channels=c)
    if arch.channels != c:
        raise ConfigurationError(
            f"architecture expects {arch.channels} channels, data has {c}"
        )

    data = np.stack([clip.data for clip in dataset])  # (n, C, T)
    model = new_denoiser(arch, params, seed=config.seed, stats=stats, label=label)
    opt = AdamW(model.params, config)
    grid = sigma_grid(params)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0x7E41]))

    losses = np.empty(config.n_steps)
    costs: list[float] = []
    steps_per_epoch = max(1, len(dataset) // config.batch_size)
    t0 = time.perf_counter()
    for step in range(config.n_steps):
        idx = rng.integers(0, len(dataset), size=config.batch_size)
        x0 = data[idx]
        noise = rng.standard_normal(x0.shape)
        if config.coupling.enabled:
            noise, result = couple_noise(x0, noise, config.coupling)
            costs.append(result.mean_cost)
        sig = grid[rng.integers(0, params.n_steps, size=config.batch_size)]
        loss, grads = batch_loss_and_grads(model, x0, noise, sig)
        if not np.isfinite(loss):
            raise DivergenceError(
                f"training loss became non-finite at step {step}", step_index=step
            )
        losses[step] = loss
        opt.step(model.params, grads)
        ema_update(
            model.ema_params,
            model.params,
            ema_decay(opt.t, config.ema_beta, config.ema_power),
        )
        if (step + 1) % steps_per_epoch == 0 and costs:
            epoch = (step + 1) // steps_per_epoch
            recent = costs[-steps_per_epoch:]
            log.debug(
                "epoch %d: loss %.4g, mean assignment cost %.4g",
                epoch,
                loss,
                float(np.mean(recent)),
            )
    wall = time.perf_counter() - t0

    tail = losses[-min(50, len(losses)) :]
    report = TrainingReport(
        final_loss=float(tail.mean()),
        loss_curve=losses,
        epochs=config.n_steps / steps_per_epoch,
        wall_seconds=wall,
        mean_assignment_cost=float(np.mean(costs)) if costs else None,
    )
    return model, report
