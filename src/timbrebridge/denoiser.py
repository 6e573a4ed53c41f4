"""The preconditioned neural denoiser and its persistence.

D(x, sigma) = c_skip(sigma) * x + c_out(sigma) * F(c_in(sigma) * x; c_noise(sigma))
wraps the raw network so its input and output stay near unit scale at every
noise level. Inference uses the EMA weights.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import network
from .errors import ContractViolation, DataError, DomainError, TimbrebridgeError
from .featurecodec import NormalizationStats
from .network import ArchSpec, Params
from .schedule import ScheduleParams, precond


@dataclass
class NeuralDenoiser:
    arch: ArchSpec
    params: Params
    ema_params: Params
    schedule: ScheduleParams
    stats: NormalizationStats | None = None
    seed: int = 0
    label: str | None = None

    def __post_init__(self):
        for key, v in self.params.items():
            if key not in self.ema_params or self.ema_params[key].shape != v.shape:
                raise ContractViolation(f"EMA weights inconsistent at {key}")

    @property
    def sigma_data(self) -> float:
        return self.schedule.sigma_data

    @property
    def inference_params(self) -> Params:
        return self.ema_params

    def denoise(self, x: np.ndarray, sigma) -> np.ndarray:
        """Batched preconditioned denoiser; sigma is a scalar or (B,) array."""
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 2
        xb = x[None] if squeeze else x
        if xb.ndim != 3 or xb.shape[1] != self.arch.channels:
            raise ContractViolation(f"bad input shape {x.shape}")
        if not np.all(np.isfinite(xb)):
            raise DataError("non-finite input to denoiser")
        b = xb.shape[0]
        sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (b,)).copy()
        if np.any(sig <= 0.0):
            raise DomainError("denoise requires sigma > 0")
        c = precond(sig, self.schedule.sigma_data)
        feats = network.noise_embedding(c.c_noise, self.arch.noise_features)
        f = network.forward(
            self.inference_params, self.arch, c.c_in[:, None, None] * xb, feats
        )
        out = c.c_skip[:, None, None] * xb + c.c_out[:, None, None] * f
        return out[0] if squeeze else out


def new_denoiser(
    arch: ArchSpec,
    schedule: ScheduleParams,
    seed: int = 0,
    stats: NormalizationStats | None = None,
    label: str | None = None,
) -> NeuralDenoiser:
    rng = np.random.default_rng(seed)
    params = network.init_params(arch, rng)
    ema = {k: v.copy() for k, v in params.items()}
    return NeuralDenoiser(
        arch=arch,
        params=params,
        ema_params=ema,
        schedule=schedule,
        stats=stats,
        seed=seed,
        label=label,
    )


def save_denoiser(path, model: NeuralDenoiser) -> list:
    from .checkpoint import save_checkpoint

    meta = {
        "arch": asdict(model.arch),
        "schedule": asdict(model.schedule),
        "seed": model.seed,
        "label": model.label,
        "has_stats": model.stats is not None,
    }
    arrays = {}
    for k, v in model.params.items():
        arrays[f"raw/{k}"] = v
    for k, v in model.ema_params.items():
        arrays[f"ema/{k}"] = v
    if model.stats is not None:
        arrays["stats/mean"] = model.stats.mean
        arrays["stats/std"] = model.stats.std
    return save_checkpoint(path, "denoiser", meta, arrays)


def load_denoiser(path) -> NeuralDenoiser:
    """The denoiser saved at ``path``; metadata or arrays that are missing,
    non-finite, misshapen for the arch or otherwise invalid raise DataError."""
    from .checkpoint import load_checkpoint

    kind, meta, arrays = load_checkpoint(path)
    if kind != "denoiser":
        raise DataError(f"{path}: checkpoint kind {kind!r}, expected 'denoiser'")
    try:
        arch = ArchSpec(**meta["arch"])
        sched = ScheduleParams(**meta["schedule"])
        shapes = network.param_shapes(arch)
        for name, arr in arrays.items():
            part, _, key = name.partition("/")
            if part in ("raw", "ema") and arr.shape != shapes.get(key):
                raise DataError(
                    f"array {name!r} has shape {arr.shape}, the arch implies {shapes.get(key)}"
                )
            if not np.all(np.isfinite(arr)):
                raise DataError(f"array {name!r} has non-finite entries")
        params = {k: arrays[f"raw/{k}"] for k in shapes}
        ema = {k: arrays[f"ema/{k}"] for k in shapes}
        stats = None
        if meta.get("has_stats"):
            stats = NormalizationStats(mean=arrays["stats/mean"], std=arrays["stats/std"])
        return NeuralDenoiser(
            arch=arch,
            params=params,
            ema_params=ema,
            schedule=sched,
            stats=stats,
            seed=int(meta.get("seed", 0)),
            label=meta.get("label"),
        )
    except (KeyError, TypeError, ValueError, TimbrebridgeError) as exc:
        raise DataError(
            f"{path}: not a valid denoiser checkpoint ({type(exc).__name__}: {exc})"
        ) from None
