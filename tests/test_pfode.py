import numpy as np
import pytest

from timbrebridge.errors import ConfigurationError, DivergenceError, DomainError
from timbrebridge.gmm import (
    GaussianMixtureDenoiser,
    demo_pair_2d,
    standard_normal_mixture,
)
from timbrebridge.pfode import (
    SolverSpec,
    max_grid_spacing,
    ode_solve,
    solve_sigma_path,
)
from timbrebridge.schedule import ScheduleParams
from timbrebridge.studies import convergence_study

UNIT = GaussianMixtureDenoiser(standard_normal_mixture(2), (2, 1))


@pytest.mark.parametrize("method", ["euler", "heun", "rk4"])
def test_zero_length_solve_is_identity(method):
    sched = ScheduleParams(n_steps=10)
    x = np.random.default_rng(0).standard_normal((3, 2, 1))
    spec = SolverSpec(method, sched, "forward", start_index=4, end_index=4)
    assert np.array_equal(ode_solve(x, UNIT, spec), x)


def test_linear_oracle_closed_form():
    """For a standard Gaussian, D(x,s) = x/(1+s^2) and the flow has the closed
    form x(b) = x(a) * sqrt((1+b^2)/(1+a^2))."""
    sched = ScheduleParams(n_steps=400)
    x = np.array([[[0.7], [-1.2]]])
    out = ode_solve(x, UNIT, SolverSpec("heun", sched, "forward"))
    expect = x * np.sqrt((1 + 100.0**2) / (1 + 0.01**2))
    assert np.max(np.abs(out - expect) / np.abs(expect)) < 1e-3


def test_forward_reverse_roundtrip():
    src, _ = demo_pair_2d()
    den = GaussianMixtureDenoiser(src, (2, 1))
    sched = ScheduleParams(n_steps=100)
    xs = den.sample_clips(40, np.random.default_rng(1))
    fwd = ode_solve(xs, den, SolverSpec("heun", sched, "forward"))
    back = ode_solve(fwd, den, SolverSpec("heun", sched, "reverse"))
    rel = np.linalg.norm((back - xs).reshape(40, -1), axis=1) / np.linalg.norm(
        xs.reshape(40, -1), axis=1
    )
    assert rel.max() < 1e-3


def test_roundtrip_error_shrinks_with_n():
    src, _ = demo_pair_2d()
    den = GaussianMixtureDenoiser(src, (2, 1))
    xs = den.sample_clips(40, np.random.default_rng(2))

    def roundtrip(n):
        sched = ScheduleParams(n_steps=n)
        fwd = ode_solve(xs, den, SolverSpec("heun", sched, "forward"))
        back = ode_solve(fwd, den, SolverSpec("heun", sched, "reverse"))
        return float(np.mean(np.linalg.norm((back - xs).reshape(40, -1), axis=1)))

    coarse, fine = roundtrip(50), roundtrip(200)
    assert fine < coarse / 3.0  # quadrupling N cuts the O(h^2) roundtrip by >=3x


def test_heun_skips_corrector_at_zero():
    calls = []

    def denoise(x, sigma):
        calls.append(sigma)
        return x * 0.0

    x = np.array([1.0])
    out = solve_sigma_path(x, denoise, np.array([1.0, 0.0]), "heun")
    # euler branch only: d = (x - 0)/1, x1 = x + (0-1)*d = 0
    assert out == pytest.approx(np.array([0.0]))
    assert calls == [1.0]


def test_euler_never_evaluates_terminal_zero():
    calls = []

    def denoise(x, sigma):
        calls.append(sigma)
        return x * 0.0

    solve_sigma_path(np.array([1.0]), denoise, np.array([0.5, 0.0]), "euler")
    assert calls == [0.5]


def test_rk4_rejects_zero_sigma():
    with pytest.raises(DomainError):
        solve_sigma_path(
            np.array([1.0]), lambda x, s: 0.0 * x, np.array([1.0, 0.0]), "rk4"
        )


def test_divergence_error_names_step():
    def denoise(x, sigma):
        return np.full_like(x, np.nan)

    with pytest.raises(DivergenceError) as err:
        solve_sigma_path(np.array([1.0]), denoise, np.array([1.0, 2.0, 3.0]), "euler")
    assert err.value.step_index == 0


def test_direction_index_consistency():
    sched = ScheduleParams(n_steps=10)
    with pytest.raises(ConfigurationError):
        SolverSpec("heun", sched, "forward", start_index=8, end_index=2)
    with pytest.raises(ConfigurationError):
        SolverSpec("heun", sched, "reverse", start_index=2, end_index=8)
    with pytest.raises(ConfigurationError):
        SolverSpec("heun", sched, "forward", start_index=0, end_index=10)
    with pytest.raises(ConfigurationError):
        SolverSpec("simpson", sched, "forward")


def test_sigma_path_segments():
    sched = ScheduleParams(n_steps=5)
    fwd = SolverSpec("heun", sched, "forward", start_index=1, end_index=3)
    rev = SolverSpec("heun", sched, "reverse", start_index=3, end_index=0)
    assert len(fwd.sigma_path()) == 3
    assert len(rev.sigma_path()) == 4
    assert fwd.sigma_path()[0] < fwd.sigma_path()[-1]
    assert rev.sigma_path()[0] > rev.sigma_path()[-1]


def test_step_count_sweep_orders():
    src, tgt = demo_pair_2d()
    results = convergence_study(
        src, tgt, ["euler", "heun", "rk4"], [10, 20, 40, 80, 160], n_samples=300,
        seed=3, tv_reference_samples=20_000,
    )
    slopes = {r.method: r.slope for r in results}
    assert 0.8 <= slopes["euler"] <= 1.2
    assert 1.7 <= slopes["heun"] <= 2.3
    assert slopes["rk4"] >= 3.0
    assert all(r.reference_steps >= 32 * 160 for r in results)


def test_max_grid_spacing_monotone_in_n():
    sched = ScheduleParams()
    hs = [max_grid_spacing(sched.with_steps(n)) for n in (10, 20, 40, 80)]
    assert all(a > b for a, b in zip(hs, hs[1:]))
