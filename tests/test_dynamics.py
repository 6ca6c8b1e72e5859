"""Moment evolution: closed form, numeric integrator, expansion curves."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import waxsim.dynamics as dynamics
from waxsim import (
    ChannelToggles,
    CSLParams,
    DomainError,
    GaussianState,
    NumericalError,
    Scenario,
    evolve_free,
    expansion_curve,
    fused_silica_particle,
    ground_environment,
    initial_state,
)
from waxsim.constants import hbar
from oracles import evolve_numeric, rk4_integrate

OMEGA = 2.0 * math.pi * 1e5
LAMBDA_BB = 2e19  # m^-2 s^-1, order of the default sphere's blackbody sum at 300 K


def random_states(count, seed=11):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(count):
        x_var = 10.0 ** rng.uniform(-24, -10)
        p_var = 10.0 ** rng.uniform(-46, -38)
        # keep a comfortable margin above the Heisenberg bound
        limit = 0.5 * math.sqrt(max(x_var * p_var - 0.3 * hbar**2, 0.0))
        xp_cov = rng.uniform(-limit, limit)
        states.append(GaussianState(x_var=x_var, xp_cov=xp_cov, p_var=p_var))
    return states


class TestInitialState:
    def test_ground_state_saturates_heisenberg(self, silica):
        state = initial_state(silica, OMEGA, occupancy=0.0)
        assert_allclose(state.x_var * state.p_var, hbar**2 / 4.0, rtol=1e-12)
        assert state.xp_cov == 0.0

    def test_half_phonon_doubles_variances(self, silica):
        cold = initial_state(silica, OMEGA, occupancy=0.0)
        warm = initial_state(silica, OMEGA, occupancy=0.5)
        assert_allclose(warm.x_var, 2.0 * cold.x_var, rtol=1e-12)
        assert_allclose(warm.p_var, 2.0 * cold.p_var, rtol=1e-12)

    def test_ground_state_width_value(self, silica):
        state = initial_state(silica, OMEGA)
        assert_allclose(state.sigma, 2.2956497833141595e-12, rtol=1e-10)

    def test_rejects_bad_inputs(self, silica):
        with pytest.raises(DomainError):
            initial_state(silica, 0.0)
        with pytest.raises(DomainError):
            initial_state(silica, OMEGA, occupancy=-0.1)

    def test_heisenberg_enforced_at_construction(self):
        with pytest.raises(DomainError):
            GaussianState(x_var=1e-24, xp_cov=0.0, p_var=1e-48)

    @pytest.mark.parametrize(
        "moments, message",
        [
            ((math.inf, 0.0, 1.0), "x_var = inf is not finite and > 0"),
            ((math.nan, 0.0, 1.0), "x_var = nan is not finite and > 0"),
            ((1.0, 0.0, math.inf), "p_var = inf is not finite and > 0"),
            ((1.0, math.nan, 1.0), "xp_cov = nan is not finite"),
            ((1.0, -math.inf, 1.0), "xp_cov = -inf is not finite"),
        ],
    )
    def test_non_finite_moments_refused_at_construction(self, moments, message):
        x_var, xp_cov, p_var = moments
        with pytest.raises(DomainError, match=f"^{message}$"):
            GaussianState(x_var=x_var, xp_cov=xp_cov, p_var=p_var)


class TestEvolveFree:
    def test_zero_time_is_identity(self, silica):
        state = initial_state(silica, OMEGA)
        after = evolve_free(state, silica.mass, LAMBDA_BB, 0.0)
        assert after == state

    def test_ballistic_matches_analytic(self, silica):
        state = initial_state(silica, OMEGA)
        for t in np.linspace(0.0, 100.0, 23):
            evolved = evolve_free(state, silica.mass, 0.0, t)
            expected = state.x_var + state.p_var * t**2 / silica.mass**2
            assert_allclose(evolved.x_var, expected, rtol=1e-12)

    def test_momentum_diffusion_rate(self, silica):
        state = initial_state(silica, OMEGA)
        after = evolve_free(state, silica.mass, LAMBDA_BB, 7.0)
        assert_allclose(
            after.p_var, state.p_var + 2.0 * hbar**2 * LAMBDA_BB * 7.0, rtol=1e-12
        )

    @pytest.mark.parametrize("state", random_states(10))
    def test_composition_semigroup(self, state, silica):
        t1, t2 = 13.7, 41.3
        one_shot = evolve_free(state, silica.mass, LAMBDA_BB, t1 + t2)
        two_step = evolve_free(
            evolve_free(state, silica.mass, LAMBDA_BB, t1), silica.mass, LAMBDA_BB, t2
        )
        assert_allclose(two_step.x_var, one_shot.x_var, rtol=1e-12)
        assert_allclose(two_step.xp_cov, one_shot.xp_cov, rtol=1e-12)
        assert_allclose(two_step.p_var, one_shot.p_var, rtol=1e-12)

    def test_strictly_increasing_in_rate(self, silica):
        state = initial_state(silica, OMEGA)
        rates = [0.0, 1e18, 1e19, 1e20]
        widths = [evolve_free(state, silica.mass, r, 10.0).x_var for r in rates]
        assert all(a < b for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("state", random_states(10, seed=23))
    def test_heisenberg_preserved_along_trajectory(self, state, silica):
        for t in (0.1, 1.0, 10.0, 100.0):
            evolved = evolve_free(state, silica.mass, LAMBDA_BB, t)
            slack = dynamics.heisenberg_allowance(
                evolved.x_var, evolved.xp_cov, evolved.p_var
            )
            assert evolved.heisenberg_product >= hbar**2 / 4.0 * (1.0 - 1e-9) - slack

    def test_rejects_negative_arguments(self, silica):
        state = initial_state(silica, OMEGA)
        with pytest.raises(DomainError):
            evolve_free(state, silica.mass, LAMBDA_BB, -1.0)
        with pytest.raises(DomainError):
            evolve_free(state, silica.mass, -1.0, 1.0)

    def test_late_time_cubic_slope(self, silica):
        state = initial_state(silica, OMEGA)
        times = np.geomspace(1.0, 100.0, 12)
        excess = np.array(
            [
                evolve_free(state, silica.mass, LAMBDA_BB, t).x_var
                - evolve_free(state, silica.mass, 0.0, t).x_var
                for t in times
            ]
        )
        slope = np.polyfit(np.log(times), np.log(excess), 1)[0]
        assert abs(slope - 3.0) < 0.01


class TestEvolveNumeric:
    def test_ballistic_agreement(self, silica):
        state = initial_state(silica, OMEGA)
        numeric = evolve_numeric(state, silica.mass, 0.0, 100.0, steps=10_000)
        closed = evolve_free(state, silica.mass, 0.0, 100.0)
        assert_allclose(numeric.x_var, closed.x_var, rtol=1e-8)

    @pytest.mark.parametrize("state", random_states(25, seed=5))
    def test_agreement_sweep(self, state, silica):
        # 25 states x 4 (rate, t) pairs: a 100-point random sweep
        rng = np.random.default_rng(hash(state.x_var) % 2**32)
        for _ in range(4):
            rate = 10.0 ** rng.uniform(15, 21)
            t = 10.0 ** rng.uniform(-1, 2)
            numeric = evolve_numeric(state, silica.mass, rate, t, steps=64)
            closed = evolve_free(state, silica.mass, rate, t)
            assert_allclose(numeric.x_var, closed.x_var, rtol=1e-6)
            assert_allclose(numeric.p_var, closed.p_var, rtol=1e-6)

    def test_establishes_cubic_coefficient(self, silica):
        state = initial_state(silica, OMEGA)
        t = 50.0
        numeric = evolve_numeric(state, silica.mass, LAMBDA_BB, t, steps=1024)
        ballistic = evolve_free(state, silica.mass, 0.0, t)
        coefficient = (numeric.x_var - ballistic.x_var) / t**3
        assert_allclose(
            coefficient, (2.0 / 3.0) * hbar**2 * LAMBDA_BB / silica.mass**2, rtol=1e-6
        )

    def test_rejects_bad_steps(self, silica):
        state = initial_state(silica, OMEGA)
        with pytest.raises(DomainError):
            evolve_numeric(state, silica.mass, LAMBDA_BB, 1.0, steps=0)


def test_rk4_is_fourth_order():
    # nonlinear problem with an exact solution: y' = -y^2, y(0)=1, y = 1/(1+t)
    def deriv(t, y):
        return -(y**2)

    y0 = np.array([1.0])
    exact = 1.0 / 3.0
    err_coarse = abs(rk4_integrate(deriv, y0, 0.0, 2.0, 20)[0] - exact)
    err_fine = abs(rk4_integrate(deriv, y0, 0.0, 2.0, 40)[0] - exact)
    ratio = err_coarse / err_fine
    assert 10.0 < ratio < 25.0


class TestExpansionCurve:
    def test_single_point_grid(self, silica, no_gas):
        curve = expansion_curve(
            silica, no_gas, toggles=ChannelToggles(blackbody=False), time_grid=[0.0]
        )
        state0 = initial_state(silica)
        assert curve.sigmas.shape == (1,)
        assert_allclose(curve.sigmas[0], state0.sigma, rtol=1e-12)

    def test_decohered_curve_dominates(self, silica, no_gas):
        grid = np.linspace(0.0, 100.0, 41)
        off = expansion_curve(
            silica, no_gas, toggles=ChannelToggles(blackbody=False), time_grid=grid
        )
        on = expansion_curve(silica, no_gas, time_grid=grid)
        assert np.all(on.sigmas[1:] > off.sigmas[1:])
        assert on.sigmas[0] == off.sigmas[0]

    def test_csl_only_curve_above_ballistic(self, silica, no_gas):
        grid = np.geomspace(0.1, 100.0, 20)
        csl = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
        toggles = ChannelToggles(blackbody=False)
        ballistic = expansion_curve(silica, no_gas, toggles=toggles, time_grid=grid)
        with_csl = expansion_curve(silica, no_gas, csl, toggles, time_grid=grid)
        assert np.all(with_csl.sigmas > ballistic.sigmas)

    def test_sigma_nondecreasing(self, silica, space):
        curve = expansion_curve(silica, space, time_grid=np.linspace(0.0, 100.0, 51))
        assert np.all(np.diff(curve.sigmas) >= 0.0)

    def test_grid_validation(self, silica, ground):
        with pytest.raises(DomainError):
            expansion_curve(silica, ground, time_grid=[])
        with pytest.raises(DomainError):
            expansion_curve(silica, ground, time_grid=[0.0, -1.0])
        with pytest.raises(DomainError):
            expansion_curve(silica, ground, time_grid=[1.0, 1.0])

    def test_quadratic_validity_flag(self, silica, no_gas):
        csl = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
        toggles = ChannelToggles(blackbody=False)
        short = expansion_curve(silica, no_gas, csl, toggles, time_grid=[1e-7])
        long = expansion_curve(silica, no_gas, csl, toggles, time_grid=[10.0])
        assert not any("quadratic validity" in w for w in short.warnings)
        assert any("quadratic validity" in w for w in long.warnings)

    # the 0:20:7 grid, whose non-integer times round
    GRID = np.linspace(0.0, 20.0, 7)
    # at three of these times glibc's pow(t, 2) is 1 ulp off t * t; a
    # scalar t**2 shows there in the ballistic term, a scalar (drift t)**2
    # where the drift term carries the variance
    RANDOM_GRID = np.sort(np.random.default_rng(0).uniform(0.0, 20.0, 1000))

    def test_sigmas_match_the_array_variance_bit_for_bit(self, silica, ground):
        curve = expansion_curve(silica, ground, occupancy=3.0, time_grid=self.GRID)
        want = np.sqrt(Scenario(silica, ground, occupancy=3.0).variance(self.GRID))
        for values in (curve.times, curve.sigmas):
            assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert np.array_equal(curve.times, self.GRID)
        assert np.array_equal(curve.sigmas, want)

    @pytest.mark.parametrize(
        "grid, gas_pressure, kwargs",
        [
            (GRID, 1e-5, dict(occupancy=3.0, measurement_noise=1e-9, drift_velocity_std=1e-10)),
            (RANDOM_GRID, 0.0, dict(toggles=ChannelToggles(blackbody=False))),
            (
                RANDOM_GRID,
                0.0,
                dict(
                    toggles=ChannelToggles(blackbody=False), occupancy=3.0,
                    measurement_noise=1e-9, drift_velocity_std=1.0,
                ),
            ),
        ],
        ids=["0:20:7", "ballistic", "drift"],
    )
    def test_scalar_variance_matches_each_array_element(
        self, silica, grid, gas_pressure, kwargs
    ):
        scenario = Scenario(silica, ground_environment(gas_pressure=gas_pressure), **kwargs)
        want = scenario.variance(grid)
        got = [scenario.variance(t) for t in grid.tolist()]
        assert all(type(v) is float for v in got)
        assert np.array_equal(np.array(got), want)

    @pytest.mark.parametrize("grid", [[1e154], [1.3e154], [0.0, 1e200]])
    def test_overflowing_grid_is_a_numerical_error(self, silica, ground, grid):
        with pytest.raises(NumericalError, match="variance at t = .* is inf"):
            expansion_curve(silica, ground, time_grid=grid)

    def test_csv_format(self, silica, ground):
        curve = expansion_curve(silica, ground, time_grid=[0.0, 1.0])
        lines = curve.to_csv().splitlines()
        assert lines[0] == "t_s,sigma_m,lambda_total_m2s"
        assert len(lines) == 3
        t, sigma, total = lines[1].split(",")
        assert float(t) == 0.0 and float(sigma) > 0.0 and float(total) > 0.0


def test_csv_table_spells_each_cell_by_its_type():
    # a numpy float64 is spelled as the Python float it holds
    rows = [(np.float64(0.1), 3, "total"), (1e-300, np.int64(-2), 2.0)]
    assert dynamics.csv_table("a,b,c", rows) == "a,b,c\n0.1,3,total\n1e-300,-2,2.0\n"
    assert dynamics.csv_table("a", []) == "a\n"
