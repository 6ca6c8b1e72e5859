"""Acceptance suite: one test per release criterion, at the pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (prints are also shown for any failing criterion without ``-s``).
"""
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import waxsim.cli as cli
from waxsim import (
    ChannelToggles,
    CSLParams,
    Environment,
    Scenario,
    drop_distance,
    evolve_free,
    expansion_curve,
    fused_silica_particle,
    ground_environment,
    initial_state,
    lambda_blackbody,
    min_detectable_lambda,
    bisect_lambda_mc_sweep,
    space_environment,
    sphere_geometry_factor,
)
from waxsim.constants import hbar
from oracles import csl_sphere_factor_bruteforce, detection_power_mc, evolve_numeric

GEOMETRY = CSLParams(collapse_rate=0.0, correlation_length=100e-9)


def report(number, description, started):
    print(f"ACCEPTANCE {number:02d} PASS ({time.perf_counter() - started:.2f}s): {description}")


def test_criterion_01_ballistic_baseline(silica):
    started = time.perf_counter()
    state = initial_state(silica)
    for t in np.linspace(0.0, 100.0, 101):
        evolved = evolve_free(state, silica.mass, 0.0, float(t))
        expected = state.x_var + state.p_var * t**2 / silica.mass**2
        assert_allclose(evolved.x_var, expected, rtol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "ballistic expansion matches the analytic baseline to 1e-12", started)


def test_criterion_02_cubic_law(silica):
    started = time.perf_counter()
    rate = 2e19
    state = initial_state(silica)
    times = np.geomspace(1.0, 100.0, 16)
    excess = np.array(
        [
            evolve_free(state, silica.mass, rate, float(t)).x_var
            - evolve_free(state, silica.mass, 0.0, float(t)).x_var
            for t in times
        ]
    )
    slope = np.polyfit(np.log(times), np.log(excess), 1)[0]
    assert abs(slope - 3.0) <= 0.03

    t_ref = 50.0
    numeric = evolve_numeric(state, silica.mass, rate, t_ref, steps=2048)
    ballistic = evolve_free(state, silica.mass, 0.0, t_ref)
    coefficient = (numeric.x_var - ballistic.x_var) / t_ref**3
    assert_allclose(
        coefficient, (2.0 / 3.0) * hbar**2 * rate / silica.mass**2, rtol=1e-6
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(2, "decoherence excess follows the t^3 law with the 2/3 coefficient", started)


def test_criterion_03_curve_ordering(silica, no_gas):
    started = time.perf_counter()
    grid = np.geomspace(1.01, 100.0, 40)
    csl = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
    bare = expansion_curve(
        silica, no_gas, toggles=ChannelToggles(blackbody=False), time_grid=grid
    )
    blackbody = expansion_curve(silica, no_gas, time_grid=grid)
    both = expansion_curve(silica, no_gas, csl, time_grid=grid)
    assert np.all(bare.sigmas < blackbody.sigmas)
    assert np.all(blackbody.sigmas < both.sigmas)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, "no-decoherence < blackbody < blackbody+collapse, pointwise for t > 1 s", started)


def test_criterion_04_blackbody_scaling(silica):
    started = time.perf_counter()

    def env_at(T):
        return Environment(
            temperature=T,
            gas_pressure=0.0,
            gas_particle_mass=4.81e-26,
            gas_temperature=T,
        )

    lo = lambda_blackbody(silica, env_at(170.0))
    hi = lambda_blackbody(silica, env_at(340.0))
    assert_allclose(hi.scattering / lo.scattering, 2.0**9, rtol=1e-6)
    assert_allclose(hi.absorption / lo.absorption, 2.0**6, rtol=1e-6)

    cool = lambda_blackbody(
        fused_silica_particle(internal_temperature=205.0), env_at(300.0)
    )
    warm = lambda_blackbody(
        fused_silica_particle(internal_temperature=410.0), env_at(300.0)
    )
    assert_allclose(warm.emission / cool.emission, 2.0**6, rtol=1e-6)
    report(4, "thermal-photon rates scale as T^9 (scattering) and T^6 (abs/emission)", started)


def test_criterion_05_collapse_geometry_oracle():
    started = time.perf_counter()
    for ratio in (0.1, 1.0, 1.2, 5.0):
        assert_allclose(
            sphere_geometry_factor(ratio),
            csl_sphere_factor_bruteforce(ratio),
            rtol=1e-3,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(5, "sphere factor matches the smeared-density quadrature oracle to 1e-3", started)


def test_criterion_06_feasibility_numbers():
    started = time.perf_counter()
    assert 480.0 <= drop_distance(10.0) <= 500.0
    assert 4.8e4 <= drop_distance(100.0) <= 5.0e4
    report(6, "10 s and 100 s free falls need ~0.5 km and ~50 km of drop", started)


def test_criterion_07_detection_scaling(silica, space):
    started = time.perf_counter()
    grid = tuple(np.geomspace(1.0, 100.0, 10))
    lam = {
        n: min_detectable_lambda(n, grid, silica, space, GEOMETRY).lambda_min
        for n in (50, 100, 200, 400, 800, 1600, 3200)
    }
    assert abs(lam[400] / lam[100] - 0.5) <= 0.02
    assert abs(lam[1600] / lam[400] - 0.5) <= 0.02
    ordered = [lam[n] for n in sorted(lam)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))

    by_tmax = []
    for t_max in (3.0, 10.0, 30.0, 100.0):
        sub = tuple(np.geomspace(1.0, t_max, 10))
        by_tmax.append(
            min_detectable_lambda(400, sub, silica, space, GEOMETRY).lambda_min
        )
    assert all(a >= b for a, b in zip(by_tmax, by_tmax[1:]))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(7, "lambda_min halves when N quadruples and never grows with N or t_max", started)


def test_criterion_08_monte_carlo_power_oracle(silica, space):
    started = time.perf_counter()
    seeds = range(1, 101)
    scenario = Scenario(silica, space, GEOMETRY)
    n_sweep = (60, 120, 240, 480, 960)
    for t_max in (30.0, 100.0):
        grid = tuple(np.geomspace(1.0, t_max, 6))
        oracle = bisect_lambda_mc_sweep(n_sweep, grid, scenario, seeds=seeds)
        for n, mc in zip(n_sweep, oracle):
            closed = min_detectable_lambda(
                n, grid, silica, space, GEOMETRY
            ).lambda_min
            assert 0.5 <= mc / closed <= 2.0, (n, t_max, closed, mc)

    grid = tuple(np.geomspace(1.0, 100.0, 6))
    closed = min_detectable_lambda(240, grid, silica, space, GEOMETRY).lambda_min
    power_seeds = range(1, 301)
    high = detection_power_mc(10.0 * closed, 240, grid, scenario, seeds=power_seeds)
    low = detection_power_mc(closed / 10.0, 240, grid, scenario, seeds=power_seeds)
    assert high >= 0.99
    assert low <= 0.10
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(8, "closed form within 2x of the Monte-Carlo oracle; power extremes honored", started)


def test_criterion_09_space_versus_ground(silica):
    started = time.perf_counter()
    n = 1000
    lam_space = min_detectable_lambda(
        n,
        tuple(np.geomspace(0.5, 100.0, 12)),
        silica,
        space_environment(temperature=35.0, gas_pressure=1e-12),
        GEOMETRY,
    ).lambda_min
    lam_ground = min_detectable_lambda(
        n,
        tuple(np.geomspace(0.5, 4.5, 12)),
        silica,
        ground_environment(gas_pressure=1e-5),
        GEOMETRY,
    ).lambda_min
    assert lam_space <= lam_ground / 1e4
    report(
        9,
        f"space bound beats the 100 m drop-tower bound by {lam_ground / lam_space:.1e}",
        started,
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    started = time.perf_counter()
    campaign_args = [
        "campaign",
        "--environment.preset", "space",
        "--campaign.time_grid_s", "0,1,2,5,10,20,50,100",
        "--campaign.runs_per_time", "200",
        "--campaign.seed", "2024",
    ]
    bound_args = [
        "bound",
        "--environment.preset", "space",
        "--campaign.time_grid_s", "1,3,10,30,100",
        "--bound.n_sweep", "100,200,400,800",
    ]
    outputs = {}
    for label, extra in (
        ("serial", []),
        ("repeat", []),
        ("parallel", ["--workers", "4"]),
    ):
        campaign_file = tmp_path / f"campaign-{label}.csv"
        bound_file = tmp_path / f"bound-{label}.csv"
        assert cli.main(campaign_args + extra + ["-o", str(campaign_file)]) == 0
        assert cli.main(bound_args + ["-o", str(bound_file)]) == 0
        outputs[label] = (campaign_file.read_bytes(), bound_file.read_bytes())
    assert outputs["serial"] == outputs["repeat"]
    assert outputs["serial"] == outputs["parallel"]
    report(10, "campaign and bound CSVs are byte-identical across serial/parallel runs", started)
