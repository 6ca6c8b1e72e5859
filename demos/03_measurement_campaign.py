"""A seeded Monte-Carlo campaign: release, expand, measure, repeat.

Each cycle prepares the ground state, releases the sphere for a time t, and
records one position. Repeating N times per grid time yields a width
estimate sigma_hat(t) with a standard error from normal sampling theory.
This script runs a 300-run-per-time campaign in the space environment and
compares the estimates against the model curve they were drawn from; the
pull column (deviation over standard error) should scatter around +-1.

The campaign is fully reproducible: the seed fixes every draw, and results
are independent of how grid times are scheduled across threads.
"""
import numpy as np

from waxsim import (
    CampaignConfig,
    CSLParams,
    Scenario,
    campaign_curve,
    fused_silica_particle,
    run_campaign,
    space_environment,
)

# what is measured: the sphere in space, with collapse and a 100 nm readout
scenario = Scenario(
    fused_silica_particle(),
    space_environment(),
    csl=CSLParams(collapse_rate=1e-13, correlation_length=100e-9),
    measurement_noise=1e-7,
)
# how it is measured: the grid, the runs per time and the seed
plan = CampaignConfig(
    time_grid=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
    runs_per_time=300,
    rng_seed=424242,
)

truth = np.sqrt(scenario.variance(np.array(plan.time_grid)))
estimates = campaign_curve(plan, scenario)

print(f"{'t [s]':>7}  {'sigma_hat [m]':>13}  {'err [m]':>10}  {'truth [m]':>11}  {'pull':>6}")
for est, sigma in zip(estimates, truth):
    pull = (est.sigma_hat - sigma) / est.standard_error
    print(
        f"{est.t:7.1f}  {est.sigma_hat:13.5e}  {est.standard_error:10.3e}"
        f"  {sigma:11.5e}  {pull:6.2f}"
    )

# determinism check: the same seed reproduces the dataset bit for bit
again = run_campaign(plan, scenario)
first = run_campaign(plan, scenario)
print()
print("same seed, same data:", np.array_equal(first.samples, again.samples))
