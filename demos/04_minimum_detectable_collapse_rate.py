"""How small a collapse rate the experiment can detect, versus statistics.

The collapse channel adds a variance excess linear in the rate lambda, so
the smallest detectable rate follows in closed form from the campaign's
statistical error: more runs per grid time means a smaller detectable
lambda, scaling as 1/sqrt(N). This script sweeps N in the space
environment, reports lambda_min in Hz and in units of the historical
reference rate 1e-16 Hz, and cross-checks one sweep point against the
Monte-Carlo power oracle (the rate at which half of the simulated
campaigns detect the collapse channel).
"""
import numpy as np

from waxsim import (
    CSLParams,
    Scenario,
    bisect_lambda_mc_sweep,
    fused_silica_particle,
    min_detectable_lambda,
    space_environment,
)

particle = fused_silica_particle()
environment = space_environment()
geometry = CSLParams(collapse_rate=0.0, correlation_length=100e-9)
grid = tuple(np.geomspace(1.0, 100.0, 10))

print(f"{'N/time':>8}  {'lambda_min [Hz]':>16}  {'in 1e-16 Hz units':>18}  {'best t [s]':>10}")
results = []
for n in (100, 400, 1600, 6400, 25600):
    res = min_detectable_lambda(n, grid, particle, environment, geometry)
    results.append(res)
    print(
        f"{n:8d}  {res.lambda_min:16.4e}  {res.lambda_min_grw:18.1f}"
        f"  {res.best_time:10.1f}"
    )

print()
print("scaling check: each 4x in N should halve lambda_min:")
for prev, curr in zip(results, results[1:]):
    print(f"  N {prev.n_per_time:>6} -> {curr.n_per_time:>6}: "
          f"ratio {curr.lambda_min / prev.lambda_min:.3f}")

n_check = 400
closed = results[1].lambda_min
scenario = Scenario(particle, environment, geometry)
[mc] = bisect_lambda_mc_sweep([n_check], grid, scenario, seeds=range(1, 101))
print()
print(f"Monte-Carlo oracle at N = {n_check}: {mc:.3e} Hz "
      f"(closed form {closed:.3e} Hz, ratio {mc / closed:.2f})")
