"""Wave-packet expansion of a released nanosphere, with and without decoherence.

A 120 nm fused-silica sphere is cooled to its motional ground state in a
100 kHz optical trap and released. Its position spread sigma(t) then grows
ballistically; any decoherence channel adds momentum diffusion and makes the
expansion faster, with a t^3 signature in the position variance. This script
builds three curves over 100 s of free flight:

  1. no decoherence at all (the pure quantum baseline),
  2. thermal photons only, for a 300 K lab and a 400 K sphere
     (gas collisions excluded: the lab is taken at pressure 0),
  3. the same plus a collapse model at a = 100 nm, lambda = 1e-13 Hz.

The collapse curve separates visibly from the thermal one at late times,
which is the effect a measurement campaign would have to resolve.
"""
import numpy as np

from waxsim import (
    ChannelToggles,
    CSLParams,
    expansion_curve,
    fused_silica_particle,
    ground_environment,
    initial_state,
)

particle = fused_silica_particle()  # 120 nm, 2200 kg/m^3, 400 K inside
environment = ground_environment(gas_pressure=0.0)  # 300 K, no residual gas
collapse = CSLParams(collapse_rate=1e-13, correlation_length=100e-9)
times = np.geomspace(0.1, 100.0, 16)

bare = expansion_curve(
    particle, environment, toggles=ChannelToggles(blackbody=False), time_grid=times
)
thermal = expansion_curve(particle, environment, time_grid=times)
with_collapse = expansion_curve(particle, environment, collapse, time_grid=times)

print(f"sphere mass: {particle.mass:.4e} kg")
print(f"ground-state width sigma(0): {initial_state(particle).sigma:.4e} m")
print()
print(f"{'t [s]':>8}  {'bare [m]':>12}  {'thermal [m]':>12}  {'+collapse [m]':>13}")
for i, t in enumerate(times):
    print(
        f"{t:8.2f}  {bare.sigmas[i]:12.5e}  {thermal.sigmas[i]:12.5e}"
        f"  {with_collapse.sigmas[i]:13.5e}"
    )

print()
print("late-time excess over the thermal curve:",
      f"{with_collapse.sigmas[-1] / thermal.sigmas[-1] - 1.0:.2%}")
for message in with_collapse.warnings:
    print("note:", message)

with open("expansion_curves.csv", "w", encoding="utf-8", newline="") as fh:
    fh.write(with_collapse.to_csv())
print("wrote expansion_curves.csv (thermal + collapse configuration)")
