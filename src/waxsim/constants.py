"""Physical constants used throughout the package.

All values are SI. ``hbar``, ``kB`` and ``c`` follow the 2019 SI redefinition
(exact where the SI makes them exact); ``g`` is the conventional surface
gravity used for free-fall arithmetic; ``amu`` is the unified atomic mass
unit, which doubles as the reference mass ``m0`` for quoting collapse rates
per nucleon.
"""
from __future__ import annotations

from typing import Final

hbar: Final[float] = 1.054571817e-34  # J s
kB: Final[float] = 1.380649e-23  # J/K
c: Final[float] = 299792458.0  # m/s
g: Final[float] = 9.81  # m/s^2
amu: Final[float] = 1.66053906660e-27  # kg

#: Historical reference collapse rate [Hz]; detectable rates are also
#: reported in units of this value.
LAMBDA_GRW: Final[float] = 1e-16

__all__ = ["hbar", "kB", "c", "g", "amu", "LAMBDA_GRW"]
