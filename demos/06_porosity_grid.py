"""Grid-point porosity of periodic structures.

Classifies a regular grid of unit-cell points as occupied / unoccupied /
probe-accessible, compares against the analytic sphere-volume answer on
a single-atom fixture, and shows a sealed pocket being excluded by the
periodic flood fill.
"""

import numpy as np

from crysgram.porosity import (
    GridSpec,
    PeriodicStructure,
    accessible_void_fraction,
    structure_informatics,
)
from crysgram.tokens import InformaticsBinning, quantize_informatics

print("=== single sphere in a 10 A cubic cell (r_vdW = 2 A) ===")
sphere = PeriodicStructure(lattice=np.eye(3) * 10.0,
                           sites=[("X", np.array([0.5, 0.5, 0.5]))],
                           radius_overrides={"X": 2.0})
for rho in (2, 5, 10):
    # no probe and no flood fill: the plain void fraction
    result = accessible_void_fraction(sphere, GridSpec(rho), r_probe=0.0,
                                      flood_fill=False)
    analytic = 100.0 * (1.0 - (4.0 * np.pi / 3.0) * 8.0 / 1000.0)
    print(f"rho_grid={rho:>2}: phi_void {result.phi_void:7.4f}%  "
          f"(analytic {analytic:.4f}, grid {result.grid_dims})")

result = accessible_void_fraction(sphere, GridSpec(5), r_probe=1.2)
analytic_acc = 100.0 * (1.0 - (4.0 * np.pi / 3.0) * 3.2 ** 3 / 1000.0)
print(f"probe 1.2 A: phi_acc {result.phi_acc:.4f}% "
      f"(analytic with effective radius 3.2 A: {analytic_acc:.4f})")

print("\n=== sealed pocket: admissible but unreachable ===")
a, center = 16.0, np.array([8.0, 8.0, 8.0])
coords = (-4, -2, 0, 2, 4)
cage_sites = [("X", (center + np.array([x, y, z])) / a)
              for x in coords for y in coords for z in coords
              if max(abs(x), abs(y), abs(z)) == 4]
cage = PeriodicStructure(lattice=np.eye(3) * a, sites=cage_sites,
                         radius_overrides={"X": 2.0})
sealed = accessible_void_fraction(cage, GridSpec(3), r_probe=1.2)
raw = accessible_void_fraction(cage, GridSpec(3), r_probe=1.2,
                               flood_fill=False)
print(f"{len(cage_sites)} cage atoms: raw admissible {raw.phi_acc:.3f}% vs "
      f"flood-fill accessible {sealed.phi_acc:.3f}% "
      f"({raw.n_accessible - sealed.n_accessible} pocket points excluded)")

print("\n=== porosity values as informatics tokens ===")
binning = InformaticsBinning.from_observations([100.0, 10000.0])
info = structure_informatics(sphere, result)
por = quantize_informatics(info.porosity_fraction, "porosity_fraction",
                           binning)
acc = quantize_informatics(info.accessible_void_fraction,
                           "accessible_void_fraction", binning)
print(f"phi_void {result.phi_void:.1f}% -> {por};  "
      f"phi_acc {result.phi_acc:.1f}% -> {acc}")
