"""Partitioned exponential integrators for stiff semilinear spectral ODEs:
phi-function evaluation, one-step and multistep exponential schemes, linear
stability analysis on the two-rate oscillatory test equation, repartitioning
and hyperviscosity stabilization, and Fourier pseudo-spectral benchmarks.
"""

from .phicore import PhiCache, PhiTable, phi_scalar, phi_table
from .integrators import (FAMILIES, METHODS, DiagonalProblem, MethodSpec,
                          make_method, esdc_tableau, epbm_tableau,
                          imrk_tableau, integrate, integrate_many,
                          IntegrationResult)
from .spectral import (PeriodicGrid, dealiased_product, build_zds, build_kdv,
                       RepartitionSpec, HyperviscositySpec,
                       repartition_shift, parse_angle, parse_modification,
                       spectral_radius_fraction, write_spectrum,
                       read_spectrum)
from .stability import (DahlquistPoint, RepartitionAngle, stability_scalar,
                        epbm_transfer_matrix, power_bounded_classification,
                        region_grid, grid_to_csv, column_split_exists,
                        asymptotic_decay, StabilityGrid)
from .cli import (RunRecord, relative_error, ensure_reference,
                  run_convergence, run_longtime, run_stability_maps,
                  run_solve, main)

__version__ = "0.1.0"

__all__ = [
    "PhiCache", "PhiTable", "phi_scalar", "phi_table",
    "FAMILIES", "METHODS", "DiagonalProblem", "MethodSpec", "make_method",
    "esdc_tableau", "epbm_tableau", "imrk_tableau", "integrate",
    "integrate_many", "IntegrationResult", "PeriodicGrid", "dealiased_product", "build_zds",
    "build_kdv", "RepartitionSpec", "HyperviscositySpec", "repartition_shift",
    "parse_angle", "parse_modification", "spectral_radius_fraction",
    "write_spectrum", "read_spectrum",
    "DahlquistPoint", "RepartitionAngle", "stability_scalar",
    "epbm_transfer_matrix", "power_bounded_classification", "region_grid",
    "grid_to_csv", "column_split_exists", "asymptotic_decay", "StabilityGrid",
    "RunRecord", "relative_error", "ensure_reference", "run_convergence",
    "run_longtime", "run_stability_maps", "run_solve", "main",
    "__version__",
]
