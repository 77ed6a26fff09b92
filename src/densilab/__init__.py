"""densilab: eigenvalues of density-weighted Neumann Laplacians.

The problem -div(rho^alpha grad u) = lambda rho u is discretized on
intervals and manifolds of revolution by P1 finite elements, one
spherical-harmonic mode at a time, and the mode spectra are merged with
their multiplicities.  The experiments module reproduces the critical
behavior of the normalized spectrum around alpha = (n-2)/n.
"""

__version__ = "0.1.0"

from .geometry import (Interval, RadialGrid, RevolutionManifold, conformal_reparametrize,
                       sphere_eigenvalue, sphere_multiplicity, unit_sphere_area, volume)
from .density import (CauchyPower, Constant, DensityField, GaussianRadial,
                      PowerDensity, Scaled, Tabulated, normalize, power, scale,
                      total_mass)
from .assembly import ModeProblem, TridiagonalPencil, assemble
from .eigensolver import (EigenPairs, EigenSolveError, IndefiniteMassError,
                          solve_generalized)
from .spectrum import (HolderChainReport, SpectrumResult, TestFunction,
                       build_collar_function, build_plateau_function,
                       full_spectrum, holder_chain_check, minmax_bound,
                       rayleigh_quotient)
from .measures import MeasureTriple, brute_force_verify, select_small_sets
from . import experiments

__all__ = [
    "Interval", "RadialGrid", "RevolutionManifold",
    "conformal_reparametrize", "sphere_eigenvalue",
    "sphere_multiplicity", "unit_sphere_area", "volume",
    "CauchyPower", "Constant", "DensityField", "GaussianRadial",
    "PowerDensity", "Scaled", "Tabulated", "normalize", "power", "scale",
    "total_mass",
    "ModeProblem", "TridiagonalPencil", "assemble",
    "EigenPairs", "EigenSolveError", "IndefiniteMassError",
    "solve_generalized",
    "HolderChainReport", "SpectrumResult", "TestFunction",
    "build_collar_function", "build_plateau_function", "full_spectrum",
    "holder_chain_check", "minmax_bound", "rayleigh_quotient",
    "MeasureTriple", "brute_force_verify", "select_small_sets",
    "experiments",
]
