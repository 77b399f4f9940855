"""Periodic 2-D flow solvers with a tunable pressure relaxation.

The package centers on a velocity-pressure system in which the usual
divergence constraint is replaced by a pressure evolution equation with
a large bulk modulus, plus the velocity correction force that makes the
kinetic energy bookkeeping exact for that system.  An incompressible
projection solver and a weakly compressible solver in the same variables
bracket it from both sides.

Everything lives on a uniform periodic grid with cell-centered samples;
see :mod:`qins.fields` for the containers and :mod:`qins.models` for the
time steppers.
"""

from .diagnostics import (
    EnergyBudgetRow,
    GalileanReport,
    ParticleSet,
    TransportReport,
    divergence_norm,
    energy_audit,
    galilean_invariance_report,
    transport_check,
)
from .fields import Grid, ScalarField, VectorField, inner_product, integrate, l2_norm, make_grid
from .inertia import (
    KinematicSample,
    inertial_force_standard,
    inertial_force_star,
    jacobian_from_density,
    kappa_r_star_rate_identity_residual,
    kinetic_density_spatial,
    kinetic_density_star,
    material_derivative_v,
)
from .models import (
    ForcingSpec,
    ModelConfig,
    SimulationBlowupError,
    State,
    consistent_pressure,
    galilean_alt_force,
    march,
    project_divergence_free,
    simulate,
    stable_dt,
    temam_extra_force,
)
from .operators import convection, divergence, grad_div, gradient, laplacian

__version__ = "0.1.0"

__all__ = [
    "EnergyBudgetRow",
    "ForcingSpec",
    "GalileanReport",
    "Grid",
    "KinematicSample",
    "ModelConfig",
    "ParticleSet",
    "ScalarField",
    "SimulationBlowupError",
    "State",
    "TransportReport",
    "VectorField",
    "__version__",
    "consistent_pressure",
    "convection",
    "divergence",
    "divergence_norm",
    "energy_audit",
    "galilean_alt_force",
    "galilean_invariance_report",
    "grad_div",
    "gradient",
    "inertial_force_standard",
    "inertial_force_star",
    "inner_product",
    "integrate",
    "jacobian_from_density",
    "kappa_r_star_rate_identity_residual",
    "kinetic_density_spatial",
    "kinetic_density_star",
    "l2_norm",
    "laplacian",
    "make_grid",
    "march",
    "material_derivative_v",
    "project_divergence_free",
    "simulate",
    "stable_dt",
    "temam_extra_force",
]
