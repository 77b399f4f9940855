"""Inertial forces and kinetic energy densities, checked two ways.

The quasi-incompressible extra force has a purely kinematic reading:
measuring kinetic energy against the reference density rho* instead of
the actual density rho turns the inertial force -rho dv/dt|material into

    f* = -rho* (dv/dt|material + (1/2)(div v) v),

and the difference between the two prescriptions at rho = rho* is
exactly -(rho*/2)(div v) v.  The model is dimensionless, so rho* = 1
throughout: f* = -(dv/dt|material + (1/2)(div v) v), and the difference
is the extra force the solver carries.  This module implements both
prescriptions, the energy densities they pair with, and residual checks
that the algebra survives discretization.  Everything here is Eulerian:
the density rate needed by the referential-rate identity is supplied by
the caller (usually from the mass balance rho_rate = -rho div v), never
from a deformation map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import ScalarField, VectorField, l2_norm
from .models import temam_extra_force
from .operators import convection, divergence


@dataclass(frozen=True)
class KinematicSample:
    """One flow snapshot with everything the inertia checks need.

    ``dv_dt_partial`` is the Eulerian time derivative of the velocity;
    the material derivative is assembled from it on demand.  ``rho``
    must be positive everywhere.
    """

    v: VectorField
    dv_dt_partial: VectorField
    rho: ScalarField

    def __post_init__(self) -> None:
        if self.v.grid != self.dv_dt_partial.grid or self.v.grid != self.rho.grid:
            raise ValueError("kinematic sample fields live on different grids")
        if not (self.rho.values > 0.0).all():
            raise ValueError(
                f"density must be positive, worst sample {float(self.rho.values.min())}"
            )


def material_derivative_v(sample: KinematicSample) -> VectorField:
    """Material acceleration dv/dt + (v.grad)v."""
    return sample.dv_dt_partial + convection(sample.v)


def kinetic_density_spatial(sample: KinematicSample) -> ScalarField:
    """Kinetic energy per unit current volume, rho |v|^2 / 2."""
    return 0.5 * (sample.rho * sample.v.magnitude_squared())


def kinetic_density_star(sample: KinematicSample) -> ScalarField:
    """Kinetic energy density measured against the reference density, |v|^2 / 2."""
    return 0.5 * sample.v.magnitude_squared()


def jacobian_from_density(rho: ScalarField) -> ScalarField:
    """Volume-change factor of the motion recovered from mass balance.

    J = 1/rho: compression (rho > 1) means J < 1.  Multiplying the
    spatial kinetic density by J gives the referential density |v|^2 / 2
    pointwise; callers compute that product on the fly rather than
    storing a separate field.
    """
    if not (rho.values > 0.0).all():
        raise ValueError("density must be positive to invert for the Jacobian")
    return ScalarField(rho.grid, 1.0 / rho.values)


def inertial_force_standard(sample: KinematicSample) -> VectorField:
    """Standard inertial force, -rho dv/dt|material."""
    return (-1.0 * sample.rho) * material_derivative_v(sample)


def inertial_force_star(sample: KinematicSample) -> VectorField:
    """Inertial force conjugate to the reference-density kinetic energy.

    -(dv/dt|material + (1/2)(div v) v); the extra dilatational term is
    minus the extra force the quasi-incompressible model carries.
    """
    return -(material_derivative_v(sample) - temam_extra_force(sample.v))


def kappa_r_star_rate_identity_residual(
    sample: KinematicSample, rho_rate: ScalarField
) -> float:
    """Discrepancy between two routes to the referential kinetic energy rate.

    Route one differentiates J |v|^2 / 2 with J = 1/rho by the chain rule
    using the supplied density rate:

        J dv/dt|material . v - (rho_rate/2) J^2 |v|^2.

    Route two substitutes the mass balance rho_rate = -rho div v first,
    which folds the density rate into the dilatational correction:

        J (dv/dt|material + (1/2)(div v) v) . v.

    The two agree identically in the continuum; discretely the only gap
    is between the supplied rho_rate and -rho times the discrete
    divergence, so a rate built from analytic derivatives leaves an
    O(spacing^2) residual and a rate built from the discrete divergence
    leaves round-off.
    """
    if rho_rate.grid != sample.v.grid:
        raise ValueError("rho_rate grid does not match the sample")
    mdv = material_derivative_v(sample)
    speed_sq = sample.v.magnitude_squared()
    ratio = jacobian_from_density(sample.rho)

    chain_rule = ratio * mdv.dot(sample.v) - (0.5 * rho_rate) * (ratio * ratio) * speed_sq
    with_mass_balance = ratio * (mdv + (0.5 * divergence(sample.v)) * sample.v).dot(sample.v)
    return l2_norm(chain_rule - with_mass_balance)
