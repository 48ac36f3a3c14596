"""Stationary density of a controlled diffusion and measure-weighted costs.

The density is the probability null vector of the transposed generator,
taken as the transposed solve of the bordered system policy evaluation
solves (``operators.BorderedSolver``).  Sharing that system makes the
discrete Fokker-Planck operator the exact adjoint of the linearised HJB
operator, so the average cost under the optimally controlled density
reproduces the eigenvalue to solver precision.  Given the solver of a
converged policy iteration, the transposed solve refines with the factor of
its last evaluation instead of factoring its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, check_vector_field
from .hamiltonian import HamiltonianModel, PotentialSpec, running_cost
from .operators import BorderedSolver, assemble_generator

ADJOINT_TOL = 1e-10


class ReducibleChainError(RuntimeError):
    """The adjoint null space is not one-dimensional positive."""


@dataclass
class DensityField:
    rho: np.ndarray  # (N,), zero on the boundary layer
    grid: Grid


def stationary_density(
    grid: Grid, control: np.ndarray, solver: BorderedSolver | None = None
) -> DensityField:
    """Probability null vector of the transposed generator under a control.

    Solves the transpose of the bordered system [[A, 1], [e_origin^T, 0]] of
    the state-constraint generator A with right-hand side (0, 1/h^d):
    A^T rho + m e_origin = 0 and sum(rho) h^d = 1.  The conservative closure
    gives A zero row sums, so summing the first block forces the multiplier
    m to 0 and rho is the normalized null vector.  ``solver`` (a fresh one by
    default) may hold a factor from policy evaluation; it returns a solve
    within ``ADJOINT_TOL`` or raises.  rho's own adjoint residual and its
    positivity are checked after it, and a held factor's result that fails
    them is solved again with a fresh factor before anything is raised.

    Raises:
        ReducibleChainError: the solver refused the system, or rho failed a check.
    """
    control = check_vector_field(control, grid)
    A, _ = assemble_generator(grid, control)  # state-constraint closure only
    solver = BorderedSolver() if solver is None else solver
    try:
        rho_int = _null_vector(grid, A, solver)
    except ReducibleChainError:
        if not solver.reused:
            raise
        solver.drop()
        rho_int = _null_vector(grid, A, solver)
    rho = np.zeros(grid.num_nodes)
    rho[grid.interior_ids] = rho_int
    return DensityField(rho=rho, grid=grid)


def _null_vector(grid: Grid, A, solver: BorderedSolver) -> np.ndarray:
    """The checked, normalized interior density from one transposed solve."""
    nint = grid.num_interior
    hd = grid.spacing**grid.dim
    e_mass = np.zeros(nint + 1)
    e_mass[-1] = 1.0
    try:
        rho_int = solver.solve(grid, A, e_mass / hd, ADJOINT_TOL, trans="T")[:nint]
    except RuntimeError as exc:
        raise ReducibleChainError(f"adjoint solve failed: {exc}") from exc
    resid = np.abs(A.rmatvec(rho_int)).max() / max(np.abs(rho_int).max(), 1.0)
    if resid > ADJOINT_TOL:
        raise ReducibleChainError(
            f"adjoint residual {resid:.3e} exceeds {ADJOINT_TOL:.1e}; "
            "null space is not a clean one-dimensional eigenvector"
        )
    if rho_int.min() <= 0:
        floor = -1e-12 * rho_int.max()
        if rho_int.min() < floor:
            raise ReducibleChainError(
                f"adjoint null vector is not positive (min {rho_int.min():.3e}); "
                "chain appears reducible or the domain is too large for the "
                "density's dynamic range"
            )
        rho_int = np.maximum(rho_int, 0.0)
    return rho_int / (rho_int.sum() * hd)


@dataclass
class GridMeasure:
    """Nonnegative weights on (x-node, control-atom) pairs with total mass 1,
    held as the triples (``node``, ``atom``, ``mass``) of its support, sorted
    by node and then atom, each pair once."""

    node: np.ndarray  # (support,) node ids
    atom: np.ndarray  # (support,) rows of xi_atoms
    mass: np.ndarray  # (support,)
    xi_atoms: np.ndarray  # (num_atoms, d)
    grid: Grid
    info: Optional[dict] = None

    def x_marginal(self) -> np.ndarray:
        """Mass per node, each node's triples summed in their order as
        scipy's row sums do (first entry, then the rest)."""
        out = np.zeros(self.grid.num_nodes)
        first = np.flatnonzero(np.diff(self.node, prepend=-1))
        out[self.node[first]] = np.add.reduceat(self.mass, first)
        return out


def pair_measure(
    density: DensityField, control: np.ndarray, xi_atoms: np.ndarray
) -> GridMeasure:
    """Lift a density to the product grid: mass rho(x) h^d at the atom nearest
    to control(x) (the lowest-indexed one on a tie), which is the nearest end
    atom for a control outside the atoms' hull.
    """
    grid = density.grid
    control = check_vector_field(control, grid)
    xi_atoms = np.atleast_2d(np.asarray(xi_atoms, dtype=float))
    if xi_atoms.shape[1] != grid.dim:
        raise ValueError("control atoms have wrong dimension")
    support = np.flatnonzero(density.rho > 0)
    dist2 = np.zeros((support.size, xi_atoms.shape[0]))
    for axis in range(grid.dim):
        dist2 += np.square(control[support, axis, None] - xi_atoms[:, axis])
    nearest = dist2.argmin(axis=1)
    mass = density.rho[support] * grid.spacing**grid.dim
    return GridMeasure(support, nearest, mass, xi_atoms=xi_atoms, grid=grid)


def average_cost(
    density: DensityField,
    control: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
) -> float:
    """Integral of the running cost F(x, control(x)) against the density."""
    grid = density.grid
    control = check_vector_field(control, grid)
    ids = np.flatnonzero(density.rho > 0)
    costs = running_cost(model, potential, grid.coords[ids], control[ids])
    return float((costs * density.rho[ids]).sum() * grid.spacing**grid.dim)
