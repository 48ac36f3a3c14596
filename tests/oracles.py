"""Reference constructions shared by several test modules."""

import numpy as np
from scipy import sparse

from ergolab.density import DensityField, GridMeasure
from ergolab.grid import Grid, check_scalar_field, check_vector_field, gradient_central
from ergolab.hamiltonian import PotentialSpec


def exact_pair_measure(density: DensityField, control: np.ndarray) -> GridMeasure:
    """Pair measure whose atoms are the control's own node values (no snapping)."""
    grid = density.grid
    control = check_vector_field(control, grid)
    support = np.flatnonzero(density.rho > 0)
    atoms = control[support]
    hd = grid.spacing**grid.dim
    weights = sparse.csr_matrix(
        (density.rho[support] * hd, (support, np.arange(support.size))),
        shape=(grid.num_nodes, support.size),
    )
    return GridMeasure(weights=weights, xi_atoms=atoms, grid=grid, clipped=0)


def tabulated_potential(grid: Grid, values: np.ndarray) -> PotentialSpec:
    """Potential sampled on a grid, with its gradient by centered differences.

    Point evaluation snaps to the nearest node, which is exact for the
    solver-facing uses (all evaluations happen at nodes of the same grid).
    """
    values = check_scalar_field(values, grid)
    grads = gradient_central(values, grid)
    bnd = np.flatnonzero(~grid.interior_mask)
    grads[bnd] = grads[grid.nearest_interior(bnd)]

    def lookup_ids(x: np.ndarray) -> np.ndarray:
        idx = np.rint(x / grid.spacing).astype(np.int64) + grid.half_width
        idx = np.clip(idx, 0, grid.nodes_per_axis - 1)
        flat = np.zeros(x.shape[0], dtype=np.int64)
        for a, stride in enumerate(grid.axis_strides):
            flat += idx[:, a] * stride
        return flat

    return PotentialSpec(
        "tabulated",
        lambda x: values[lookup_ids(x)],
        lambda x: grads[lookup_ids(x)],
        {"grid": grid},
    )
