"""Reference constructions shared by several test modules."""

import numpy as np
from scipy import sparse

from ergolab.density import DensityField, GridMeasure
from ergolab.grid import check_vector_field


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
