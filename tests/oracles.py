"""Reference constructions shared by several test modules."""

from dataclasses import replace

import numpy as np
from scipy import sparse

from ergolab.density import DensityField, GridMeasure
from ergolab.grid import Grid, _differences, check_scalar_field, check_vector_field
from ergolab.hamiltonian import PotentialSpec
from ergolab.simulate import simulate_average

PATH_ARRAYS = (
    "path_averages", "half_averages", "admissibility", "admissibility_ratio", "diverged"
)


def gradient_central(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered first differences (D- + D+) / 2 on interior nodes; zero on the
    boundary."""
    dminus, dplus = _differences(values, grid)
    return (0.5 * (dminus + dplus)).reshape(grid.num_nodes, grid.dim)


def path_count_mismatches(grid, control, model, potential, params, counts=(1, 2, 4, 7)):
    """(n, statistic) pairs where the first n paths of a run among
    ``params.n_paths`` paths differ in any bit from a run among n paths."""
    full = simulate_average(grid, control, model, potential, params)
    mismatches = []
    for n in counts:
        part = simulate_average(grid, control, model, potential, replace(params, n_paths=n))
        for key in PATH_ARRAYS:
            a, b = getattr(part, key), getattr(full, key)[:n]
            if not np.array_equal(a, b, equal_nan=key != "diverged"):
                mismatches.append((n, key))
    return mismatches


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
    return GridMeasure(weights=weights, xi_atoms=atoms, grid=grid)


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
    )
