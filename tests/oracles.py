"""Reference constructions shared by several test modules."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import sparse

from ergolab.density import DensityField, GridMeasure
from ergolab.grid import Grid, _axis_slab, _differences, check_scalar_field, check_vector_field
from ergolab.hamiltonian import HamiltonianModel, PotentialSpec, running_cost
from ergolab.operators import assemble_generator
from ergolab.simulate import simulate_average

PATH_ARRAYS = (
    "path_averages", "half_averages", "admissibility", "admissibility_ratio", "diverged"
)


def gradient_central(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered first differences (D- + D+) / 2 on interior nodes; zero on the
    boundary."""
    dminus, dplus = _differences(values, grid)
    return (0.5 * (dminus + dplus)).reshape(grid.num_nodes, grid.dim)


def one_sided_differences(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis backward and forward differences (D_minus, D_plus), each of
    shape (N, d) and zero on the boundary layer, with the missing one at a
    wall-adjacent node replaced by the inward one, as the state-constraint
    closure does."""
    dminus, dplus = _differences(values, grid)
    for a in range(grid.dim):
        first = _axis_slab(grid, a, slice(1, 2)) + (a,)
        last = _axis_slab(grid, a, slice(-2, -1)) + (a,)
        dminus[first] = dplus[first]
        dplus[last] = dminus[last]
    return dminus.reshape(grid.num_nodes, grid.dim), dplus.reshape(grid.num_nodes, grid.dim)


def upwind_pairing(xi: np.ndarray, dminus: np.ndarray, dplus: np.ndarray) -> np.ndarray:
    """xi . Du with the per-axis one-sided difference the upwind rows use:
    backward where xi_a > 0, forward otherwise."""
    return np.sum(xi * np.where(xi > 0, dminus, dplus), axis=1)


def per_atom_program(
    grid: Grid, xi_atoms: np.ndarray, model: HamiltonianModel, potential: PotentialSpec
) -> tuple[sparse.csc_matrix, np.ndarray]:
    """The measure program's equality matrix and objective built one atom at
    a time: the generator under each constant atom and the running cost at
    that atom, spread over the atom's columns, then the mass row."""
    K = xi_atoms.shape[0]
    nvar = grid.num_nodes * K
    rows, cols, vals = [], [], []
    objective = np.empty(nvar)
    for j, atom in enumerate(xi_atoms):
        A, _ = assemble_generator(grid, np.tile(atom, (grid.num_interior, 1)))
        coo = A.tocoo()
        rows.append(coo.col)
        cols.append(grid.interior_ids[coo.row] * K + j)
        vals.append(coo.data)
        atom_everywhere = np.tile(atom, (grid.num_nodes, 1))
        objective[j::K] = running_cost(model, potential, grid.coords, atom_everywhere)
    rows.append(np.full(nvar, grid.num_interior))
    cols.append(np.arange(nvar))
    vals.append(np.ones(nvar))
    a_eq = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.num_interior + 1, nvar),
    ).tocsc()
    return a_eq, objective


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


def read_strict_json(path) -> dict:
    """Parse a JSON file as a strict parser does, refusing NaN and +-Infinity."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)
