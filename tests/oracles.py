"""Reference constructions shared by several test modules."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy import sparse

from ergolab.density import DensityField, GridMeasure
from ergolab.grid import (
    Grid, _axis_slab, _differences, bilinear, check_scalar_field, check_vector_field
)
from ergolab.hamiltonian import HamiltonianModel, PotentialSpec, running_cost
from ergolab.operators import Compressed, assemble_generator
from ergolab.simulate import _BLOCK, SimParams, simulate_average

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


def as_scipy(matrix: Compressed):
    """A ``Compressed`` matrix as a scipy CSR or CSC matrix over the arrays
    of its ``compress``."""
    kind = sparse.csc_matrix if matrix.csc else sparse.csr_matrix
    indptr, indices, data = matrix.compress()
    return kind((data, indices, indptr), shape=matrix.shape)


def as_compressed(matrix) -> Compressed:
    """A scipy matrix as CSR ``Compressed`` rows, each row padded to the
    longest with holes at column 0."""
    m = sparse.csr_matrix(matrix)
    m.sort_indices()
    lengths = np.diff(m.indptr)
    filled = np.arange(lengths.max()) < lengths[:, None]
    index, data = np.zeros(filled.shape, dtype=np.intp), np.zeros(filled.shape)
    index[filled], data[filled] = m.indices, m.data
    return Compressed(m.shape, False, index.T.copy(), data.T.copy())


def as_weights(measure: GridMeasure) -> sparse.csr_matrix:
    """A measure's weights as a scipy (num_nodes, num_atoms) CSR matrix."""
    return sparse.csr_matrix(
        (measure.mass, (measure.node, measure.atom)),
        shape=(measure.grid.num_nodes, measure.xi_atoms.shape[0]),
    )


def as_measure(weights, xi_atoms: np.ndarray, grid: Grid) -> GridMeasure:
    """The measure of a scipy (num_nodes, num_atoms) matrix of weights."""
    coo = sparse.csr_matrix(weights).tocoo()
    return GridMeasure(coo.row, coo.col, coo.data, xi_atoms=xi_atoms, grid=grid)


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
        coo = as_scipy(A).tocoo()
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


def step_by_step_paths(
    grid: Grid,
    field: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
) -> dict:
    """Reference for ``simulate._run_paths``: the same paths integrated and
    priced one step at a time, with the running cost written out inline and
    every statistic added as its step comes; returns each per-path statistic
    keyed by its report field."""
    dt = params.timestep
    n_steps = params.n_steps
    burn_idx = int(round(params.burn_in / dt))
    half_idx = n_steps // 2
    quarter_idx = n_steps // 4
    wall = grid.wall

    P, dim = params.n_paths, grid.dim
    streams = np.random.SeedSequence(params.seed).spawn(P)
    gens = [np.random.Generator(np.random.PCG64(s)) for s in streams]

    X = np.tile(np.asarray(params.x0, dtype=float), (P, 1))
    if X.shape[1] != dim or not np.abs(X).max() <= wall:
        raise ValueError(f"x0 must list grid.dim coordinates within +-{wall:g}")
    cost_sum, half_sum, adm_sum, adm_q1, adm_q2 = np.zeros((5, P))
    scale = np.sqrt(2.0 * dt)

    # hoisted hot-loop closures; the generic module functions would spend the
    # whole budget on shape normalization at 1e6+ calls
    fval = potential.value_fn
    gs = model.gamma_star
    drift = model.drift
    if dim == 1:  # np.interp written into a preallocated column of xi
        xi = np.empty((P, 1))
        xi_col, x_col, field_col = xi[:, 0], X[:, 0], field[:, 0]
        axis = grid.axis_coords

    for k in range(0, n_steps, _BLOCK):
        b = min(_BLOCK, n_steps - k)
        dw = np.stack([g.standard_normal((b, dim)) for g in gens], axis=1) * scale
        for j in range(b):
            step = k + j
            if dim == 1:
                xi_col[:] = np.interp(x_col, axis, field_col)
                xin = np.abs(xi_col)
            else:
                xi = bilinear(grid, field, X)
                xin = np.sqrt(np.einsum("ij,ij->i", xi, xi))
            adm = xin**gs
            if drift is not None:  # the Lagrangian reads xi - b(X)
                eta = xi - drift(X)
                lag = np.sqrt(np.einsum("ij,ij->i", eta, eta)) ** gs
            cost = fval(X) + (adm if drift is None else lag) / gs
            if step >= burn_idx:
                cost_sum += cost
            if step >= half_idx:
                half_sum += cost
                adm_q2 += adm
            elif step >= quarter_idx:
                adm_q1 += adm
            adm_sum += adm
            X += -xi * dt + dw[j]
            # mirror what passed the wall; written so that a NaN row, which
            # stays NaN, does not hide another row from the test
            if not np.abs(X).max() <= wall:
                mirrored = np.clip(np.copysign(2 * wall, X) - X, -wall, wall)
                np.copyto(X, mirrored, where=np.abs(X) > wall)

    denom_main = (n_steps - burn_idx) * dt
    denom_half = (n_steps - half_idx) * dt
    denom_q1 = (half_idx - quarter_idx) * dt
    q1 = adm_q1 / max(denom_q1, dt)
    q2 = adm_q2 / denom_half
    ratio = np.where(q1 > 0, q2 / np.where(q1 > 0, q1, 1.0), 1.0)
    return {
        "path_averages": cost_sum * dt / denom_main,
        "half_averages": half_sum * dt / denom_half,
        "admissibility": adm_sum * dt,
        "admissibility_ratio": ratio,
        "diverged": ~np.isfinite(X).all(axis=1),
    }


def exact_pair_measure(density: DensityField, control: np.ndarray) -> GridMeasure:
    """Pair measure whose atoms are the control's own node values (no snapping)."""
    grid = density.grid
    control = check_vector_field(control, grid)
    support = np.flatnonzero(density.rho > 0)
    atoms = control[support]
    hd = grid.spacing**grid.dim
    return GridMeasure(support, np.arange(support.size), density.rho[support] * hd,
                       xi_atoms=atoms, grid=grid)


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
