"""Linear program over discrete infinitesimally invariant measures.

The decision variable is a nonnegative measure on (x-node, control-atom)
pairs.  One equality row per interior node enforces that the measure
annihilates the generator applied to that node's indicator basis function,
with the generator assembled by the same routine the eigensolver uses; a
final row fixes total mass 1.  The resulting minimum of the running cost is
an independent route to the ergodic eigenvalue: the solver here is a generic
LP method (HiGHS via scipy.optimize.linprog) and shares no linear-algebra
path with policy iteration.

The program is solved by column generation.  At the optimum almost every
(node, atom) column carries no mass, so HiGHS only ever sees a restricted
master problem over an active set of columns.  Every node starts with a
coarse seed of atoms: the zero atom (alone already feasible, since it gives
the pure-diffusion measure), the axis-end atoms and the corner atoms, which
is 3 per node in 1d and 9 in 2d.  The seed never looks at the policy
iteration control, so the LP stays an independent route.  After each master
solve, the reduced costs c - A^T y of all N*K columns are priced in one
sparse product with the master's equality duals y, and every node whose best
inactive atom prices below -1e-9 gets that atom.  The loop stops when no
inactive column prices below -1e-9; each round adds a column, so it ends.
The certificates are then taken on the full program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .density import GridMeasure, pair_measure, stationary_density
from .eigensolver import ErgodicSolution
from .grid import Grid, one_sided_differences
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    lagrangian_value,
    running_cost,
)
from .operators import assemble_generator

PRIMAL_FEASIBILITY_TOL = 1e-9
COMPLEMENTARITY_TOL = 1e-8
PRICING_TOL = 1e-9  # a column enters the master when it prices below -PRICING_TOL


class LPSolveError(RuntimeError):
    """The measure program is infeasible/unbounded or fails its certificates."""


@dataclass
class LPProblem:
    a_eq: sparse.csr_matrix  # (num_interior + 1, num_nodes * num_atoms)
    b_eq: np.ndarray
    objective: np.ndarray  # running cost per (node, atom), node-major
    grid: Grid
    xi_atoms: np.ndarray

    @property
    def num_atoms(self) -> int:
        return self.xi_atoms.shape[0]


def uniform_xi_atoms(bound: float, count: int, dim: int) -> np.ndarray:
    """Symmetric per-axis control grid on [-bound, bound]^d; always contains 0."""
    if count < 3 or count % 2 == 0:
        raise ValueError("atom count must be odd and >= 3 so that 0 is an atom")
    axis = np.linspace(-bound, bound, count)
    axis[count // 2] = 0.0
    if dim == 1:
        return axis[:, None]
    mesh = np.meshgrid(*(axis,) * dim, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def assemble_lp(
    grid: Grid,
    xi_atoms: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
) -> LPProblem:
    """Build constraint matrix and objective for the occupation-measure LP.

    Variable ordering is node-major: index = node * num_atoms + atom.
    Columns at boundary nodes have zero invariance coefficients (the
    state-constraint closure references no boundary value), so boundary mass
    is controlled only through the objective and the mass row.
    """
    xi_atoms = np.atleast_2d(np.asarray(xi_atoms, dtype=float))
    if xi_atoms.shape[1] != grid.dim:
        raise ValueError("control atoms have wrong dimension")
    if not np.any(np.all(np.abs(xi_atoms) < 1e-14, axis=1)):
        raise ValueError("xi atoms must contain 0 (pure-diffusion feasible point)")
    K = xi_atoms.shape[0]
    nvar = grid.num_nodes * K

    rows = []
    cols = []
    vals = []
    for j, atom in enumerate(xi_atoms):
        ctrl = np.tile(atom, (grid.num_interior, 1))
        A, _ = assemble_generator(grid, ctrl)
        coo = A.tocoo()
        # A[x_loc, i] multiplies mu(x, atom_j) in constraint row i
        rows.append(coo.col)
        cols.append(grid.interior_ids[coo.row] * K + j)
        vals.append(coo.data)
    invariance = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.num_interior, nvar),
    ).tocsr()
    mass = sparse.csr_matrix(np.ones((1, nvar)))
    a_eq = sparse.vstack([invariance, mass], format="csr")
    b_eq = np.zeros(grid.num_interior + 1)
    b_eq[-1] = 1.0

    x_rep = np.repeat(grid.coords, K, axis=0)
    xi_rep = np.tile(xi_atoms, (grid.num_nodes, 1))
    objective = running_cost(model, potential, x_rep, xi_rep)
    return LPProblem(a_eq=a_eq, b_eq=b_eq, objective=objective, grid=grid, xi_atoms=xi_atoms)


def _seed_atoms(xi_atoms: np.ndarray) -> np.ndarray:
    """Atoms whose every coordinate is 0 or an end of its axis: the zero
    atom, the axis ends and the corners."""
    on_axis = (
        (np.abs(xi_atoms) < 1e-14)
        | (xi_atoms == xi_atoms.min(axis=0))
        | (xi_atoms == xi_atoms.max(axis=0))
    )
    return np.flatnonzero(on_axis.all(axis=1))


def solve_lp(problem: LPProblem) -> tuple[GridMeasure, float]:
    """Minimize the running cost over the discrete invariant-measure polytope.

    Solves by column generation (see the module docstring).  Returns the
    optimal measure and its objective value, after verifying the primal
    feasibility, complementary-slackness and dual-feasibility certificates
    on the full program.  ``measure.info["stats"]`` holds the solve's
    deterministic counters: full and final active column counts, pricing
    rounds, total HiGHS iterations, and the last master's status and message.
    """
    N, K = problem.grid.num_nodes, problem.num_atoms
    columns = problem.a_eq.tocsc()
    active = np.zeros((N, K), dtype=bool)
    active[:, _seed_atoms(problem.xi_atoms)] = True
    rounds = 0
    iterations = 0
    while True:
        ids = np.flatnonzero(active)
        res = linprog(
            problem.objective[ids],
            A_eq=columns[:, ids],
            b_eq=problem.b_eq,
            bounds=(0, None),
            method="highs",
        )
        rounds += 1
        iterations += int(res.nit)
        if res.status != 0:
            raise LPSolveError(f"LP solve failed (status {res.status}): {res.message}")
        duals = np.asarray(res.eqlin.marginals)
        reduced = problem.objective - problem.a_eq.T @ duals
        pricing = np.where(active, np.inf, reduced.reshape(N, K))
        best = pricing.argmin(axis=1)
        enter = pricing[np.arange(N), best] < -PRICING_TOL
        if not enter.any():
            break
        active[enter, best[enter]] = True

    mu = np.zeros(N * K)
    mu[ids] = res.x
    primal = np.abs(problem.a_eq @ mu - problem.b_eq).max()
    if primal > PRIMAL_FEASIBILITY_TOL:
        raise LPSolveError(f"primal feasibility residual {primal:.3e} > 1e-9")
    comp = np.abs(mu * reduced).max()
    if comp > COMPLEMENTARITY_TOL:
        raise LPSolveError(f"complementary slackness residual {comp:.3e} > 1e-8")
    # columns with mass are bounded by complementarity; their reduced costs
    # only carry the master's dual noise, so only the mass-free ones are gated
    dual = reduced[mu == 0].min()
    if dual < -PRICING_TOL:
        raise LPSolveError(f"dual feasibility {dual:.3e} < -1e-9")

    weights = sparse.csr_matrix(mu.reshape(N, K))
    measure = GridMeasure(
        weights=weights,
        xi_atoms=problem.xi_atoms,
        grid=problem.grid,
        clipped=0,
        info={
            "primal_feasibility": float(primal),
            "complementarity": float(comp),
            "dual_feasibility_min": float(reduced.min()),
            "stats": {
                "columns": N * K,
                "active_columns": int(ids.size),
                "pricing_rounds": rounds,
                "highs_iterations": iterations,
                "status": int(res.status),
                "message": res.message,
            },
        },
    )
    return measure, float(res.fun)


def _measure_vector(measure: GridMeasure, problem: LPProblem) -> np.ndarray:
    if measure.grid is not problem.grid and measure.grid != problem.grid:
        raise ValueError("measure and problem grids differ")
    if measure.xi_atoms.shape != problem.xi_atoms.shape or not np.array_equal(
        measure.xi_atoms, problem.xi_atoms
    ):
        raise ValueError("measure and problem control atoms differ")
    return measure.weights.toarray().ravel()


def feasibility_violation(measure: GridMeasure, problem: LPProblem) -> float:
    """Max absolute equality-row violation of a measure against the program."""
    mu = _measure_vector(measure, problem)
    return float(np.abs(problem.a_eq @ mu - problem.b_eq).max())


def random_feasible_measure(
    grid: Grid, xi_atoms: np.ndarray, seed: int
) -> GridMeasure:
    """Feasible-by-construction measure from a random atom-valued control.

    Draws one atom per interior node (seeded, reproducible), solves the
    stationary density of that control, and lifts it to the product grid.
    """
    xi_atoms = np.atleast_2d(np.asarray(xi_atoms, dtype=float))
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, xi_atoms.shape[0], size=grid.num_interior)
    control = np.zeros((grid.num_nodes, grid.dim))
    control[grid.interior_ids] = xi_atoms[picks]
    density = stationary_density(grid, control)
    return pair_measure(density, control, xi_atoms)


def _upwind_pairing(xi: np.ndarray, dminus: np.ndarray, dplus: np.ndarray) -> np.ndarray:
    """xi . Du with the per-axis one-sided gradient matching the operator rows."""
    chosen = np.where(xi > 0, dminus, dplus)
    return np.sum(xi * chosen, axis=1)


def excess_cost_identity(
    measure: GridMeasure,
    solution: ErgodicSolution,
    model: HamiltonianModel,
    potential: PotentialSpec,
) -> tuple[float, float]:
    """Decompose a feasible measure's excess cost over the eigenvalue.

    Returns (lhs, rhs) with lhs = mu(F) - lambda and rhs the integral of the
    pointwise convex-duality defect of the measure's control against the
    solution's control under the discrete upwind pairing.  For measures
    feasible to 1e-9 against the shared stencils the two sides agree to
    1e-6 relative, and rhs is nonnegative up to the same resolution; this is
    the discrete form of the excess-cost inequality that forces every
    invariant measure to pay at least lambda.
    """
    grid = measure.grid
    if grid != solution.grid:
        raise ValueError("measure and solution grids differ")
    u = solution.u
    lam = solution.lam
    dminus, dplus = one_sided_differences(u, grid)
    coords = grid.coords
    fvals = potential.on_grid(grid)

    ids = grid.interior_ids
    base = np.zeros(grid.num_nodes)
    base[ids] = lagrangian_value(model, coords[ids], solution.xi_u[ids]) - _upwind_pairing(
        solution.xi_u[ids], dminus[ids], dplus[ids]
    )

    coo = measure.weights.tocoo()
    x_ids = coo.row
    xi = measure.xi_atoms[coo.col]
    w = coo.data
    lvals = lagrangian_value(model, coords[x_ids], xi)
    lhs = float(np.sum((fvals[x_ids] + lvals) * w) - lam * w.sum())

    inner = grid.interior_mask[x_ids]
    gap = np.empty_like(w)
    gap[inner] = (
        lvals[inner]
        - _upwind_pairing(xi[inner], dminus[x_ids[inner]], dplus[x_ids[inner]])
        - base[x_ids[inner]]
    )
    # boundary atoms never enter an invariance row; their raw excess is exact
    gap[~inner] = fvals[x_ids[~inner]] + lvals[~inner] - lam
    rhs = float(np.sum(gap * w))
    return lhs, rhs


def barycenter_control(measure: GridMeasure) -> np.ndarray:
    """Conditional mean control per node; zero where the node carries no mass."""
    mass = measure.x_marginal()
    num = measure.weights @ measure.xi_atoms
    out = np.zeros((measure.grid.num_nodes, measure.grid.dim))
    has = mass > 0
    out[has] = num[has] / mass[has, None]
    return out


def minimizer_control_distance(
    measure: GridMeasure, solution: ErgodicSolution
) -> float:
    """Mass-weighted mean distance from the conditional control barycenter to
    the solution's control."""
    if measure.grid != solution.grid:
        raise ValueError("measure and solution grids differ")
    mass = measure.x_marginal()
    bary = barycenter_control(measure)
    has = mass > 0
    dist = np.linalg.norm(bary[has] - solution.xi_u[has], axis=1)
    return float(np.sum(mass[has] * dist) / mass[has].sum())
