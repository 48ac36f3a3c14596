"""Linear program over discrete infinitesimally invariant measures.

The decision variable is a nonnegative measure on (x-node, control-atom)
pairs.  One equality row per interior node enforces that the measure
annihilates the generator applied to that node's indicator basis function,
with the generator assembled by the same routine the eigensolver uses; a
final row fixes total mass 1.  The resulting minimum of the running cost is
an independent route to the ergodic eigenvalue: the solver here is a generic
LP method (HiGHS, driven through the ``_Highs`` object that scipy ships)
and shares no linear-algebra path with policy iteration.

The program is solved by column generation.  At the optimum almost every
(node, atom) column carries no mass, so HiGHS only ever sees a restricted
master problem over an active set of columns.  The seed is one column per
node, the zero atom (the first one, if the lattice repeats it), which alone
is feasible, since it gives the pure-diffusion measure.  The seed never
looks at the policy iteration control, so the LP stays an independent
route.  After each master solve, the reduced costs c - A^T y of all N*K
columns are priced in one sparse product with the master's equality duals
y, and every node whose best inactive atom prices below -1e-9 gets that
atom.  The loop stops when no inactive column prices below -1e-9; each
round adds a column, so it ends.  The certificates are then taken on the
full program.

One HiGHS instance holds the master for the whole solve, so each round
re-optimizes from the previous round's basis (the hot start of column
generation; Lübbecke & Desrosiers, Oper. Res. 53, 2005).  The seed master is
solved by the interior-point method with crossover and presolve off; each
later round only adds the entering columns at 0, which keeps the held basis
primal feasible, and re-solves by primal simplex, about one pivot per added
column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as highs

from .density import GridMeasure, pair_measure, stationary_density
from .eigensolver import ErgodicSolution
from .grid import Grid
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
PRIMAL_SIMPLEX = highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal


class LPSolveError(RuntimeError):
    """The measure program is infeasible/unbounded or fails its certificates."""


@dataclass
class LPProblem:
    a_eq: sparse.csc_matrix  # (num_interior + 1, num_nodes * num_atoms)
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
    K, nint = xi_atoms.shape[0], grid.num_interior
    nvar = grid.num_nodes * K
    # generator row i * K + j is interior node i under atom j: the invariance
    # part of column interior_ids[i] * K + j, which the mass row's 1 closes;
    # a boundary node's columns hold that 1 alone
    pairs = np.repeat(np.arange(nint), K)
    A, _ = assemble_generator(grid, np.tile(xi_atoms, (nint, 1)), nodes=pairs)
    var = (grid.interior_ids[:, None] * K + np.arange(K)).ravel()
    lengths = np.diff(A.indptr)
    sizes = np.ones(nvar, dtype=np.int32)
    sizes[var] += lengths
    indptr = np.zeros(nvar + 1, dtype=np.int32)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.full(indptr[-1], nint, dtype=np.int32)
    data = np.ones(indptr[-1])
    at = np.arange(A.nnz, dtype=np.int32) + np.repeat(indptr[var] - A.indptr[:-1], lengths)
    indices[at], data[at] = A.indices, A.data
    a_eq = sparse.csc_matrix((data, indices, indptr), shape=(nint + 1, nvar))
    b_eq = np.zeros(nint + 1)
    b_eq[-1] = 1.0

    x_rep = np.repeat(grid.coords, K, axis=0)
    xi_rep = np.tile(xi_atoms, (grid.num_nodes, 1))
    objective = running_cost(model, potential, x_rep, xi_rep)
    return LPProblem(a_eq=a_eq, b_eq=b_eq, objective=objective, grid=grid, xi_atoms=xi_atoms)


def _ok(status, call: str) -> None:
    if status != highs.HighsStatus.kOk:
        raise LPSolveError(f"HiGHS {call} returned {status.name}")


class _Master:
    """The restricted master: one HiGHS instance over the equality rows of
    the program, whose columns are the active (node, atom) columns in the
    order they entered (``ids``)."""

    def __init__(self, problem: LPProblem):
        self.problem = problem
        self.ids = np.zeros(0, dtype=np.int64)
        self.round_columns: list[int] = []  # columns added before each solve
        self.round_iterations: list[int] = []  # IPM plus simplex, per solve
        # the last solve's run status, model status and objective value
        self.status = highs.HighsStatus.kOk
        self.message = ""
        self.value = float("nan")
        self.highs = highs._Highs()
        self._options(output_flag=False, solver="ipm", run_crossover="on", presolve="off")
        rows = problem.b_eq.size
        starts = np.zeros(rows, dtype=np.int32)  # the rows start empty; columns fill them
        _ok(self.highs.addRows(rows, problem.b_eq, problem.b_eq, 0, starts, starts[:0],
                               np.zeros(0)), "addRows")

    def _options(self, **values) -> None:
        for name, value in values.items():
            _ok(self.highs.setOptionValue(name, value), f"setOptionValue({name!r})")

    def add(self, ids: np.ndarray) -> None:
        """Add the columns ``ids`` of the full program at 0."""
        block = self.problem.a_eq[:, ids]
        block.sort_indices()
        _ok(
            self.highs.addCols(
                ids.size, self.problem.objective[ids], np.zeros(ids.size),
                np.full(ids.size, np.inf), block.nnz, block.indptr[:-1].astype(np.int32),
                block.indices.astype(np.int32), block.data,
            ),
            "addCols",
        )
        self.ids = np.concatenate([self.ids, ids])
        self.round_columns.append(int(ids.size))

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        """Re-optimize from the held basis; return the master's column values
        and its equality duals."""
        self.status = self.highs.run()
        _ok(self.status, "run")
        model_status = self.highs.getModelStatus()
        self.message = self.highs.modelStatusToString(model_status)
        if model_status != highs.HighsModelStatus.kOptimal:
            raise LPSolveError(f"LP solve failed: {self.message}")
        info = self.highs.getInfo()
        self.round_iterations.append(info.ipm_iteration_count + info.simplex_iteration_count)
        self.value = info.objective_function_value
        # columns enter at 0, so the basis held for the next round is primal feasible
        self._options(solver="simplex", simplex_strategy=PRIMAL_SIMPLEX)
        solution = self.highs.getSolution()
        return np.asarray(solution.col_value), np.asarray(solution.row_dual)


def solve_lp(problem: LPProblem) -> tuple[GridMeasure, float]:
    """Minimize the running cost over the discrete invariant-measure polytope.

    Solves by column generation over one hot-started master (see the module
    docstring).  Returns the optimal measure and its objective value, after
    verifying the primal feasibility, complementary-slackness and
    dual-feasibility certificates on the full program.
    ``measure.info["stats"]`` holds the solve's deterministic counters: full
    and final active column counts, pricing rounds, per round the columns
    added (the seed first) and the HiGHS iterations, the iterations' sum,
    and the last master's status and model status.
    """
    if not np.isfinite(problem.objective).all():
        raise LPSolveError("the running cost is not finite on every (node, atom) column")
    N, K = problem.grid.num_nodes, problem.num_atoms
    zero = np.all(np.abs(problem.xi_atoms) < 1e-14, axis=1).argmax()  # the first zero atom
    active = np.zeros((N, K), dtype=bool)
    active[:, zero] = True
    master = _Master(problem)
    master.add(np.flatnonzero(active))
    while True:
        x, duals = master.solve()
        reduced = problem.objective - problem.a_eq.T @ duals
        pricing = np.where(active, np.inf, reduced.reshape(N, K))
        best = pricing.argmin(axis=1)
        enter = pricing[np.arange(N), best] < -PRICING_TOL
        if not enter.any():
            break
        active[enter, best[enter]] = True
        master.add(np.flatnonzero(enter) * K + best[enter])

    mu = np.zeros(N * K)
    mu[master.ids] = x
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
        info={
            "primal_feasibility": float(primal),
            "complementarity": float(comp),
            "dual_feasibility_min": float(reduced.min()),
            "stats": {
                "columns": N * K,
                "active_columns": int(master.ids.size),
                "pricing_rounds": len(master.round_iterations),
                "round_columns": master.round_columns,
                "round_iterations": master.round_iterations,
                "highs_iterations": sum(master.round_iterations),
                "status": int(master.status),
                "message": master.message,
            },
        },
    )
    return measure, float(master.value)


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


def excess_cost_identity(measure: GridMeasure, solution: ErgodicSolution) -> tuple[float, float]:
    """Decompose a feasible measure's excess cost over the eigenvalue.

    Returns (lhs, rhs) with lhs = mu(F) - lambda and rhs the integral of each
    pair's reduced cost against (u, lambda), F - lambda - (A_xi u)(x) read
    from the pair's own row of the scheme, minus the same at the solution's
    control (x, xi_u(x)): the pointwise convex-duality defect of the
    measure's control under the discrete upwind pairing.  Both sides are read
    with the solution's own model and potential.  For measures feasible to
    1e-9 against the shared stencils the two sides agree to 1e-6 relative,
    and rhs is nonnegative up to the same resolution; this is the discrete
    form of the excess-cost inequality that forces every invariant measure to
    pay at least lambda.
    """
    grid = measure.grid
    if grid != solution.grid:
        raise ValueError("measure and solution grids differ")
    model, lam, ids = solution.model, solution.lam, grid.interior_ids
    coords = grid.coords
    fvals = solution.potential.on_grid(grid)

    coo = measure.weights.tocoo()
    x_ids = coo.row
    xi = measure.xi_atoms[coo.col]
    w = coo.data
    cost = fvals[x_ids] + lagrangian_value(model, coords[x_ids], xi)
    lhs = float(np.sum(cost * w) - lam * w.sum())

    # the pairs' rows, then every interior node's row under xi_u
    inner = np.flatnonzero(grid.interior_mask[x_ids])
    local = grid.interior_index[x_ids[inner]]
    xi_u = solution.xi_u[ids]
    rows, _ = assemble_generator(
        grid, np.concatenate([xi[inner], xi_u]),
        nodes=np.concatenate([local, np.arange(grid.num_interior)]),
    )
    au = rows @ solution.u[ids]
    own = fvals[ids] + lagrangian_value(model, coords[ids], xi_u) - lam - au[inner.size:]
    # boundary pairs never enter an invariance row; their raw excess is exact
    gap = cost - lam
    gap[inner] -= au[: inner.size] + own[local]
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
