"""Ergodic eigenpair solver: Howard-style policy iteration on the lattice.

The additive eigenvalue problem

    -Lap u + H(x, Du) = f(x) - lambda

is solved by alternating linear policy evaluation (solve for (u, lambda) at a
frozen control) with pointwise policy improvement (control = D_p H at the
current gradient).  Lambda enters the linear system as an explicit unknown;
the system is closed by the row u(origin) = 0 and by the boundary closure
selected in the options.  The returned value field is shifted so its minimum
is exactly 1.

Grids are solved coarse to fine: when the grid at twice the spacing has at
least ``COARSE_MIN_NODES`` nodes, it is solved first, and the iteration
starts from the control of its value field interpolated onto the finer
grid.  Howard's algorithm converges superlinearly near the solution, so the
fine grid skips the first evaluations, the ones far from the optimum.
Smaller grids start from the zero control.  As in nested iteration, a
coarse level only supplies that start: it stops once its control step is
within its own spacing, far below its discretization error.

One ``operators.BorderedSolver`` is carried through the iteration on each
grid: near convergence the control moves little, so the factor of an
earlier evaluation serves the next by iterative refinement and only the
first evaluations factor.  A held factor refines from the previous
evaluation's (u, lambda), which already lies within one control step of the
answer, so it needs fewer triangular solves than a start from zero; a fresh
factor starts from zero.  The solution keeps that solver, and with it the
last factor, for the stationary density's transposed solve.  It also keeps
the model and potential it solves, so the routines that evaluate a solution
take no model or potential of their own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    axis_half_width,
    bilinear,
    build_grid,
    check_scalar_field,
    check_vector_field,
    fill_boundary_nearest,
    gradient_inward_fallback,
    laplacian,
)
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    hamiltonian_value,
    lagrangian_value,
    optimal_control,
)
from .operators import (
    DIRICHLET_BIG,
    DIRICHLET_VALUE,
    STATE_CONSTRAINT,
    BorderedSolver,
    assemble_generator,
)


class SingularEvaluationError(RuntimeError):
    """The policy-evaluation system could not be solved to tolerance."""


LAMBDA_TOLERANCE = 1e-10
# Roundoff in the linear solves, amplified by the singular exponent of the
# control map near Du = 0, floors successive control differences around 1e-7
# in double precision, so demanding EPS_GRAD-level stationarity would never
# terminate.
CONTROL_TOLERANCE = 1e-6
# A grid starts from the solution at twice its spacing when that grid has at
# least this many nodes.  With truncated levels the 40,401-node 2d solve
# took (CPU time; 2-vCPU VM, medians of seven alternating runs) 0.83 s from
# the zero control, 0.47 s from a 10,201-node level, 0.42 s with levels down
# to 2,601 nodes and 0.46 s with a 625-node level too: smaller levels gain
# nothing.
COARSE_MIN_NODES = 2000


@dataclass(frozen=True)
class SolverOptions:
    max_policy_iters: int = 200
    eval_tolerance: float = 1e-10  # relative linear-solve residual
    boundary_mode: str = STATE_CONSTRAINT

    def __post_init__(self):
        iters = self.max_policy_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_policy_iters must be an integer >= 1, got {iters!r}")
        if self.eval_tolerance <= 0:
            raise ValueError("eval_tolerance must be positive")
        if self.boundary_mode not in (STATE_CONSTRAINT, DIRICHLET_BIG):
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")


@dataclass
class ErgodicSolution:
    """(u, lambda) stored with the ``model`` (H) and ``potential`` (f) it solves;
    ``xi_u``, ``residual_sup`` and ``iterations`` are derived on each read."""

    u: np.ndarray  # (N,), shifted so min u = 1
    lam: float
    grid: Grid
    model: HamiltonianModel
    potential: PotentialSpec
    converged: bool
    # per iteration: lambda, sup control step, evaluation residual and the
    # evaluation's refinement solves
    iteration_stats: list = field(default_factory=list)
    # holds the last evaluation's factor for the density's transposed solve
    solver: BorderedSolver | None = field(default=None, repr=False, compare=False)
    # the coarse levels this solve started from, coarsest first: nodes,
    # iterations, factorizations, refinement solves and lambda
    levels: list = field(default_factory=list)

    @property
    def xi_u(self) -> np.ndarray:
        """(N, d) optimal control D_p H(x, Du), zero on the boundary layer."""
        return policy_improvement(self.grid, self.u, self.model)

    @property
    def residual_sup(self) -> float:
        """Sup-norm of the equation defect over interior nodes."""
        return pde_residual(self)

    @property
    def iterations(self) -> int:
        return len(self.iteration_stats)


def policy_evaluation(
    grid: Grid,
    control: np.ndarray,
    cost: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    solver: BorderedSolver | None = None,
    start: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the linear ergodic system for a frozen control.

    Finds (u, lambda) with (-Lap + control . D_upwind) u + lambda = cost on
    interior nodes, u(origin) = 0, and the boundary closure from the
    options.  Returns the full-grid field (boundary filled per closure) and
    the eigenvalue.  ``solver`` (a fresh one by default) solves the bordered
    system, refining with the factor it holds and factoring afresh when that
    factor cannot reach the evaluation tolerance; it returns a solve within
    that tolerance or raises.  ``start``, an earlier evaluation's (u, lambda)
    on this grid, is the held factor's first iterate instead of zero; a fresh
    factor starts from zero.

    Raises:
        SingularEvaluationError: the solver refused the bordered system: it is
            numerically singular, or even a fresh factor leaves a residual
            above the evaluation tolerance, which signals a non-irreducible
            discretization.
    """
    cost = check_scalar_field(cost, grid)
    control = check_vector_field(control, grid)
    A, rhs_bnd = assemble_generator(grid, control, opts.boundary_mode)
    nint = grid.num_interior
    b = np.concatenate([cost[grid.interior_ids] + rhs_bnd, [0.0]])
    solver = BorderedSolver() if solver is None else solver
    x0 = None if start is None else np.append(start[0][grid.interior_ids], start[1])
    try:
        sol = solver.solve(grid, A, b, opts.eval_tolerance, start=x0)
    except RuntimeError as exc:
        raise SingularEvaluationError(f"evaluation solve failed: {exc}") from exc
    u = np.zeros(grid.num_nodes)
    u[grid.interior_ids] = sol[:nint]
    if opts.boundary_mode == DIRICHLET_BIG:
        u[~grid.interior_mask] = DIRICHLET_VALUE
        return u, float(sol[nint])
    return fill_boundary_nearest(u, grid), float(sol[nint])


def policy_improvement(
    grid: Grid, u: np.ndarray, model: HamiltonianModel
) -> np.ndarray:
    """Pointwise maximizing control D_p H(x, Du) from the current value field.

    Uses the centered gradient with inward one-sided fallback next to the
    boundary, so improvement never reads boundary values.
    """
    du = gradient_inward_fallback(u, grid)
    xi = np.zeros((grid.num_nodes, grid.dim))
    ids = grid.interior_ids
    xi[ids] = optimal_control(model, grid.coords[ids], du[ids])
    return xi


def _check_coercive(grid: Grid, fvals: np.ndarray, family: str) -> None:
    # sample f along each half-axis from the origin; warn if not non-decreasing
    mesh = fvals.reshape(grid.shape)
    m = grid.half_width
    if grid.dim == 1:
        lines = [mesh[m:], mesh[m::-1]]
    else:
        lines = [mesh[m:, m], mesh[m::-1, m], mesh[m, m:], mesh[m, m::-1]]
    slack = 1e-12 * (1.0 + np.abs(fvals).max())
    for line in lines:
        if np.any(np.diff(line) < -slack):
            warnings.warn(
                f"potential ({family}) is not increasing toward the boundary; "
                "the ergodic problem may be ill-posed on this box",
                stacklevel=3,
            )
            return


def _coarse_level(
    grid: Grid,
    model: HamiltonianModel,
    potential: PotentialSpec,
    opts: SolverOptions,
    coarse: ErgodicSolution | None,
) -> ErgodicSolution | None:
    """The solution at spacing 2h to start from, or None when that grid is
    below ``COARSE_MIN_NODES`` or its solve fails or does not converge.  The
    solve here is truncated: it stops at its first control step within 2h.
    ``coarse``, when given, is used as it is instead of a new solve.  The
    level releases its factor, whether solved here or handed in, before the
    finer grid makes its own."""
    half = axis_half_width(grid.radius, 2.0 * grid.spacing)
    if (2 * half + 1) ** grid.dim < COARSE_MIN_NODES:
        return None
    coarse_grid = build_grid(grid.dim, grid.radius, 2.0 * grid.spacing)
    if coarse is None:
        # through the module global, so a tracer sees every level; a coarse
        # level's warnings say nothing about the grid the caller asked for
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                coarse = solve_ergodic_hjb(coarse_grid, model, potential, opts, truncate=True)
            except SingularEvaluationError:
                return None
    elif coarse.grid != coarse_grid:
        raise ValueError(f"coarse solution must be on {coarse_grid}, got {coarse.grid}")
    if coarse.solver is not None:  # a solution built by hand holds no solver
        coarse.solver.drop()
    return coarse if coarse.converged else None


def _prolong(coarse: ErgodicSolution, grid: Grid) -> np.ndarray:
    """The coarse value field on the nodes of ``grid``, clamped at the coarse
    wall: linear in 1d, bilinear in 2d."""
    if grid.dim == 1:
        return np.interp(grid.axis_coords, coarse.grid.axis_coords, coarse.u)
    return bilinear(coarse.grid, coarse.u[:, None], grid.coords)[:, 0]


def solve_ergodic_hjb(
    grid: Grid,
    model: HamiltonianModel,
    potential: PotentialSpec,
    opts: SolverOptions = SolverOptions(),
    coarse: ErgodicSolution | None = None,
    *,
    truncate: bool = False,
) -> ErgodicSolution:
    """Policy iteration, coarse to fine, until lambda and the control settle.

    When the grid at spacing 2h (same dim and radius) has at least
    ``COARSE_MIN_NODES`` nodes, that grid is solved first by this function,
    and the iteration starts from the improved control of its value field
    interpolated onto ``grid``; otherwise, or when that solve fails or does
    not converge, it starts from the zero control.  ``coarse`` hands in a
    solution on the 2h grid that the caller already holds, which is then
    used instead of solving that grid again.  Either way the 2h level's
    factor is released before ``grid`` factors, so one factor is alive at a
    time.  Only ``grid`` raises warnings.

    Stops when |lambda_{k+1} - lambda_k| <= LAMBDA_TOLERANCE and the control
    field moved by at most CONTROL_TOLERANCE in the sup norm, or, with
    ``truncate`` (a coarse level's solve), as soon as the control moved by at
    most the grid spacing; returns the best iterate flagged non-converged if
    the budget runs out.
    """
    fvals = potential.on_grid(grid)
    _check_coercive(grid, fvals, potential.family)
    coords = grid.coords
    coarse = _coarse_level(grid, model, potential, opts, coarse)
    if coarse is None:
        control = np.zeros((grid.num_nodes, grid.dim))
        levels = []
    else:
        control = policy_improvement(grid, _prolong(coarse, grid), model)
        work = coarse.solver or BorderedSolver()  # a solution built by hand did no work
        levels = [
            *coarse.levels,
            {
                "nodes": coarse.grid.num_nodes,
                "iterations": coarse.iterations,
                "factorizations": work.factorizations,
                "refinement_solves": work.refinement_solves,
                "lambda": coarse.lam,
                "control_step": coarse.iteration_stats[-1]["control_step"],
            },
        ]
    lam_prev = None
    iteration_stats: list[dict] = []
    solver = BorderedSolver()
    u = np.zeros(grid.num_nodes)
    previous = None  # the last evaluation's (u, lambda): the next one starts there
    converged = False
    for _ in range(opts.max_policy_iters):
        cost = fvals + lagrangian_value(model, coords, control)
        if not np.isfinite(cost).all():  # the potential or the Lagrangian overflowed
            raise SingularEvaluationError("the running cost is not finite on this grid")
        solves = solver.refinement_solves
        u, lam = previous = policy_evaluation(grid, control, cost, opts, solver, previous)
        new_control = policy_improvement(grid, u, model)
        step = float(np.abs(new_control - control).max())
        iteration_stats.append(
            {
                "lambda": lam,
                "control_step": step,
                "residual": float(solver.residual),
                "refinement_solves": solver.refinement_solves - solves,
            }
        )
        control = new_control
        if (
            lam_prev is not None
            and abs(lam - lam_prev) <= LAMBDA_TOLERANCE
            and step <= CONTROL_TOLERANCE
        ) or (truncate and step <= grid.spacing):
            converged = True
            break
        lam_prev = lam
    return ErgodicSolution(
        u=u - u.min() + 1.0,
        lam=float(lam),
        grid=grid,
        model=model,
        potential=potential,
        converged=converged,
        iteration_stats=iteration_stats,
        solver=solver,
        levels=levels,
    )


def pointwise_residual(solution: ErgodicSolution) -> np.ndarray:
    """|-Lap u + H(x, Du) - f + lambda| per interior node (zero elsewhere).

    H and f are the solution's own.  Du is the same centered/inward-fallback
    gradient that defines the solution's control, so the reported defect
    reflects the one-sided bias of the scheme rather than a re-discretization.
    """
    grid = solution.grid
    u = check_scalar_field(solution.u, grid)
    lap = laplacian(u, grid)
    du = gradient_inward_fallback(u, grid)
    fvals = solution.potential.on_grid(grid)
    out = np.zeros(grid.num_nodes)
    ids = grid.interior_ids
    hvals = hamiltonian_value(solution.model, grid.coords[ids], du[ids])
    out[ids] = np.abs(-lap[ids] + hvals - fvals[ids] + solution.lam)
    return out


def pde_residual(solution: ErgodicSolution) -> float:
    """Sup-norm of the pointwise equation defect over interior nodes."""
    return float(pointwise_residual(solution).max())


def domain_exhaustion(
    model: HamiltonianModel,
    potential: PotentialSpec,
    radii: list[float],
    spacing: float,
    opts: SolverOptions = SolverOptions(),
    dim: int = 1,
) -> list[tuple[float, float]]:
    """Solve on an increasing family of boxes and report lambda per radius.

    With the pinned-boundary mode this replicates the shrinking sequence of
    truncated-domain eigenvalues; per-radius solver failures are recorded as
    NaN and the remaining radii still run.
    """
    radii = [float(r) for r in radii]
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    if any(r < 4 * spacing for r in radii):
        raise ValueError("every radius must be >= 4*spacing")

    def solve_one(r: float) -> float:
        try:
            g = build_grid(dim, r, spacing)
            return solve_ergodic_hjb(g, model, potential, opts).lam
        except SingularEvaluationError as exc:
            warnings.warn(f"radius {r}: {exc}", stacklevel=2)
            return float("nan")

    return [(r, solve_one(r)) for r in radii]
