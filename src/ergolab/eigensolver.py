"""Ergodic eigenpair solver: Howard-style policy iteration on the lattice.

The additive eigenvalue problem

    -Lap u + H(x, Du) = f(x) - lambda

is solved by alternating linear policy evaluation (solve for (u, lambda) at a
frozen control) with pointwise policy improvement (control = D_p H at the
current gradient).  Lambda enters the linear system as an explicit unknown;
the system is closed by the row u(origin) = 0 and by the boundary closure
selected in the options.  The returned value field is shifted so its minimum
is exactly 1.

One ``operators.BorderedSolver`` is carried through the iteration: near
convergence the control moves little, so the factor of an earlier evaluation
serves the next by iterative refinement and only the first few evaluations
factor.  The solution keeps that solver, and with it the last factor, for
the stationary density's transposed solve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
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


@dataclass(frozen=True)
class SolverOptions:
    max_policy_iters: int = 200
    eval_tolerance: float = 1e-10  # relative linear-solve residual
    boundary_mode: str = STATE_CONSTRAINT
    dirichlet_value: float = 1e6

    def __post_init__(self):
        iters = self.max_policy_iters
        if isinstance(iters, bool) or not isinstance(iters, (int, np.integer)) or iters < 1:
            raise ValueError(f"max_policy_iters must be an integer >= 1, got {iters!r}")
        if self.eval_tolerance <= 0:
            raise ValueError("eval_tolerance must be positive")
        if self.boundary_mode not in (STATE_CONSTRAINT, DIRICHLET_BIG):
            raise ValueError(f"unknown boundary mode {self.boundary_mode!r}")
        if self.boundary_mode == DIRICHLET_BIG and not self.dirichlet_value > 0:
            raise ValueError("dirichlet_big requires a positive dirichlet_value")


@dataclass
class ErgodicSolution:
    u: np.ndarray  # (N,), shifted so min u = 1
    lam: float
    xi_u: np.ndarray  # (N, d), optimal control, zero on the boundary layer
    residual_sup: float
    iterations: int
    grid: Grid
    converged: bool
    lambda_history: list = field(default_factory=list)
    # per iteration: lambda, sup control step and evaluation residual
    iteration_stats: list = field(default_factory=list)
    # holds the last evaluation's factor for the density's transposed solve
    solver: BorderedSolver | None = field(default=None, repr=False, compare=False)


def policy_evaluation(
    grid: Grid,
    control: np.ndarray,
    cost: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    solver: BorderedSolver | None = None,
) -> tuple[np.ndarray, float]:
    """Solve the linear ergodic system for a frozen control.

    Finds (u, lambda) with (-Lap + control . D_upwind) u + lambda = cost on
    interior nodes, u(origin) = 0, and the boundary closure from the
    options.  Returns the full-grid field (boundary filled per closure) and
    the eigenvalue.  ``solver`` (a fresh one by default) solves the bordered
    system, refining with the factor it holds and factoring afresh when that
    factor cannot reach the evaluation tolerance, so the checks below fail
    only on a fresh factor.

    Raises:
        SingularEvaluationError: the bordered system is numerically singular
            or the residual exceeds the evaluation tolerance, which signals a
            non-irreducible discretization.
    """
    cost = check_scalar_field(cost, grid)
    control = check_vector_field(control, grid)
    A, rhs_bnd = assemble_generator(
        grid, control, opts.boundary_mode, opts.dirichlet_value
    )
    nint = grid.num_interior
    b = np.concatenate([cost[grid.interior_ids] + rhs_bnd, [0.0]])
    solver = BorderedSolver() if solver is None else solver
    try:
        sol = solver.solve(grid, A, b, opts.eval_tolerance)
    except RuntimeError as exc:
        raise SingularEvaluationError(f"evaluation solve failed: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise SingularEvaluationError("evaluation solve returned non-finite values")
    resid = solver.residual
    if not resid <= opts.eval_tolerance:
        raise SingularEvaluationError(
            f"evaluation residual {resid:.3e} exceeds tolerance {opts.eval_tolerance:.1e}"
        )
    u = np.zeros(grid.num_nodes)
    u[grid.interior_ids] = sol[:nint]
    if opts.boundary_mode == DIRICHLET_BIG:
        u[~grid.interior_mask] = opts.dirichlet_value
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


def _wall_outward_max(grid: Grid, control: np.ndarray) -> float:
    """Largest drift component pointing at a wall from a wall-adjacent node.

    Only such components get the clipped inward difference, whose row stays
    an M-matrix row exactly while they remain below 1/h.
    """
    worst = 0.0
    ids = grid.interior_ids
    for a in range(grid.dim):
        for s in (-1, 1):
            at_wall = grid.interior_neighbor(a, s) < 0
            # upwind side s is selected when sign(w) = -s
            worst = max(worst, float((-s * control[ids[at_wall], a]).max(initial=0.0)))
    return worst


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


def solve_ergodic_hjb(
    grid: Grid,
    model: HamiltonianModel,
    potential: PotentialSpec,
    opts: SolverOptions = SolverOptions(),
) -> ErgodicSolution:
    """Policy iteration from the zero control until lambda and the control settle.

    Stops when |lambda_{k+1} - lambda_k| <= LAMBDA_TOLERANCE and the control
    field moved by at most CONTROL_TOLERANCE in the sup norm; returns the
    best iterate flagged non-converged if the budget runs out.
    """
    fvals = potential.on_grid(grid)
    _check_coercive(grid, fvals, potential.family)
    coords = grid.coords
    control = np.zeros((grid.num_nodes, grid.dim))
    lam_prev = None
    iteration_stats: list[dict] = []
    solver = BorderedSolver()
    u = np.zeros(grid.num_nodes)
    converged = False
    iterations = 0
    drift_cap = 1.0 / grid.spacing  # the inward wall closure is monotone below it
    for k in range(opts.max_policy_iters):
        cost = fvals + lagrangian_value(model, coords, control)
        u, lam = policy_evaluation(grid, control, cost, opts, solver)
        new_control = policy_improvement(grid, u, model)
        iterations = k + 1
        step = float(np.abs(new_control - control).max())
        iteration_stats.append(
            {"lambda": lam, "control_step": step, "residual": float(solver.residual)}
        )
        control = new_control
        if opts.boundary_mode == STATE_CONSTRAINT and _wall_outward_max(
            grid, control
        ) >= drift_cap:
            warnings.warn(
                "outward drift at a wall node reached 1/h; the inward closure "
                "loses monotonicity on this grid",
                stacklevel=2,
            )
        if (
            lam_prev is not None
            and abs(lam - lam_prev) <= LAMBDA_TOLERANCE
            and step <= CONTROL_TOLERANCE
        ):
            converged = True
            break
        lam_prev = lam
    u_shifted = u - u.min() + 1.0
    xi_u = policy_improvement(grid, u_shifted, model)
    sol = ErgodicSolution(
        u=u_shifted,
        lam=float(lam),
        xi_u=xi_u,
        residual_sup=0.0,
        iterations=iterations,
        grid=grid,
        converged=converged,
        lambda_history=[entry["lambda"] for entry in iteration_stats],
        iteration_stats=iteration_stats,
        solver=solver,
    )
    sol.residual_sup = pde_residual(sol, model, potential)
    return sol


def pointwise_residual(
    solution: ErgodicSolution, model: HamiltonianModel, potential: PotentialSpec
) -> np.ndarray:
    """|-Lap u + H(x, Du) - f + lambda| per interior node (zero elsewhere).

    Du is the same centered/inward-fallback gradient that defines the stored
    control, so the reported defect reflects the one-sided bias of the scheme
    rather than a re-discretization.
    """
    grid = solution.grid
    u = check_scalar_field(solution.u, grid)
    lap = laplacian(u, grid)
    du = gradient_inward_fallback(u, grid)
    fvals = potential.on_grid(grid)
    out = np.zeros(grid.num_nodes)
    ids = grid.interior_ids
    hvals = hamiltonian_value(model, grid.coords[ids], du[ids])
    out[ids] = np.abs(-lap[ids] + hvals - fvals[ids] + solution.lam)
    return out


def pde_residual(
    solution: ErgodicSolution, model: HamiltonianModel, potential: PotentialSpec
) -> float:
    """Sup-norm of the pointwise equation defect over interior nodes."""
    return float(pointwise_residual(solution, model, potential).max())


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
