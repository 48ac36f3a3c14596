"""Numerical audits of growth assumptions and a-priori solution estimates.

Each check fits the smallest constant making its inequality hold on the
sampled grid and decides pass/fail by a stability criterion: asymptotic
inequalities cannot be decided from finite data, but a constant that keeps
growing under radius sweeps or grid refinement is a falsification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigensolver import ErgodicSolution, SolverOptions, solve_ergodic_hjb
from .grid import Grid, build_grid, gradient_inward_fallback
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    hamiltonian_value,
    lagrangian_value,
    optimal_control,
)

SWEEP_GROWTH_LIMIT = 1.5  # bounded-constant criterion over radius sweeps
REFINE_BAND = 0.25  # +-25% stability between h and h/2


@dataclass
class EstimateReport:
    name: str
    fitted_constant: float
    witness: tuple
    passed: bool
    sweep: list = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _radius_sweep_fit(
    grid: Grid, numer: np.ndarray, denom: np.ndarray
) -> tuple[float, tuple, list]:
    """Fitted constant sup(numer/denom) over balls of radius R/4, R/2, R."""
    r = np.linalg.norm(grid.coords, axis=1)
    ratio = numer / denom
    sweep = []
    for frac in (0.25, 0.5, 1.0):
        inside = r <= frac * grid.radius + 1e-12
        sweep.append(float(ratio[inside].max()))
    witness = tuple(grid.coords[int(np.argmax(ratio))])
    return sweep[-1], witness, sweep


def _sweep_passed(sweep: list) -> bool:
    first, last = sweep[0], sweep[-1]
    if last <= 1e-12:
        return True
    if first <= 1e-12:
        return False
    return last / first <= SWEEP_GROWTH_LIMIT


def check_potential_gradient_growth(
    potential: PotentialSpec, grid: Grid, gamma: float
) -> EstimateReport:
    """Audit |Df| <= k0 (1 + |f|^(2 - 1/gamma)), the mild growth condition
    under which the ergodic problem is well-posed for subquadratic exponents."""
    f = potential.on_grid(grid)
    df = np.linalg.norm(potential.grad_on_grid(grid), axis=1)
    denom = 1.0 + np.abs(f) ** (2.0 - 1.0 / gamma)
    k0, witness, sweep = _radius_sweep_fit(grid, df, denom)
    return EstimateReport(
        name="potential_gradient_growth",
        fitted_constant=k0,
        witness=witness,
        passed=_sweep_passed(sweep),
        sweep=sweep,
        details={"gamma": gamma},
    )


def check_polynomial_envelope(potential: PotentialSpec, grid: Grid) -> EstimateReport:
    """Audit the power sandwich c^-1 |x|^b - c <= f <= c(1 + |x|^b) with
    |Df| <= c^-1 (1 + |x|^(b-1)+), fitting b by log-log regression.

    Fails when f has no power-law envelope (the log-log fit residual exceeds
    0.1), which is exactly the class the gradient-growth audit still admits.
    """
    f = potential.on_grid(grid)
    df = np.linalg.norm(potential.grad_on_grid(grid), axis=1)
    r = np.linalg.norm(grid.coords, axis=1)
    outer = r >= 0.5 * grid.radius
    t = np.log(r[outer])
    y = np.log(np.maximum(f[outer], 1e-300))
    beta, intercept = np.polyfit(t, y, 1)
    resid = float(np.sqrt(np.mean((y - beta * t - intercept) ** 2)))
    if beta < 0.05:  # flat potentials: degenerate fit, convention beta = 0
        beta = 0.0
        resid = 0.0

    safe_r = np.maximum(r, 1e-300)
    with np.errstate(divide="ignore"):
        c_upper = np.max(f / (1.0 + safe_r**beta))
        c_lower = np.max(np.where(r > 0, safe_r**beta / np.maximum(f + 1.0, 1e-300), 0.0))
        c_grad = np.max(df / (1.0 + safe_r ** max(beta - 1.0, 0.0)))
    c = float(max(c_upper, c_lower, c_grad, 1.0))
    witness = tuple(grid.coords[int(np.argmax(f))])
    return EstimateReport(
        name="polynomial_envelope",
        fitted_constant=c,
        witness=witness,
        passed=resid <= 0.1,
        sweep=[resid],
        details={"beta": float(beta), "log_residual": resid},
    )


def _ball_sup(values: np.ndarray, grid: Grid, centers: np.ndarray, radius: float) -> np.ndarray:
    """Grid-sampled sup over Euclidean balls around the given node ids."""
    coords = grid.coords
    out = np.empty(centers.size)
    for k, cid in enumerate(centers):
        d = np.linalg.norm(coords - coords[cid], axis=1)
        out[k] = values[d <= radius + 1e-12].max()
    return out


def _sample_centers(grid: Grid, margin: float, limit: int = 120) -> np.ndarray:
    r = np.linalg.norm(grid.coords, axis=1)
    ok = np.flatnonzero(grid.interior_mask & (r <= grid.radius - margin))
    if ok.size > limit:
        ok = ok[:: max(1, ok.size // limit)]
    return ok


def _gradient_ratio_constant(
    solution: ErgodicSolution,
    potential: PotentialSpec,
    radii: list,
    gamma: float,
    include_gradient_term: bool,
) -> tuple[float, tuple]:
    grid = solution.grid
    du = np.linalg.norm(gradient_inward_fallback(solution.u, grid), axis=1)
    f = potential.on_grid(grid)
    df = np.linalg.norm(potential.grad_on_grid(grid), axis=1)
    best = 0.0
    witness = (0.0,) * grid.dim
    for r in radii:
        centers = _sample_centers(grid, 2 * r)
        if centers.size == 0:
            continue
        lhs = _ball_sup(du, grid, centers, r)
        fpart = _ball_sup(np.maximum(f - solution.lam, 0.0), grid, centers, 2 * r)
        rhs = r ** (-1.0 / (gamma - 1.0)) + fpart ** (1.0 / gamma)
        if include_gradient_term:
            dfpart = _ball_sup(df, grid, centers, 2 * r)
            rhs = rhs + dfpart ** (1.0 / (2.0 * gamma - 1.0))
        ratio = lhs / rhs
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best = float(ratio[k])
            witness = tuple(grid.coords[centers[k]])
    return best, witness


def _resolve_refined(
    solution: ErgodicSolution, model: HamiltonianModel, potential: PotentialSpec
) -> ErgodicSolution:
    """The same problem re-solved at half the spacing."""
    grid = solution.grid
    fine = build_grid(grid.dim, grid.radius, grid.spacing / 2.0)
    return solve_ergodic_hjb(fine, model, potential, SolverOptions())


def _stable(a: float, b: float) -> bool:
    hi = max(abs(a), abs(b))
    if hi <= 1e-12:
        return True
    return abs(a - b) <= REFINE_BAND * hi


def check_gradient_bound(
    solution: ErgodicSolution,
    model: HamiltonianModel,
    potential: PotentialSpec,
    radii: list,
    include_gradient_term: bool = True,
    refine: bool = True,
) -> EstimateReport:
    """Audit the local gradient estimate sup_{B_r} |Du| against the scaled
    right-hand side r^(-1/(g-1)) + sup (f - lambda)_+^(1/g) + sup |Df|^(1/(2g-1)),
    with g the model's gamma.

    With include_gradient_term=False the |Df| term is dropped, the form valid
    once the potential satisfies the gradient-growth condition.  The constant
    is refit on the half-spacing solve of the same instance; stability within
    25% passes.
    """
    gamma = model.gamma
    c_h, witness = _gradient_ratio_constant(
        solution, potential, radii, gamma, include_gradient_term
    )
    if refine:
        refined = _resolve_refined(solution, model, potential)
        c_half, _ = _gradient_ratio_constant(
            refined, potential, radii, gamma, include_gradient_term
        )
        sweep = [c_h, c_half]
        passed = _stable(c_h, c_half)
    else:
        sweep = [c_h]
        passed = True
    return EstimateReport(
        name="gradient_bound",
        fitted_constant=c_h,
        witness=witness,
        passed=passed,
        sweep=sweep,
        details={"radii": list(radii), "gradient_term": include_gradient_term},
    )


def _lower_bound_constants(
    solution: ErgodicSolution,
    potential: PotentialSpec,
    gamma: float,
    kappa_exponent: float,
    scale_exponent: float,
) -> tuple[float, float, tuple, float]:
    """(M0, kappa, witness, coverage) for the two lower-bound audits.

    M0 bounds |Du|^2 / (u f) from above; kappa bounds the infimum of u over
    balls of radius 0.5 * f^scale_exponent against f^kappa_exponent from
    below.  Ball radii are rounded to whole grid steps, minimum one step.
    """
    grid = solution.grid
    u = solution.u
    f = potential.on_grid(grid)
    du = np.linalg.norm(gradient_inward_fallback(solution.u, grid), axis=1)
    ids = grid.interior_ids
    m0 = float(np.max(du[ids] ** 2 / (u[ids] * f[ids])))
    witness = tuple(grid.coords[ids[int(np.argmax(du[ids] ** 2 / (u[ids] * f[ids])))]])

    scale = f**scale_exponent
    radius = np.maximum(np.round(0.5 * scale / grid.spacing), 1.0) * grid.spacing
    rnode = np.linalg.norm(grid.coords, axis=1)
    fits = grid.interior_mask & (rnode + radius <= grid.radius - grid.spacing + 1e-12)
    centers = np.flatnonzero(fits)
    coverage = centers.size / grid.num_interior
    if centers.size > 200:
        centers = centers[:: max(1, centers.size // 200)]
    kappa = np.inf
    for cid in centers:
        d = np.linalg.norm(grid.coords - grid.coords[cid], axis=1)
        inf_u = u[d <= radius[cid] + 1e-12].min()
        kappa = min(kappa, inf_u / f[cid] ** kappa_exponent)
    return m0, float(kappa), witness, coverage


def check_value_lower_bounds(
    solution: ErgodicSolution,
    model: HamiltonianModel,
    potential: PotentialSpec,
    refine: bool = True,
) -> EstimateReport:
    """Audit the subquadratic lower-bound pair: |Du|^2/u <= M0 f, and
    inf u over f^(-1/g*)-scaled balls >= kappa f^((g*-2)/g*)."""
    gamma = model.gamma
    gstar = model.gamma_star
    m0, kappa, witness, coverage = _lower_bound_constants(
        solution, potential, gamma, (gstar - 2.0) / gstar, -1.0 / gstar
    )
    if refine:
        refined = _resolve_refined(solution, model, potential)
        m0_half, kappa_half, _, _ = _lower_bound_constants(
            refined, potential, gamma, (gstar - 2.0) / gstar, -1.0 / gstar
        )
        passed = _stable(m0, m0_half) and _stable(kappa, kappa_half) and kappa > 0
        sweep = [m0, m0_half]
    else:
        kappa_half = kappa
        passed = kappa > 0
        sweep = [m0]
    return EstimateReport(
        name="value_lower_bounds",
        fitted_constant=m0,
        witness=witness,
        passed=passed,
        sweep=sweep,
        details={
            "kappa": kappa,
            "kappa_refined": kappa_half,
            "coverage": coverage,
        },
    )


def fit_hamiltonian_growth(
    model: HamiltonianModel, dim: int, seed: int = 0, n_samples: int = 4096
) -> dict:
    """Fitted finite constants for the two-sided power growth of H, D_p H and
    the conjugate's gradient over a random sample cloud in dimension dim."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, size=(n_samples, dim))
    p = rng.standard_normal((n_samples, dim)) * rng.uniform(0.1, 8, (n_samples, 1))
    xi = rng.standard_normal((n_samples, dim)) * rng.uniform(0.1, 8, (n_samples, 1))
    g, gs = model.gamma, model.gamma_star
    pn = np.linalg.norm(p, axis=1)
    xin = np.linalg.norm(xi, axis=1)

    H = hamiltonian_value(model, x, p)
    # smallest t with H >= |p|^g / t - t pointwise
    t_low = 0.5 * (-H + np.sqrt(H**2 + 4 * pn**g))
    h0 = float(max(np.max(H / (1 + pn**g)), np.max(t_low)))

    dph = np.linalg.norm(optimal_control(model, x, p), axis=1)
    h1 = float(max(np.max(dph / (1 + pn ** (g - 1))), 1e-12))

    # conjugate gradient |xi - b|^(g*-1)
    dxl = np.linalg.norm(xi - model.drift_at(x), axis=1) ** (gs - 1)
    l1 = float(np.max(dxl / (1 + xin ** (gs - 1))))
    L = lagrangian_value(model, x, xi)
    t_low_l = 0.5 * (-L + np.sqrt(L**2 + 4 * xin**gs))
    l0 = float(max(np.max(L / (1 + xin**gs)), np.max(t_low_l)))
    return {"h0": h0, "h1": h1, "l0": l0, "l1": l1}
