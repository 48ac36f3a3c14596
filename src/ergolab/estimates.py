"""Numerical audits of growth assumptions and a-priori solution estimates.

Each check fits the smallest constant making its inequality hold on the
sampled grid and decides pass/fail by a stability criterion: asymptotic
inequalities cannot be decided from finite data, but a constant that keeps
growing under radius sweeps or grid refinement is a falsification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .eigensolver import ErgodicSolution
from .grid import Grid, gradient_inward_fallback
from .hamiltonian import (
    HamiltonianModel,
    PotentialSpec,
    hamiltonian_value,
    lagrangian_value,
    optimal_control,
)

SWEEP_GROWTH_LIMIT = 1.5  # bounded-constant criterion over radius sweeps
REFINE_BAND = 0.25  # +-25% stability between h and h/2
CENTER_LIMIT = 120  # the gradient bound's ball centers, about this many per radius
GROWTH_SAMPLES = 4096  # points in the growth-constant sample cloud


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

    Fails when the log-log fit residual over r >= R/2 exceeds 0.1. On the
    boxes the lab solves, the fit cannot tell e^|x| from a power: ``exp_abs``
    passes at defaults with b 2.75 and residual 0.058.
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


def _ball_reduce(values: np.ndarray, grid: Grid, centers, radius, reduce) -> np.ndarray:
    """``reduce`` (np.max or np.min) of values over the nodes within ``radius`` (one
    number, or one per center) of each center node.  A node more than floor(r/h) + 1
    steps from the center along an axis lies beyond r, so only that window is scanned."""
    mesh = values.reshape(grid.shape)
    coords = grid.coords.reshape(*grid.shape, grid.dim)
    out = np.empty(centers.size)
    for k, (cid, r) in enumerate(zip(centers, np.broadcast_to(radius, centers.shape))):
        w = int(r / grid.spacing) + 1
        window = tuple(slice(max(i - w, 0), i + w + 1) for i in np.unravel_index(cid, grid.shape))
        d = np.linalg.norm(coords[window] - grid.coords[cid], axis=-1)
        out[k] = reduce(mesh[window][d <= r + 1e-12])
    return out


def _sample_centers(grid: Grid, margin: float) -> np.ndarray:
    r = np.linalg.norm(grid.coords, axis=1)
    ok = np.flatnonzero(grid.interior_mask & (r <= grid.radius - margin))
    return ok[:: max(1, ok.size // CENTER_LIMIT)]  # stride 1, every id, up to the limit


def _gradient_ratio_constant(
    solution: ErgodicSolution, radii: list, include_gradient_term: bool
) -> tuple[float, tuple]:
    grid, potential, gamma = solution.grid, solution.potential, solution.model.gamma
    du = np.linalg.norm(gradient_inward_fallback(solution.u, grid), axis=1)
    f = potential.on_grid(grid)
    df = np.linalg.norm(potential.grad_on_grid(grid), axis=1)
    best = 0.0
    witness = (0.0,) * grid.dim
    for r in radii:
        centers = _sample_centers(grid, 2 * r)
        if centers.size == 0:
            continue
        lhs = _ball_reduce(du, grid, centers, r, np.max)
        fpart = _ball_reduce(np.maximum(f - solution.lam, 0.0), grid, centers, 2 * r, np.max)
        rhs = r ** (-1.0 / (gamma - 1.0)) + fpart ** (1.0 / gamma)
        if include_gradient_term:
            dfpart = _ball_reduce(df, grid, centers, 2 * r, np.max)
            rhs = rhs + dfpart ** (1.0 / (2.0 * gamma - 1.0))
        ratio = lhs / rhs
        k = int(np.argmax(ratio))
        if ratio[k] > best:
            best = float(ratio[k])
            witness = tuple(grid.coords[centers[k]])
    return best, witness


def _stable(a: float, b: float) -> bool:
    hi = max(abs(a), abs(b))
    return hi <= 1e-12 or abs(a - b) <= REFINE_BAND * hi


def check_gradient_bound(
    solution: ErgodicSolution,
    refined: ErgodicSolution,
    radii: list,
    include_gradient_term: bool = True,
) -> EstimateReport:
    """Audit the local gradient estimate sup_{B_r} |Du| against the scaled
    right-hand side r^(-1/(g-1)) + sup (f - lambda)_+^(1/g) + sup |Df|^(1/(2g-1)),
    with g the solution model's gamma and f its potential.

    With include_gradient_term=False the |Df| term is dropped, the form valid
    once the potential satisfies the gradient-growth condition.  The constant
    is refit on ``refined``, the same instance solved at half the spacing;
    stability within 25% passes.
    """
    (c_h, witness), (c_half, _) = (
        _gradient_ratio_constant(sol, radii, include_gradient_term) for sol in (solution, refined)
    )
    return EstimateReport(
        name="gradient_bound",
        fitted_constant=c_h,
        witness=witness,
        passed=_stable(c_h, c_half),
        sweep=[c_h, c_half],
        details={"radii": list(radii), "gradient_term": include_gradient_term},
    )


def _lower_bound_constants(
    solution: ErgodicSolution, kappa_exponent: float, scale_exponent: float
) -> tuple[float, float, tuple, float]:
    """(M0, kappa, witness, coverage) for the two lower-bound audits.

    M0 bounds |Du|^2 / (u f) from above; kappa bounds the infimum of u over
    balls of radius 0.5 * f^scale_exponent against f^kappa_exponent from
    below.  Ball radii are rounded to whole grid steps, minimum one step.
    """
    grid, u = solution.grid, solution.u
    f = solution.potential.on_grid(grid)
    du = np.linalg.norm(gradient_inward_fallback(u, grid), axis=1)
    ids = grid.interior_ids
    m0 = float(np.max(du[ids] ** 2 / (u[ids] * f[ids])))
    witness = tuple(grid.coords[ids[int(np.argmax(du[ids] ** 2 / (u[ids] * f[ids])))]])

    scale = f**scale_exponent
    radius = np.maximum(np.round(0.5 * scale / grid.spacing), 1.0) * grid.spacing
    rnode = np.linalg.norm(grid.coords, axis=1)
    fits = grid.interior_mask & (rnode + radius <= grid.radius - grid.spacing + 1e-12)
    centers = np.flatnonzero(fits)
    coverage = centers.size / grid.num_interior
    centers = centers[:: max(1, centers.size // 200)]
    inf_u = _ball_reduce(u, grid, centers, radius[centers], np.min)
    # one scalar power per center: the array power rounds differently
    kappa = min([low / fc**kappa_exponent for low, fc in zip(inf_u, f[centers])], default=np.inf)
    return m0, float(kappa), witness, coverage


def check_value_lower_bounds(solution: ErgodicSolution, refined: ErgodicSolution) -> EstimateReport:
    """Audit the subquadratic lower-bound pair: |Du|^2/u <= M0 f, and
    inf u over f^(-1/g*)-scaled balls >= kappa f^((g*-2)/g*), refit on
    ``refined``, the same instance solved at half the spacing."""
    gstar = solution.model.gamma_star
    exponents = ((gstar - 2.0) / gstar, -1.0 / gstar)
    m0, kappa, witness, coverage = _lower_bound_constants(solution, *exponents)
    m0_half, kappa_half, _, _ = _lower_bound_constants(refined, *exponents)
    return EstimateReport(
        name="value_lower_bounds",
        fitted_constant=m0,
        witness=witness,
        passed=_stable(m0, m0_half) and _stable(kappa, kappa_half) and kappa > 0,
        sweep=[m0, m0_half],
        details={
            "kappa": kappa,
            "kappa_refined": kappa_half,
            "coverage": coverage,
        },
    )


def fit_hamiltonian_growth(model: HamiltonianModel, dim: int, seed: int = 0) -> dict:
    """Fitted finite constants for the two-sided power growth of H, D_p H and
    the conjugate's gradient over a random sample cloud in dimension dim."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-5, 5, size=(GROWTH_SAMPLES, dim))
    p = rng.standard_normal((GROWTH_SAMPLES, dim)) * rng.uniform(0.1, 8, (GROWTH_SAMPLES, 1))
    xi = rng.standard_normal((GROWTH_SAMPLES, dim)) * rng.uniform(0.1, 8, (GROWTH_SAMPLES, 1))
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
