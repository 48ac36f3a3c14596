"""Monte Carlo verification of long-run average cost under Markov controls.

Paths follow dX = -xi(X) dt + sqrt(2) dW by Euler-Maruyama.  Every path owns
an RNG stream spawned deterministically from (seed, path index), increments
are consumed in fixed blocks, and reductions run in path order, so reports
are bitwise reproducible for any worker count or chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Grid, check_vector_field, fill_boundary_nearest
from .hamiltonian import HamiltonianModel, PotentialSpec

_BLOCK = 4096


@dataclass(frozen=True)
class SimParams:
    horizon: float
    timestep: float
    n_paths: int
    seed: int
    x0: tuple = (0.0,)
    burn_in: float = 0.0
    safety_factor: float = 3.0  # paths leaving the box of radius 3R are excluded
    workers: int = 1

    def __post_init__(self):
        if not self.timestep > 0:
            raise ValueError("timestep must be positive")
        if self.horizon < 100 * self.timestep:
            raise ValueError("horizon must be at least 100 timesteps")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if not 0 <= self.burn_in < self.horizon:
            raise ValueError("burn_in must lie in [0, horizon)")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.timestep))


@dataclass
class ErgodicAverageReport:
    name: str
    path_averages: np.ndarray  # time-average of F over [burn_in, T] per path
    half_averages: np.ndarray  # time-average of F over [T/2, T] per path
    admissibility: np.ndarray  # integral of |xi|^g* dt over [0, T] per path
    admissibility_ratio: np.ndarray  # successive half-window average ratio
    diverged: np.ndarray  # per-path exclusion flags
    params: SimParams

    @property
    def n_divergent(self) -> int:
        return int(self.diverged.sum())

    @property
    def mean(self) -> float:
        ok = ~self.diverged
        return float(self.path_averages[ok].mean()) if ok.any() else float("nan")

    @property
    def standard_error(self) -> float:
        ok = ~self.diverged
        n = int(ok.sum())
        if n < 2:
            return float("nan")
        return float(self.path_averages[ok].std(ddof=1) / np.sqrt(n))


class _ControlInterp:
    """Multilinear interpolation of a grid control field, nearest node outside."""

    def __init__(self, grid: Grid, control: np.ndarray):
        control = check_vector_field(control, grid)
        filled = control.copy()
        for a in range(grid.dim):
            filled[:, a] = fill_boundary_nearest(control[:, a], grid)
        self.grid = grid
        self.field = filled.reshape(grid.shape + (grid.dim,))
        self.lo = -grid.half_width * grid.spacing

    def __call__(self, x: np.ndarray) -> np.ndarray:
        g = self.grid
        n = g.nodes_per_axis
        t = (x - self.lo) / g.spacing  # fractional index per axis
        outside = np.any((t < 0) | (t > n - 1), axis=1)
        tc = np.clip(t, 0.0, n - 1)
        i0 = np.minimum(tc.astype(np.int64), n - 2)
        frac = tc - i0
        if g.dim == 1:
            a = i0[:, 0]
            w = frac[:, 0:1]
            out = (1 - w) * self.field[a] + w * self.field[a + 1]
        else:
            a, b = i0[:, 0], i0[:, 1]
            wa, wb = frac[:, 0:1], frac[:, 1:2]
            out = (
                (1 - wa) * (1 - wb) * self.field[a, b]
                + wa * (1 - wb) * self.field[a + 1, b]
                + (1 - wa) * wb * self.field[a, b + 1]
                + wa * wb * self.field[a + 1, b + 1]
            )
        if outside.any():
            nearest = np.rint(tc[outside]).astype(np.int64)
            if g.dim == 1:
                out[outside] = self.field[nearest[:, 0]]
            else:
                out[outside] = self.field[nearest[:, 0], nearest[:, 1]]
        return out


def _run_paths(
    path_ids: np.ndarray,
    interp: _ControlInterp,
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
) -> dict:
    grid = interp.grid
    dt = params.timestep
    n_steps = params.n_steps
    burn_idx = int(round(params.burn_in / dt))
    half_idx = n_steps // 2
    quarter_idx = n_steps // 4
    box = params.safety_factor * grid.radius

    P = path_ids.size
    streams = np.random.SeedSequence(params.seed).spawn(params.n_paths)
    gens = [np.random.Generator(np.random.PCG64(streams[i])) for i in path_ids]

    X = np.tile(np.asarray(params.x0, dtype=float), (P, 1))
    if X.shape[1] != grid.dim:
        raise ValueError("x0 dimension does not match the grid")
    alive = np.ones(P, dtype=bool)
    all_alive = True
    cost_sum = np.zeros(P)
    half_sum = np.zeros(P)
    adm_sum = np.zeros(P)
    adm_q1 = np.zeros(P)
    adm_q2 = np.zeros(P)
    scale = np.sqrt(2.0 * dt)

    # hoisted hot-loop closures; the generic module functions would spend the
    # whole budget on shape normalization at 1e6+ calls
    fval = potential.value_fn
    gs = model.gamma_star
    drift = model.drift if model.kind == "drift_power" else None
    one_d = grid.dim == 1
    if one_d:
        axis = interp.grid.axis_coords
        comp0 = interp.field[:, 0]

    k = 0
    while k < n_steps:
        b = min(_BLOCK, n_steps - k)
        dw = np.stack([g.standard_normal((b, grid.dim)) for g in gens]) * scale
        for j in range(b):
            step = k + j
            if one_d:
                xi = np.interp(X[:, 0], axis, comp0)[:, None]
                xin = np.abs(xi[:, 0])
            else:
                xi = interp(X)
                xin = np.sqrt(np.einsum("ij,ij->i", xi, xi))
            adm = xin**gs
            if drift is None:
                cost = fval(X) + adm / gs
            else:
                eta = xi - drift(X)
                en = np.sqrt(np.einsum("ij,ij->i", eta, eta))
                cost = fval(X) + en**gs / gs
            if all_alive:
                if step >= burn_idx:
                    cost_sum += cost
                if step >= half_idx:
                    half_sum += cost
                    adm_q2 += adm
                elif step >= quarter_idx:
                    adm_q1 += adm
                adm_sum += adm
                X += -xi * dt + dw[:, j]
                # written so that a NaN coordinate fails the box test too
                if not np.abs(X).max() <= box:
                    alive &= np.abs(X).max(axis=1) <= box
                    all_alive = bool(alive.all())
            else:
                live = alive
                if step >= burn_idx:
                    cost_sum[live] += cost[live]
                if step >= half_idx:
                    half_sum[live] += cost[live]
                    adm_q2[live] += adm[live]
                elif step >= quarter_idx:
                    adm_q1[live] += adm[live]
                adm_sum[live] += adm[live]
                X[live] = X[live] - xi[live] * dt + dw[live, j]
                escaped = live & ~(np.abs(X).max(axis=1) <= box)
                if escaped.any():
                    alive = alive & ~escaped
        k += b

    denom_main = (n_steps - burn_idx) * dt
    denom_half = (n_steps - half_idx) * dt
    denom_q1 = (half_idx - quarter_idx) * dt
    q1 = adm_q1 / max(denom_q1, dt)
    q2 = adm_q2 / denom_half
    ratio = np.where(q1 > 0, q2 / np.where(q1 > 0, q1, 1.0), 1.0)
    return {
        "averages": cost_sum * dt / denom_main,
        "half": half_sum * dt / denom_half,
        "adm": adm_sum * dt,
        "adm_ratio": ratio,
        "diverged": ~alive,
    }


def simulate_average(
    grid: Grid,
    control: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
    name: str = "control",
) -> ErgodicAverageReport:
    """Ergodic average of the running cost under a Markov feedback control.

    The control field is extended to the boundary layer by its nearest
    interior value before interpolation.  Paths exiting the safety box are
    flagged, frozen and excluded from the summary statistics.
    """
    interp = _ControlInterp(grid, control)
    chunks = _split_paths(params.n_paths, params.workers)
    if len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=params.workers) as pool:
            parts = list(
                pool.map(
                    lambda ids: _run_paths(ids, interp, model, potential, params),
                    chunks,
                )
            )
    else:
        parts = [_run_paths(chunks[0], interp, model, potential, params)]

    def collect(key: str) -> np.ndarray:
        return np.concatenate([p[key] for p in parts])

    return ErgodicAverageReport(
        name=name,
        path_averages=collect("averages"),
        half_averages=collect("half"),
        admissibility=collect("adm"),
        admissibility_ratio=collect("adm_ratio"),
        diverged=collect("diverged"),
        params=params,
    )


def _split_paths(n_paths: int, workers: int) -> list[np.ndarray]:
    ids = np.arange(n_paths)
    if workers <= 1 or n_paths == 1:
        return [ids]
    return [chunk for chunk in np.array_split(ids, min(workers, n_paths))]


@dataclass
class ComparisonReport:
    reports: dict = field(default_factory=dict)  # name -> ErgodicAverageReport
    order: list = field(default_factory=list)  # names ranked by mean, NaN last

    def pathwise_dominates(self, reference: str, slack_sigmas: float = 5.0) -> bool:
        """True when the reference's half-window average beats every competitor
        path by path, within slack_sigmas standard errors (common noise)."""
        ref = self.reports[reference]
        for name, rep in self.reports.items():
            if name == reference:
                continue
            ok = ~(ref.diverged | rep.diverged)
            if not ok.any():
                continue
            slack = slack_sigmas * rep.standard_error
            if np.any(ref.half_averages[ok] > rep.half_averages[ok] + slack):
                return False
        return True


def compare_controls(
    grid: Grid,
    controls: Sequence[tuple[str, np.ndarray]],
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
) -> ComparisonReport:
    """Simulate several controls under common random numbers and rank them."""
    if len(controls) < 1:
        raise ValueError("need at least one control")
    reports = {}
    for cname, ctrl in controls:
        reports[cname] = simulate_average(grid, ctrl, model, potential, params, cname)
    order = sorted(
        reports,
        key=lambda nm: (np.isnan(reports[nm].mean), reports[nm].mean),
    )
    return ComparisonReport(reports=reports, order=order)
