"""Monte Carlo verification of long-run average cost under Markov controls.

Paths follow dX = -xi(X) dt + sqrt(2) dW by Euler-Maruyama, mirrored at the
grid's wall: the reflected diffusion the grid routes solve on the box.  Each
path owns an RNG stream spawned from (seed, path index), increments come in
fixed blocks, and reductions run in path order, so reports are bitwise
reproducible for any chunking.  Path p draws the same increments under every
control, so `compare_controls` ranks its controls on common random numbers.
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
    workers: int = 1  # path-id chunks, run one after another

    def __post_init__(self):
        if not self.timestep > 0:
            raise ValueError("timestep must be positive")
        if self.horizon < 100 * self.timestep:
            raise ValueError("horizon must be at least 100 timesteps")
        for key in ("n_paths", "workers"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{key} must be an integer >= 1, got {value!r}")
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
    diverged: np.ndarray  # per-path flags: the state turned non-finite
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


def _bilinear(grid: Grid, field: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear lookup of a 2d control field at the rows of ``x`` (inside the wall)."""
    n = grid.nodes_per_axis
    t = (x + grid.half_width * grid.spacing) / grid.spacing  # fractional index
    tc = np.clip(t, 0.0, n - 1)  # a NaN row stays NaN
    # fmax sends NaN to node 0 before the cast, so a non-finite row reads no
    # wrapped index and comes back NaN through its weights
    i0 = np.minimum(np.fmax(tc, 0.0).astype(np.int64), n - 2)
    frac = tc - i0
    idx = i0[:, 0] * n + i0[:, 1]
    wa, wb = frac[:, 0:1], frac[:, 1:2]
    return (
        (1 - wa) * (1 - wb) * field.take(idx, axis=0)
        + wa * (1 - wb) * field.take(idx + n, axis=0)
        + (1 - wa) * wb * field.take(idx + 1, axis=0)
        + wa * wb * field.take(idx + n + 1, axis=0)
    )


def _run_paths(
    path_ids: np.ndarray,
    grid: Grid,
    field: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
) -> dict:
    """Integrate paths ``path_ids`` under the boundary-filled control ``field``;
    returns each per-path statistic keyed by its report field."""
    dt = params.timestep
    n_steps = params.n_steps
    burn_idx = int(round(params.burn_in / dt))
    half_idx = n_steps // 2
    quarter_idx = n_steps // 4
    wall = grid.wall

    P, dim = path_ids.size, grid.dim
    streams = np.random.SeedSequence(params.seed).spawn(params.n_paths)
    gens = [np.random.Generator(np.random.PCG64(streams[i])) for i in path_ids]

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
                xi = _bilinear(grid, field, X)
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
    interior value before interpolation.  Paths reflect at the grid's wall;
    a path whose state turns non-finite is flagged and excluded from the
    summary statistics.  The path ids are split into ``params.workers``
    chunks run one after another.
    """
    field = fill_boundary_nearest(check_vector_field(control, grid), grid)
    chunks = np.array_split(np.arange(params.n_paths), min(params.workers, params.n_paths))
    parts = [_run_paths(ids, grid, field, model, potential, params) for ids in chunks]
    stats = {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
    return ErgodicAverageReport(name=name, params=params, **stats)


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
    if not controls or len({name for name, _ in controls}) < len(controls):
        raise ValueError("need at least one control, and distinct names")
    reports = {
        name: simulate_average(grid, ctrl, model, potential, params, name)
        for name, ctrl in controls
    }
    order = sorted(
        reports,
        key=lambda nm: (np.isnan(reports[nm].mean), reports[nm].mean),
    )
    return ComparisonReport(reports=reports, order=order)
