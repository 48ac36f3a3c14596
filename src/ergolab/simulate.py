"""Monte Carlo verification of long-run average cost under Markov controls.

Paths follow dX = -xi(X) dt + sqrt(2) dW by Euler-Maruyama, mirrored at the
grid's wall: the reflected diffusion the grid routes solve on the box.  Each
path owns an RNG stream spawned from (seed, path index), increments come in
fixed blocks, and every reduction is per path, so path p's statistics are
bitwise the same among any number of paths.  Path p draws the same increments
under every control, so `compare_controls` ranks its controls on common
random numbers.

The step loop holds only the sequential part: it records each step's state
and control in block buffers, updates the state and mirrors it.  Once per
block the steps are priced with `hamiltonian.running_cost`, the F of the
measure LP's objective and of the density's average cost, and each statistic
adds its window's rows in step order, with the bits of a step-by-step sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import Grid, bilinear, check_vector_field, fill_boundary_nearest
from .hamiltonian import HamiltonianModel, PotentialSpec, running_cost

_BLOCK = 4096
PATHWISE_SIGMAS = 5.0  # slack of pathwise_dominates, in competitor standard errors


@dataclass(frozen=True)
class SimParams:
    horizon: float
    timestep: float
    n_paths: int
    seed: int
    x0: tuple = (0.0,)
    burn_in: float = 0.0

    def __post_init__(self):
        if not self.timestep > 0:
            raise ValueError("timestep must be positive")
        if self.horizon < 100 * self.timestep:
            raise ValueError("horizon must be at least 100 timesteps")
        if not np.isfinite(self.horizon / self.timestep):
            raise ValueError("horizon / timestep overflows")
        n = self.n_paths
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_paths must be an integer >= 1, got {n!r}")
        if not 0 <= self.burn_in < self.horizon:
            raise ValueError("burn_in must lie in [0, horizon)")
        if round(self.burn_in / self.timestep) >= self.n_steps:
            raise ValueError("burn_in must leave at least one step to average")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.timestep))

    def path_steps(self, controls: int = 1) -> int:
        """Monte Carlo work of a run of ``controls`` controls: controls x paths x steps."""
        return controls * self.n_paths * self.n_steps


@dataclass
class ErgodicAverageReport:
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


def _add_steps(total: np.ndarray, values: np.ndarray, first: int, lo: int, hi: int) -> np.ndarray:
    """``total`` plus those rows of ``values`` (steps first, first + 1, ...) that
    fall in steps [lo, hi), added one at a time in step order."""
    rows = values[max(lo - first, 0) : max(hi - first, 0)]
    return np.add.accumulate(np.concatenate([total[None], rows]))[-1]


def _run_paths(
    grid: Grid,
    field: np.ndarray,
    model: HamiltonianModel,
    potential: PotentialSpec,
    params: SimParams,
) -> dict:
    """Integrate the paths under the boundary-filled control ``field``; returns
    each per-path statistic keyed by its report field."""
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
    xs, xis = np.empty((2, min(_BLOCK, n_steps), P, dim))  # each step's X and xi(X)

    for k in range(0, n_steps, _BLOCK):
        b = min(_BLOCK, n_steps - k)
        dw = np.stack([g.standard_normal((b, dim)) for g in gens], axis=1) * scale
        for j in range(b):
            xs[j] = X
            xis[j] = (np.interp(X, grid.axis_coords, field[:, 0]) if dim == 1
                      else bilinear(grid, field, X))
            X += -xis[j] * dt + dw[j]
            # mirror what passed the wall; written so that a NaN row, which
            # stays NaN, does not hide another row from the test
            if not np.abs(X).max() <= wall:
                mirrored = np.clip(np.copysign(2 * wall, X) - X, -wall, wall)
                np.copyto(X, mirrored, where=np.abs(X) > wall)
        x, xi = xs[:b].reshape(-1, dim), xis[:b].reshape(-1, dim)
        cost = running_cost(model, potential, x, xi).reshape(b, P)
        adm = (np.linalg.norm(xi, axis=1) ** model.gamma_star).reshape(b, P)
        cost_sum = _add_steps(cost_sum, cost, k, burn_idx, n_steps)
        half_sum = _add_steps(half_sum, cost, k, half_idx, n_steps)
        adm_sum = _add_steps(adm_sum, adm, k, 0, n_steps)
        adm_q1 = _add_steps(adm_q1, adm, k, quarter_idx, half_idx)
        adm_q2 = _add_steps(adm_q2, adm, k, half_idx, n_steps)

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
) -> ErgodicAverageReport:
    """Ergodic average of the running cost under a Markov feedback control.

    The control field is extended to the boundary layer by its nearest
    interior value before interpolation.  Paths reflect at the grid's wall;
    a path whose state turns non-finite is flagged and excluded from the
    summary statistics.
    """
    field = fill_boundary_nearest(check_vector_field(control, grid), grid)
    stats = _run_paths(grid, field, model, potential, params)
    return ErgodicAverageReport(params=params, **stats)


@dataclass
class ComparisonReport:
    reports: dict = field(default_factory=dict)  # name -> ErgodicAverageReport

    @property
    def order(self) -> list:
        """The report names ranked by mean, NaN last."""
        means = {name: rep.mean for name, rep in self.reports.items()}
        return sorted(means, key=lambda name: (np.isnan(means[name]), means[name]))

    def pathwise_dominates(self, reference: str) -> bool:
        """True when the reference's half-window average beats every competitor
        path by path, within ``PATHWISE_SIGMAS`` standard errors (common noise);
        False when every path of the reference diverged, which compares nothing."""
        ref = self.reports[reference]
        if ref.diverged.all():
            return False
        for name, rep in self.reports.items():
            if name == reference:
                continue
            ok = ~(ref.diverged | rep.diverged)  # an empty pair compares nothing
            slack = PATHWISE_SIGMAS * rep.standard_error
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
    return ComparisonReport(
        {name: simulate_average(grid, ctrl, model, potential, params) for name, ctrl in controls}
    )
