"""Hamiltonians, their convex conjugates, optimal control maps, running cost.

One closed-form family is supported: b(x).p + |p|^g / g with g > 1 and a
bounded drift b; the pure power |p|^g / g is its member with b = 0.  Its
exact conjugate |xi - b(x)|^g* / g* keeps the duality-gap checks sharp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Grid

CONJUGATE_TOL = 1e-14
EPS_GRAD = 1e-12  # optimal_control treats |p| <= EPS_GRAD as zero


@dataclass(frozen=True)
class HamiltonianModel:
    gamma: float
    gamma_star: float
    drift: Optional[Callable[[np.ndarray], np.ndarray]] = None  # None: b = 0

    def drift_at(self, x: np.ndarray) -> np.ndarray:
        """b(x), shape (n, d); for b = 0 a read-only view of zeros that
        allocates nothing, so the pure power costs no (n, d) array for it."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.drift is None:
            return np.broadcast_to(0.0, x.shape)
        b = np.asarray(self.drift(x), dtype=float)
        if b.shape != x.shape:
            raise ValueError(f"drift returned shape {b.shape}, expected {x.shape}")
        return b


def pure_power(gamma: float) -> HamiltonianModel:
    """Hamiltonian |p|^gamma / gamma."""
    gamma = float(gamma)
    if not gamma > 1.0:
        raise ValueError("gamma must exceed 1")
    gstar = gamma / (gamma - 1.0)
    if abs(1.0 / gamma + 1.0 / gstar - 1.0) > CONJUGATE_TOL:
        raise ValueError("conjugate exponent identity failed")
    return HamiltonianModel(gamma, gstar)


def drift_power(gamma: float, drift: Callable[[np.ndarray], np.ndarray]) -> HamiltonianModel:
    """Hamiltonian b(x).p + |p|^gamma / gamma with a bounded drift b."""
    base = pure_power(gamma)
    return HamiltonianModel(base.gamma, base.gamma_star, drift)


def _norm(v: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.atleast_2d(v), axis=-1)


def hamiltonian_value(model: HamiltonianModel, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """H(x, p) = b(x).p + |p|^g / g, one value per point (shape (n,))."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    return _norm(p) ** model.gamma / model.gamma + np.sum(model.drift_at(x) * p, axis=-1)


def lagrangian_value(model: HamiltonianModel, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Convex conjugate L(x, xi) = |xi - b(x)|^g* / g*, shape (n,)."""
    eta = np.atleast_2d(np.asarray(xi, dtype=float)) - model.drift_at(x)
    eta *= eta  # squared in place and summed as np.linalg.norm does: no second (n, d) array
    return np.sqrt(eta.sum(axis=-1)) ** model.gamma_star / model.gamma_star


def optimal_control(model: HamiltonianModel, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient of H in p: the maximizing control |p|^(g-2) p + b(x), shape (n, d).

    The power term is continuous at p = 0 for gamma > 1 and is set to zero
    there; |p| below EPS_GRAD is treated as zero to avoid overflow in the
    singular exponent when gamma < 2.
    """
    p = np.atleast_2d(np.asarray(p, dtype=float))
    mag = _norm(p)
    safe = np.where(mag > EPS_GRAD, mag, 1.0)
    factor = np.where(mag > EPS_GRAD, safe ** (model.gamma - 2.0), 0.0)
    out = factor[..., None] * p
    out += model.drift_at(x)
    return out


def duality_gap(
    model: HamiltonianModel, x: np.ndarray, xi: np.ndarray, p: np.ndarray
) -> np.ndarray:
    """H(x,p) + L(x,xi) - xi.p, nonnegative with equality at xi = D_p H; shape (n,)."""
    xi2 = np.atleast_2d(np.asarray(xi, dtype=float))
    p2 = np.atleast_2d(np.asarray(p, dtype=float))
    return (
        hamiltonian_value(model, x, p2)
        + lagrangian_value(model, x, xi2)
        - np.sum(xi2 * p2, axis=-1)
    )


# ----------------------------------------------------------------------
# Potentials


@dataclass(frozen=True)
class PotentialSpec:
    """Running-cost potential f with gradient, evaluable at arbitrary points.

    The closed-form families below satisfy f >= 1; a spec built from other
    data, such as a potential sampled on a grid, is taken as-is (scaled
    instances legitimately dip below 1).
    """

    family: str
    value_fn: Callable[[np.ndarray], np.ndarray]
    grad_fn: Callable[[np.ndarray], np.ndarray]

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.value_fn(x), dtype=float)

    def gradients(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.asarray(self.grad_fn(x), dtype=float)

    def on_grid(self, grid: Grid) -> np.ndarray:
        return self.values(grid.coords)

    def grad_on_grid(self, grid: Grid) -> np.ndarray:
        return self.gradients(grid.coords)


def _power_grad(x: np.ndarray, exponent: float, coeff: float) -> np.ndarray:
    # gradient of coeff*|x|^exponent, continuous at 0 for exponent > 1
    r = _norm(x)
    safe = np.where(r > 1e-300, r, 1.0)
    fac = np.where(r > 1e-300, coeff * exponent * safe ** (exponent - 2.0), 0.0)
    return fac[..., None] * x


def quadratic_power_potential(gamma: float) -> PotentialSpec:
    """f = 1 + |x|^gamma / gamma, the family with value function |x|^2 / 2."""
    gamma = float(gamma)
    return PotentialSpec(
        "quadratic_power",
        lambda x: 1.0 + _norm(x) ** gamma / gamma,
        lambda x: _power_grad(x, gamma, 1.0 / gamma),
    )


def power_beta_potential(beta: float) -> PotentialSpec:
    """f = 1 + |x|^beta."""
    beta = float(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    return PotentialSpec(
        "power_beta",
        lambda x: 1.0 + _norm(x) ** beta,
        lambda x: _power_grad(x, beta, 1.0),
    )


def constant_potential(value: float) -> PotentialSpec:
    value = float(value)
    if value < 1.0:
        raise ValueError("constant potential must be >= 1")
    return PotentialSpec(
        "constant",
        lambda x: np.full(x.shape[0], value),
        lambda x: np.zeros_like(x),
    )


def _quartic_sine_values(x: np.ndarray) -> np.ndarray:
    r = _norm(x)
    return r**2 + np.sin(r**4) + 2.0


def _quartic_sine_grad(x: np.ndarray) -> np.ndarray:
    r = _norm(x)
    fac = 2.0 + 4.0 * r**2 * np.cos(r**4)
    return fac[..., None] * x


def _exp_abs_values(x: np.ndarray) -> np.ndarray:
    return 1.0 + np.exp(_norm(x))


def _exp_abs_grad(x: np.ndarray) -> np.ndarray:
    r = _norm(x)
    safe = np.where(r > 1e-300, r, 1.0)
    fac = np.where(r > 1e-300, np.exp(r) / safe, 0.0)
    return fac[..., None] * x


_NAMED = {
    "quartic_sine": (_quartic_sine_values, _quartic_sine_grad),
    "exp_abs": (_exp_abs_values, _exp_abs_grad),
}


def named_potential(name: str) -> PotentialSpec:
    """Built-in audit potentials: quartic_sine (|x|^2 + sin|x|^4 + 2), exp_abs (1 + e^|x|)."""
    if name not in _NAMED:
        raise ValueError(f"unknown potential {name!r}; options: {sorted(_NAMED)}")
    val, grad = _NAMED[name]
    return PotentialSpec("named", val, grad)


def running_cost(
    model: HamiltonianModel,
    potential: PotentialSpec,
    x: np.ndarray,
    xi: np.ndarray,
) -> np.ndarray:
    """F(x, xi) = f(x) + L(x, xi), shape (n,)."""
    return potential.values(x) + lagrangian_value(model, x, xi)
