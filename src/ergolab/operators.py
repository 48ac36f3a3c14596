"""Assembly of the discrete drift-diffusion operator -Lap + xi . D.

One assembly routine serves the eigensolver, the stationary-density solve
and the measure program; sharing it is what makes the adjoint identities
between those modules hold to solver precision rather than to O(h).

Closures at the one-node boundary layer:

* ``state_constraint``: no boundary value is referenced.  Diffusion legs
  pointing at the wall are dropped (inward leg only) and advection at a
  wall-adjacent node differences inward regardless of the drift sign.  Every
  row then sums to zero, so the operator is a conservative generator and its
  transpose has a probability null vector.  Off-diagonals stay nonpositive
  as long as |drift| < 1/h, which the solvers check.

* ``dirichlet``: full centered/upwind stencils; legs hitting the boundary
  multiply a pinned value M and are returned as a right-hand-side
  contribution.

``factor_bordered`` factors the one system [[A, 1], [e_origin^T, 0]] that
policy evaluation solves for (u, lambda) and whose transpose gives the
stationary density: ``A 1 = 0`` forces the border multiplier there to 0.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .grid import Grid

STATE_CONSTRAINT = "state_constraint"
DIRICHLET_BIG = "dirichlet_big"


def assemble_generator(
    grid: Grid,
    control: np.ndarray,
    boundary_mode: str = STATE_CONSTRAINT,
    dirichlet_value: float = 0.0,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Build the interior operator matrix for -Lap + control . D (upwind).

    Args:
        control: drift per node, shape (N, d) or (N_interior, d).
        boundary_mode: one of ``state_constraint`` or ``dirichlet_big``.
        dirichlet_value: pinned boundary value M for ``dirichlet_big``.

    Returns:
        (A, rhs) with A of shape (N_int, N_int) acting on interior values and
        rhs the boundary contribution to move to the right-hand side (zero in
        state-constraint mode).
    """
    if boundary_mode not in (STATE_CONSTRAINT, DIRICHLET_BIG):
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    control = np.asarray(control, dtype=float)
    if control.shape == (grid.num_nodes, grid.dim):
        w_int = control[grid.interior_ids]
    elif control.shape == (grid.num_interior, grid.dim):
        w_int = control
    else:
        raise ValueError(f"control shape {control.shape} not understood")

    nint = grid.num_interior
    h = grid.spacing
    inv_h2 = 1.0 / h**2
    ids = np.arange(nint)
    dirichlet = boundary_mode == DIRICHLET_BIG

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    diag = np.zeros(nint)
    rhs = np.zeros(nint)

    # one leg per (axis, side): diffusion always, advection on the upwind side
    for a in range(grid.dim):
        w = w_int[:, a]
        speed = np.abs(w) / h
        upwind_side = np.where(w > 0, -1, 1)  # s = -1 means backward difference
        neighbors = {s: grid.interior_neighbor(a, s) for s in (-1, 1)}
        for s in (-1, 1):
            nb = neighbors[s]
            inn = nb >= 0
            out = ~inn
            coef = inv_h2 + np.where(upwind_side == s, speed, 0.0)
            rows.append(ids[inn])
            cols.append(nb[inn])
            vals.append(-coef[inn])
            diag[inn] += coef[inn]
            if dirichlet:
                diag[out] += coef[out]
                rhs[out] += coef[out] * dirichlet_value
            else:
                # the diffusion leg is dropped; the advection leg becomes the
                # inward difference on the opposite side, sign-reversed
                wall = out & (upwind_side == s) & (w != 0)
                rows.append(ids[wall])
                cols.append(neighbors[-s][wall])
                vals.append(speed[wall])
                diag[wall] -= speed[wall]

    rows.append(ids)
    cols.append(ids)
    vals.append(diag)
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nint, nint),
    )
    return A.tocsr(), rhs


def factor_bordered(
    grid: Grid, A: sparse.spmatrix
) -> tuple[sparse.csc_matrix, SuperLU]:
    """The bordered system [[A, 1], [e_origin^T, 0]] and its SuperLU factor
    (COLAMD ordering); raises RuntimeError when the factor is singular."""
    nint = grid.num_interior
    origin = grid.interior_index[grid.origin_id]
    norm_row = sparse.coo_matrix(([1.0], ([0], [origin])), shape=(1, nint))
    system = sparse.bmat([[A, np.ones((nint, 1))], [norm_row, None]], format="csc")
    return system, splu(system, permc_spec="COLAMD")
