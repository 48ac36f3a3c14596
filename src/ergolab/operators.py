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
  as long as |drift| < 1/h, which the solvers check.  The coefficients are
  snapped to multiples of one power of two, so the row sums are exactly 0 in
  floating point too, for any order of summation.

* ``dirichlet``: full centered/upwind stencils; legs hitting the boundary
  multiply the pinned value ``DIRICHLET_VALUE`` (M = 1e6) and are returned
  as a right-hand-side contribution.

``BorderedSolver`` solves the one system [[A, 1], [e_origin^T, 0]] that
policy evaluation solves for (u, lambda) and whose transpose gives the
stationary density: ``A 1 = 0`` forces the border multiplier there to 0.
It holds at most one SuperLU factor and serves a new generator A by
iterative refinement with that factor while the refinement converges fast;
it factors afresh only when it stalls.  Near the end of policy iteration the
control moves little, so one factor serves several evaluations and then the
density's transposed solve.
"""

from __future__ import annotations

import ctypes

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from .grid import Grid

STATE_CONSTRAINT = "state_constraint"
DIRICHLET_BIG = "dirichlet_big"
DIRICHLET_VALUE = 1e6  # the pinned boundary value M of ``dirichlet_big``


def assemble_generator(
    grid: Grid,
    control: np.ndarray,
    boundary_mode: str = STATE_CONSTRAINT,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Build the interior operator matrix for -Lap + control . D (upwind).

    Args:
        control: drift per node, shape (N, d) or (N_interior, d).
        boundary_mode: one of ``state_constraint`` or ``dirichlet_big``.

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
    # A row's off-diagonals sum in magnitude to at most `bound`, and so does
    # its diagonal.  With q = 2^(ceil(log2 B) - 52) for B = 2 * (2 * bound),
    # every multiple of q up to B in magnitude is a double, so once the
    # coefficients are multiples of q every partial sum of a row is exact and
    # a conservative row sums to exactly 0.  Snapping moves a coefficient by
    # at most q / 2, a few ulps of the diffusion coefficient.
    inv_h2 = 1.0 / h**2
    bound = 2 * grid.dim * inv_h2 + sum(
        max(w_int[:, a].max(), -w_int[:, a].min()) for a in range(grid.dim)
    ) / h
    q = 2.0 ** (np.ceil(np.log2(4.0 * bound)) - 52)
    inv_h2 = float(np.rint(inv_h2 / q) * q)
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
        _snap(speed, q)
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
                rhs[out] += coef[out] * DIRICHLET_VALUE
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


def _snap(values: np.ndarray, q: float) -> None:
    """Round ``values`` in place to the nearest multiples of the power of two
    ``q``; in place, because the held factor may be alive during assembly."""
    values /= q
    np.rint(values, out=values)
    values *= q


class BorderedSolver:
    """Solver for the bordered system of one generator A at a time.

    ``solve`` returns a solve within its tolerance or raises.  It first
    refines with the factor it holds from an earlier call, while each step
    cuts the residual at least ``_CUT``-fold; a held factor that stalls above
    the tolerance is dropped before the system is factored afresh (COLAMD
    ordering), so two factors are never alive at once.  A fresh factor
    refines by the same rule until it meets the tolerance, and raises when it
    stalls short of it.  The counters feed the solve and density stats of a
    run.
    """

    _CUT = 10.0  # a held factor is kept while every step gains a digit

    def __init__(self):
        self._lu: SuperLU | None = None
        self.reused = False  # the last solve was served by a held factor
        self.residual = float("nan")  # relative residual of the last solve
        self.factorizations = 0
        self.refinement_solves = 0
        self.unknowns = 0
        self.operator_nnz = 0

    def solve(
        self, grid: Grid, A: sparse.spmatrix, b: np.ndarray, tol: float, trans: str = "N"
    ) -> np.ndarray:
        """Solution of the bordered system (its transpose for ``trans="T"``)
        with right-hand side ``b`` whose relative residual
        ``|S x - b|_inf / (1 + |b|_inf)`` is at most ``tol``; the residual is
        left in ``residual``.

        Raises RuntimeError when a fresh factor is singular or its refined
        residual is not at most ``tol`` (a NaN residual included).
        """
        nint = grid.num_interior
        origin = grid.interior_index[grid.origin_id]

        def product(x: np.ndarray) -> np.ndarray:  # the system (or its transpose) times x
            if trans == "N":
                return np.append(A @ x[:nint] + x[nint], x[origin])
            top = A.T @ x[:nint]
            top[origin] += x[nint]
            return np.append(top, x[:nint].sum())

        scale = 1.0 + np.abs(b).max()
        self.unknowns, self.operator_nnz = nint + 1, A.nnz
        if self._lu is not None:
            x, self.residual = self._refine(product, b, scale, trans, 0.0)
            self.reused = bool(self.residual <= tol)
            if self.reused:
                return x
            self.drop()  # before splu allocates: never two factors at once
        # the bordered matrix is built only to be factored, so a solve served
        # by the held factor adds nothing to the peak memory of the factor
        norm_row = sparse.coo_matrix(([1.0], ([0], [origin])), shape=(1, nint))
        system = sparse.bmat([[A, np.ones((nint, 1))], [norm_row, None]], format="csc")
        self._lu = splu(system, permc_spec="COLAMD")
        del system
        self.factorizations += 1
        self.reused = False
        # on fine 2d grids the direct solve alone can miss the tolerance by a
        # small factor (2.3e-10 at 160,801 nodes); one refinement step recovers it
        x, self.residual = self._refine(product, b, scale, trans, tol)
        if not self.residual <= tol:
            raise RuntimeError(f"residual {self.residual:.3e} exceeds tolerance {tol:.1e}")
        return x

    def _refine(
        self, product, b: np.ndarray, scale: float, trans: str, stop: float
    ) -> tuple[np.ndarray, float]:
        """Iterative refinement with the held factor until the residual is at
        most ``stop`` or a step gains less than ``_CUT``-fold; returns the
        best iterate and its residual."""
        x = self._lu.solve(b, trans=trans)
        d = b - product(x)
        resid = np.abs(d).max() / scale
        while resid > stop:
            x_next = x + self._lu.solve(d, trans=trans)
            self.refinement_solves += 1
            d_next = b - product(x_next)
            resid_next = np.abs(d_next).max() / scale
            gained = resid_next * self._CUT <= resid
            if resid_next < resid:
                x, d, resid = x_next, d_next, resid_next
            if not gained:
                break
        return x, resid

    def drop(self) -> None:
        """Release the held factor; the next solve factors afresh."""
        self._lu = None
        _return_freed_memory()

    def stats(self) -> dict:
        """Sizes and work counts.  ``lu_fill`` is the entries SuperLU stores
        for the held factor's L and U, supernode padding included (0 when no
        factor is held); building ``lu.L`` and ``lu.U`` to count them exactly
        would copy the factor and add 21 MiB to the 2d solve's peak RSS."""
        return {
            "unknowns": self.unknowns,
            "operator_nnz": self.operator_nnz,
            "lu_fill": 0 if self._lu is None else self._lu.nnz,
            "factorizations": self.factorizations,
            "refinement_solves": self.refinement_solves,
        }


def _return_freed_memory() -> None:
    """Hand the free pages of the C heap back to the system (glibc only).

    A held factor lives while the next system is assembled above it, so the
    factor that replaces it cannot always reuse its pages: on the 40,401-node
    2d solve, peak RSS read 162 instead of 147 MiB on about half of the
    interpreter's hash seeds, and 147-148 MiB on all with this call.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):  # no glibc allocator
        pass
