"""Assembly of the discrete drift-diffusion operator -Lap + xi . D.

``assemble_generator`` is the only code that writes a row of the scheme: it
alone chooses each advection leg's upwind side and replaces a leg that
points at the wall.  Its rows at (node, drift) pairs serve the eigensolver
and the stationary density (every interior node once), the measure program
(one column per node and atom) and the excess-cost identity (one reduced
cost per pair); sharing them is what makes the adjoint identities between
those modules hold to solver precision rather than to O(h).

Closures at the one-node boundary layer:

* ``state_constraint``: no boundary value is referenced.  Diffusion legs
  pointing at the wall are dropped (inward leg only) and advection at a
  wall-adjacent node differences inward regardless of the drift sign.  Every
  row then sums to zero, so the operator is a conservative generator and its
  transpose has a probability null vector.  Off-diagonals stay nonpositive
  as long as |drift| < 1/h at the walls; the assembly warns when a wall
  row's inward coefficient is not negative.  Each row's coefficients are
  snapped to multiples of a power of two fitted to that row, so the row sums
  are exactly 0 in floating point too, for any order of summation.

* ``dirichlet``: full centered/upwind stencils; legs hitting the boundary
  multiply the pinned value ``DIRICHLET_VALUE`` (M = 1e6) and are returned
  as a right-hand-side contribution.

``BorderedSolver`` solves the one system [[A, 1], [e_origin^T, 0]] that
policy evaluation solves for (u, lambda) and whose transpose gives the
stationary density: ``A 1 = 0`` forces the border multiplier there to 0.
It factors the system in the lattice's nested-dissection order
(``Grid.dissection_order``) with the border unknown last, which on the
40,401-node 2d grid stores 30% fewer LU entries than SuperLU's COLAMD
ordering.  It holds at most one factor and serves a new generator A by
iterative refinement with that factor while the refinement converges fast;
it factors afresh only when it stalls.  Near the end of policy iteration the
control moves little, so one factor serves several evaluations and then the
density's transposed solve.  A caller that holds a nearby solution, such as
the previous policy evaluation, hands it in as the held factor's first
iterate.
"""

from __future__ import annotations

import ctypes
import warnings

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
    nodes: np.ndarray | None = None,
) -> tuple[sparse.csr_matrix, np.ndarray]:
    """Rows of the scheme -Lap + xi . D (upwind) at (node, drift) pairs.

    Row k is interior node ``nodes[k]`` (an interior-local id) under the
    drift ``control[k]``, so one call writes the policy-evaluation matrix
    (every interior node once, the default), the measure program's columns
    (every node under every atom) or any other set of pairs.

    Args:
        control: drift per row, shape (len(nodes), d); with the default
            nodes also (N, d), read at the interior nodes.
        boundary_mode: one of ``state_constraint`` or ``dirichlet_big``.
        nodes: interior-local ids, by default ``range(N_int)``.

    Returns:
        (A, rhs) with A of shape (len(nodes), N_int) acting on interior values
        and rhs the boundary contribution to move to the right-hand side (zero
        in state-constraint mode).

    Warns when the inward coefficient of a state-constrained wall row is not
    negative, that is when an outward drift reached 1/h there: the row is
    then no M-matrix row.
    """
    if boundary_mode not in (STATE_CONSTRAINT, DIRICHLET_BIG):
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    control = np.asarray(control, dtype=float)
    if nodes is None:
        nodes = np.arange(grid.num_interior)
        if control.shape == (grid.num_nodes, grid.dim):
            control = control[grid.interior_ids]
    if control.shape != (len(nodes), grid.dim):
        raise ValueError(f"control shape {control.shape} not understood")

    d, h = grid.dim, grid.spacing
    # A row's off-diagonals sum in magnitude to at most its `bound`, and so
    # does its diagonal.  With q = 2^(ceil(log2 B) - 52) for B = 2 * (2 *
    # bound), every multiple of q up to B in magnitude is a double, so once
    # the row's coefficients are multiples of q every partial sum of the row
    # is exact and a conservative row sums to exactly 0.  Snapping moves a
    # coefficient by at most q / 2, a few ulps of the diffusion coefficient.
    inv_h2 = 1.0 / h**2
    bound = 2 * d * inv_h2 + np.abs(control).sum(axis=1) / h
    q = 2.0 ** (np.ceil(np.log2(4.0 * bound)) - 52)
    inv_h2 = np.rint(inv_h2 / q) * q
    speed = np.rint(np.abs(control) / h / q[:, None]) * q[:, None]

    # slot (a, -1) is column a, the diagonal column d and slot (a, +1) column
    # 2d - a, which orders each row's columns by interior-local id; a slot
    # whose neighbor is a boundary node holds -1 and is left out
    cols = np.empty((len(nodes), 2 * d + 1), dtype=np.int32)
    vals = np.zeros(cols.shape)
    cols[:, d] = nodes
    rhs = np.zeros(len(nodes))
    dirichlet = boundary_mode == DIRICHLET_BIG
    monotone = True
    # one leg per (axis, side): diffusion always, advection on the upwind side
    for a in range(d):
        w = control[:, a]
        upwind_side = np.where(w > 0, -1, 1)  # s = -1 means backward difference
        neighbors = {s: grid.interior_neighbor(a, s)[nodes] for s in (-1, 1)}
        for s in (-1, 1):
            slot, inward = (a, 2 * d - a) if s < 0 else (2 * d - a, a)
            out = neighbors[s] < 0
            coef = inv_h2 + np.where(upwind_side == s, speed[:, a], 0.0)
            cols[:, slot] = neighbors[s]
            vals[:, slot] -= coef
            if dirichlet:
                rhs[out] += coef[out] * DIRICHLET_VALUE
                continue
            # the diffusion leg is dropped; the advection leg becomes the
            # inward difference on the opposite side, sign-reversed, and the
            # inward coefficient becomes -1/h^2 + |w|/h
            wall = out & (upwind_side == s) & (neighbors[-s] >= 0)
            vals[wall, inward] += speed[wall, a]
            monotone &= bool((speed[wall, a] < inv_h2[wall]).all())
    if not monotone:
        warnings.warn(
            "outward drift at a wall node reached 1/h; the inward closure "
            "loses monotonicity on this grid",
            stacklevel=2,
        )
    present = cols >= 0
    if not dirichlet:
        vals[~present] = 0.0  # the diffusion legs into the wall
    # the diagonal balances the row's legs, those to a pinned wall included
    # (their value is in rhs), and is exact since every partial sum is
    vals[:, d] = -vals.sum(axis=1)
    indptr = np.zeros(len(nodes) + 1, dtype=np.int32)
    np.cumsum(present.sum(axis=1), out=indptr[1:])
    A = sparse.csr_matrix(
        (vals[present], cols[present], indptr), shape=(len(nodes), grid.num_interior)
    )
    return A, rhs


class BorderedSolver:
    """Solver for the bordered system of one generator A at a time.

    ``solve`` returns a solve within its tolerance or raises.  It first
    refines with the factor it holds from an earlier call, while each step
    cuts the residual at least ``_CUT``-fold; a held factor that stalls above
    the tolerance is dropped before the system is factored afresh, so two
    factors are never alive at once.  A fresh factor takes the system
    symmetrically permuted into the grid's nested-dissection order, border
    unknown last, with SuperLU's partial pivoting and no column ordering of
    its own, and refines from zero by the same rule until it meets the
    tolerance; it raises when it stalls short of it.  The counters feed the
    solve and density stats of a run.
    """

    _CUT = 10.0  # a held factor is kept while every step gains a digit

    def __init__(self):
        self._lu: SuperLU | None = None
        self._order: np.ndarray | None = None  # factor row/column k is unknown _order[k]
        self.reused = False  # the last solve was served by a held factor
        self.residual = float("nan")  # relative residual of the last solve
        self.factorizations = 0
        self.refinement_solves = 0
        self.unknowns = 0
        self.operator_nnz = 0

    def solve(
        self,
        grid: Grid,
        A: sparse.spmatrix,
        b: np.ndarray,
        tol: float,
        trans: str = "N",
        start: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solution of the bordered system (its transpose for ``trans="T"``)
        with right-hand side ``b`` whose relative residual
        ``|S x - b|_inf / (1 + |b|_inf)`` is at most ``tol``; the residual is
        left in ``residual``.  ``start`` is the first iterate of a held
        factor's refinement (zero by default); a fresh factor starts from
        zero, so what it returns depends on the system alone.

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
        zero = np.zeros(nint + 1)
        self.unknowns, self.operator_nnz = nint + 1, A.nnz
        if self._lu is not None:
            x, self.residual = self._refine(
                product, b, scale, trans, 0.0, zero if start is None else start
            )
            self.reused = bool(self.residual <= tol)
            if self.reused:
                return x
            self.drop()  # before splu allocates: never two factors at once
        # the bordered matrix is built only to be factored, so a solve served
        # by the held factor adds nothing to the peak memory of the factor;
        # its entry (i, j) goes to (rank[i], rank[j]), the symmetric
        # permutation into the dissection order with the border unknown last
        order = np.append(grid.dissection_order, nint)
        rank = np.empty_like(order)
        rank[order] = np.arange(nint + 1)
        coo = A.tocoo()  # then the border column of ones and the norm row
        rows = np.concatenate([rank[coo.row], rank[:nint], [nint]])
        cols = np.concatenate([rank[coo.col], np.full(nint, nint), [rank[origin]]])
        vals = np.concatenate([coo.data, np.ones(nint + 1)])
        del coo
        system = sparse.csc_matrix((vals, (rows, cols)), shape=(nint + 1, nint + 1))
        del rows, cols, vals
        self._lu = splu(system, permc_spec="NATURAL")
        self._order = order
        del system
        self.factorizations += 1
        self.reused = False
        # on fine 2d grids the direct solve alone can miss the tolerance by a
        # small factor (2.3e-10 at 160,801 nodes); one refinement step recovers it
        x, self.residual = self._refine(product, b, scale, trans, tol, zero)
        if not self.residual <= tol:
            raise RuntimeError(f"residual {self.residual:.3e} exceeds tolerance {tol:.1e}")
        return x

    def _refine(
        self, product, b: np.ndarray, scale: float, trans: str, stop: float, x: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Iterative refinement with the held factor from the iterate ``x``
        until the residual is at most ``stop`` or a step gains less than
        ``_CUT``-fold; returns the best iterate after the first step and its
        residual."""
        x = x + self._correction(b - product(x), trans)
        d = b - product(x)
        resid = np.abs(d).max() / scale
        while resid > stop:
            x_next = x + self._correction(d, trans)
            self.refinement_solves += 1
            d_next = b - product(x_next)
            resid_next = np.abs(d_next).max() / scale
            gained = resid_next * self._CUT <= resid
            if resid_next < resid:
                x, d, resid = x_next, d_next, resid_next
            if not gained:
                break
        return x, resid

    def _correction(self, d: np.ndarray, trans: str) -> np.ndarray:
        """The held factor's solution for the residual ``d``, in the original
        unknown order."""
        y = self._lu.solve(d[self._order], trans=trans)
        out = np.empty_like(y)
        out[self._order] = y
        return out

    def drop(self) -> None:
        """Release the held factor; the next solve factors afresh."""
        self._lu = self._order = None
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
