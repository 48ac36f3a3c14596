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

``scipy.sparse`` is never imported (its init and that of its ``linalg``
took about 85 ms of every process start).  The rows are plain arrays in one
layout, ``Compressed``: each row's entries by slot, a missing one a hole of
weight 0.  They are compressed only where a C library takes them: SuperLU,
scipy's binding ``_superlu`` loaded from its extension file alone by
``load_extension`` (as HiGHS is), and HiGHS's column adds.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np
import scipy

from .grid import Grid


def load_extension(name: str, what: str):
    """The scipy extension module ``name`` (``what``, in errors), loaded from
    its extension file without running the init of the packages above it.
    It is registered under its own name, so a later import of its package
    shares this module object; a module already imported is reused, and a
    file that fails to load leaves no entry behind."""
    if name in sys.modules:
        return sys.modules[name]
    package, _, tail = name.rpartition(".")
    where = str(Path(scipy.__file__).parent.joinpath(*package.split(".")[1:]))
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {what} {tail} in {where}", name=name, path=where)
    sys.modules[name] = module = module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


superlu = load_extension("scipy.sparse.linalg._dsolve._superlu", "SuperLU binding")
# the options ``splu(S, permc_spec="NATURAL")`` hands to ``gstrf``
NATURAL_ORDER = dict(
    DiagPivotThresh=None, ColPerm="NATURAL", PanelSize=None, Relax=None, SymmetricMode=True
)

STATE_CONSTRAINT = "state_constraint"
DIRICHLET_BIG = "dirichlet_big"
DIRICHLET_VALUE = 1e6  # the pinned boundary value M of ``dirichlet_big``


@dataclass(frozen=True)
class Compressed:
    """A sparse matrix of ``shape`` as (slots, lines) arrays: line k, a row,
    or a column when ``csc``, holds its s-th entry at index
    ``slot_index[s, k]`` with weight ``slot_data[s, k]``.  A hole is an entry
    of weight 0 at some valid index; apart from the holes, a line's indices
    increase with the slot.

    ``matvec`` and ``rmatvec`` (A @ x, A.T @ y) sum each output from zero in
    line order, as scipy's products do, and a hole adds an exact zero for
    finite x, so the bits are scipy's: a line's own sum runs a slot at a
    time and the other product is one ``np.bincount``.  Like scipy's C loops
    they never warn, so an overflowing iterate reaches a residual check as
    inf or NaN.  ``compress`` builds the compressed arrays that SuperLU and
    HiGHS take.  It leaves out every entry of weight 0, so a leg whose snapped
    coefficient is exactly 0 (possible only at a wall row that warned of lost
    monotonicity) is left out with the holes, and ``nnz`` does not count it."""

    shape: tuple[int, int]
    csc: bool
    slot_index: np.ndarray
    slot_data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.slot_data))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._scatter(x) if self.csc else self._line_sums(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._line_sums(y) if self.csc else self._scatter(y)

    def compress(self, lines: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The compressed arrays (indptr, indices, data), int32, int32 and
        float64, of the lines ``lines`` (all by default) in that order: line
        k's nonzero entries sit at ``indptr[k]:indptr[k + 1]``, indices
        increasing."""
        index, data = self.slot_index, self.slot_data
        if lines is not None:
            index, data = index[:, lines], data[:, lines]
        keep = data.T != 0
        indptr = np.zeros(keep.shape[0] + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        return indptr, index.T[keep].astype(np.int32), data.T[keep]

    @np.errstate(over="ignore", invalid="ignore")
    def _line_sums(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.slot_index.shape[1])
        for index, data in zip(self.slot_index, self.slot_data):
            term = x.take(index)
            term *= data
            out += term
        return out

    @np.errstate(over="ignore", invalid="ignore")
    def _scatter(self, y: np.ndarray) -> np.ndarray:
        size = self.shape[0] if self.csc else self.shape[1]
        terms = (self.slot_data * y).T.ravel()
        return np.bincount(self.slot_index.T.ravel(), weights=terms, minlength=size)


def assemble_generator(
    grid: Grid,
    control: np.ndarray,
    boundary_mode: str = STATE_CONSTRAINT,
    nodes: np.ndarray | None = None,
) -> tuple[Compressed, np.ndarray]:
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
        (A, rhs) with A the ``Compressed`` rows, of shape (len(nodes), N_int),
        acting on interior values, a missing leg's slot pointing at the row's
        own node; and rhs the boundary contribution to move to the
        right-hand side (zero in state-constraint mode).

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

    # slot (a, -1) is row a, the diagonal row d and slot (a, +1) row 2d - a,
    # which orders each scheme row's columns by interior-local id; a slot
    # whose neighbor is a boundary node holds -1 until it becomes a hole at
    # the row's own node
    cols = np.empty((2 * d + 1, len(nodes)), dtype=np.intp)
    vals = np.zeros(cols.shape)
    cols[d] = nodes
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
            cols[slot] = neighbors[s]
            vals[slot] -= coef
            if dirichlet:
                rhs[out] += coef[out] * DIRICHLET_VALUE
                continue
            # the diffusion leg is dropped; the advection leg becomes the
            # inward difference on the opposite side, sign-reversed, and the
            # inward coefficient becomes -1/h^2 + |w|/h
            wall = out & (upwind_side == s) & (neighbors[-s] >= 0)
            vals[inward, wall] += speed[wall, a]
            monotone &= bool((speed[wall, a] < inv_h2[wall]).all())
    if not monotone:
        warnings.warn(
            "outward drift at a wall node reached 1/h; the inward closure "
            "loses monotonicity on this grid",
            stacklevel=2,
        )
    hole = cols < 0
    if not dirichlet:
        vals[hole] = 0.0  # the diffusion legs into the wall
    # the diagonal balances the row's legs, those to a pinned wall included
    # (their value is in rhs), and is exact since every partial sum is
    vals[d] = -vals.sum(axis=0)
    vals[hole] = 0.0
    cols[hole] = np.broadcast_to(cols[d], cols.shape)[hole]
    return Compressed((len(nodes), grid.num_interior), False, cols, vals), rhs


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
        self._lu = None  # the held ``superlu.SuperLU`` factor
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
        A: Compressed,
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
                return np.append(A.matvec(x[:nint]) + x[nint], x[origin])
            top = A.rmatvec(x[:nint])
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
            self.drop()  # before gstrf allocates: never two factors at once
        # the bordered matrix is built only to be factored, so a solve served
        # by the held factor adds nothing to the peak memory of the factor;
        # its entry (i, j) goes to (rank[i], rank[j]), the symmetric
        # permutation into the dissection order with the border unknown last
        order = np.append(grid.dissection_order, nint)
        rank = np.empty_like(order)
        rank[order] = np.arange(nint + 1)
        # A's entries, the border column of ones and the norm row, then sorted
        # into CSC order; no two entries share a position
        indptr, indices, data = A.compress()
        rows = np.concatenate([np.repeat(rank[:nint], np.diff(indptr)), rank[:nint], [nint]])
        cols = np.concatenate([rank[indices], np.full(nint, nint), [rank[origin]]])
        vals = np.concatenate([data, np.ones(nint + 1)])
        entry = np.argsort(cols * (nint + 1) + rows)
        indptr = np.zeros(nint + 2, dtype=np.intc)
        np.cumsum(np.bincount(cols, minlength=nint + 1), out=indptr[1:])
        indices, data = rows[entry].astype(np.intc), vals[entry]
        del rows, cols, vals, entry
        self._lu = superlu.gstrf(nint + 1, data.size, data, indices, indptr,
                                 csc_construct_func=None, ilu=False, options=NATURAL_ORDER)
        self._order = order
        del data, indices, indptr
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

