"""Uniform lattice geometry and finite-difference stencils.

The domain is the box [-R, R]^d truncated to the largest symmetric lattice
with spacing h that contains the origin as a node.  Nodes are ordered
lexicographically by axis index (axis 0 slowest), and every field is a flat
numpy array over that ordering: shape (N,) for scalar fields, (N, d) for
vector fields.  The outermost node layer is the boundary; all stencil
operators write zeros there and leave boundary handling to the solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

MAX_NODES = 10**7


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric lattice on [-R, R]^d with d in {1, 2}."""

    dim: int
    radius: float
    spacing: float
    half_width: int  # nodes per axis = 2*half_width + 1

    @cached_property
    def nodes_per_axis(self) -> int:
        return 2 * self.half_width + 1

    @cached_property
    def num_nodes(self) -> int:
        return self.nodes_per_axis**self.dim

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return (np.arange(self.nodes_per_axis) - self.half_width) * self.spacing

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.nodes_per_axis,) * self.dim

    @cached_property
    def wall(self) -> float:  # Monte Carlo paths reflect here: the outermost node
        return self.half_width * self.spacing

    @cached_property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (N, d), lexicographic node order."""
        mesh = np.meshgrid(*(self.axis_coords,) * self.dim, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.setflags(write=False)
        return out

    @cached_property
    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.dim] = True
        flat = mask.ravel()
        flat.setflags(write=False)
        return flat

    @cached_property
    def interior_ids(self) -> np.ndarray:
        ids = np.flatnonzero(self.interior_mask)
        ids.setflags(write=False)
        return ids

    @cached_property
    def num_interior(self) -> int:
        return self.interior_ids.size

    @cached_property
    def interior_index(self) -> np.ndarray:
        """Map global node id -> interior-local id, -1 on the boundary."""
        out = np.full(self.num_nodes, -1, dtype=np.int64)
        out[self.interior_ids] = np.arange(self.num_interior)
        out.setflags(write=False)
        return out

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Interior-local ids in geometric nested-dissection order.

        In 2d the interior index box is bisected at its middle line, the axes
        alternating, and each separator line comes after both halves, its
        nodes in lexicographic order; halves are split again until every
        node lies on a separator.  Each node's place is one base-3 key (0
        first half, 1 second half, 2 separator) of its per-axis bisection
        digits, interleaved and cut after its first separator digit, so one
        stable sort builds the order.  In 1d it is the identity: a path has
        no fill in its own order.
        """
        m = self.nodes_per_axis - 2
        if self.dim == 1:
            order = np.arange(m)
        else:
            digits = _bisection_digits(m)
            key = np.zeros((m, m), dtype=np.int64)
            cut = np.zeros((m, m), dtype=bool)
            for depth in range(digits.shape[1]):
                for digit in (digits[:, depth, None], digits[None, :, depth]):
                    digit = np.where(cut, 0, digit)
                    key *= 3
                    key += digit
                    cut |= digit == 2
            order = np.argsort(key.ravel(), kind="stable")
        order.setflags(write=False)
        return order

    @cached_property
    def origin_id(self) -> int:
        n = self.nodes_per_axis
        return sum(self.half_width * n**k for k in range(self.dim))

    @cached_property
    def axis_strides(self) -> tuple[int, ...]:
        n = self.nodes_per_axis
        return tuple(n ** (self.dim - 1 - a) for a in range(self.dim))

    def interior_neighbor(self, axis: int, side: int) -> np.ndarray:
        """Interior-local id of each interior node's neighbor along an axis.

        side is -1 or +1; entries are -1 where the neighbor is a boundary
        node.  Used by the operator assembly.
        """
        stride = self.axis_strides[axis]
        return self.interior_index[self.interior_ids + side * stride]

    def nearest_interior(self, node_ids: np.ndarray) -> np.ndarray:
        """Global id of the interior node obtained by clamping each axis index."""
        n = self.nodes_per_axis
        rem = np.asarray(node_ids)
        out = np.zeros_like(rem)
        for stride in self.axis_strides:
            idx = rem // stride
            rem = rem % stride
            out += np.clip(idx, 1, n - 2) * stride
        return out


def _bisection_digits(m: int) -> np.ndarray:
    """(m, depth) digits of each index of ``range(m)`` under repeated
    bisection: at each depth 0 in the lower half, 1 in the upper half, 2 on
    the middle index, and 0 after that."""
    idx = np.arange(m)
    lo, hi = np.zeros(m, dtype=np.int64), np.full(m, m, dtype=np.int64)
    cut = np.zeros(m, dtype=bool)
    digits = []
    while not cut.all():
        mid = (lo + hi) // 2
        digits.append(np.where(cut, 0, np.where(idx < mid, 0, np.where(idx == mid, 2, 1))))
        cut |= idx == mid
        hi = np.where(idx < mid, mid, hi)
        lo = np.where(idx > mid, mid + 1, lo)
    return np.stack(digits, axis=1)


def axis_half_width(radius: float, spacing: float) -> int:
    """floor(R/h): the nodes on each side of the origin along an axis."""
    return int(np.floor(radius / spacing + 1e-12))


def build_grid(dim: int, radius: float, spacing: float) -> Grid:
    """Construct the symmetric lattice covering [-R, R]^d.

    Nodes per axis is 2*floor(R/h) + 1, so the origin is always a node and
    the lattice spans [-R, R] to within one spacing.  Solver-grade grids
    should keep radius >= 4*spacing; construction only requires one interior
    node and a finite 8 * dim / h^2, the bound on the operator's zero-drift
    coefficients that its assembly rounds them against.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not (spacing > 0 and radius >= spacing):
        raise ValueError(
            f"need radius >= spacing > 0, got radius={radius}, spacing={spacing}"
        )
    with np.errstate(all="ignore"):
        bound = 8.0 * dim / np.float64(spacing) ** 2
    if not np.isfinite(bound):
        raise ValueError(f"1/spacing**2 times 8 * dim is not finite for spacing={spacing}")
    half = axis_half_width(radius, spacing)
    n = 2 * half + 1
    if n**dim > MAX_NODES:
        raise ValueError(f"grid would have {n**dim} nodes (limit {MAX_NODES})")
    return Grid(dim=dim, radius=float(radius), spacing=float(spacing), half_width=half)


def check_scalar_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_nodes,):
        raise ValueError(f"scalar field shape {values.shape} != ({grid.num_nodes},)")
    if not np.all(np.isfinite(values)):
        raise ValueError("scalar field contains non-finite values")
    return values


def check_vector_field(values: np.ndarray, grid: Grid) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.num_nodes, grid.dim):
        raise ValueError(
            f"vector field shape {values.shape} != ({grid.num_nodes}, {grid.dim})"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("vector field contains non-finite values")
    return values


def _axis_slab(grid: Grid, axis: int, part: slice) -> tuple[slice, ...]:
    """Mesh index of the core nodes, taken along ``axis`` as ``part``."""
    return tuple(part if k == axis else slice(1, -1) for k in range(grid.dim))


def _differences(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis backward and forward differences (D_minus, D_plus) on the core.

    Both have mesh shape grid.shape + (d,) and are zero on the boundary
    layer.  Every stencil in this module is built from them.
    """
    values = check_scalar_field(values, grid)
    u = values.reshape(grid.shape)
    h = grid.spacing
    dminus = np.zeros(grid.shape + (grid.dim,))
    dplus = np.zeros(grid.shape + (grid.dim,))
    core = (slice(1, -1),) * grid.dim
    for a in range(grid.dim):
        dminus[core + (a,)] = (u[core] - u[_axis_slab(grid, a, slice(0, -2))]) / h
        dplus[core + (a,)] = (u[_axis_slab(grid, a, slice(2, None))] - u[core]) / h
    return dminus, dplus


def laplacian(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Centered second-difference Laplacian, sum_a (D+_a - D-_a) / h; zero on
    the boundary layer."""
    dminus, dplus = _differences(values, grid)
    return ((dplus - dminus).sum(axis=-1) / grid.spacing).ravel()


def gradient_inward_fallback(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient for control extraction: centered inside, one-sided at walls.

    At interior nodes adjacent to the boundary the centered stencil would
    reference a boundary value, so the difference toward the interior is used
    instead: the missing one-sided difference is replaced by the inward one
    before the two are averaged.  Zero on the boundary layer.
    """
    dminus, dplus = _differences(values, grid)
    for a in range(grid.dim):
        first = _axis_slab(grid, a, slice(1, 2)) + (a,)
        last = _axis_slab(grid, a, slice(-2, -1)) + (a,)
        dminus[first] = dplus[first]
        dplus[last] = dminus[last]
    return (0.5 * (dminus + dplus)).reshape(grid.num_nodes, grid.dim)


def fill_boundary_nearest(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Copy each boundary node's value from its nearest interior node."""
    out = np.array(values, dtype=float, copy=True)
    boundary = np.flatnonzero(~grid.interior_mask)
    out[boundary] = out[grid.nearest_interior(boundary)]
    return out


def bilinear(grid: Grid, field: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a 2d field of shape (N, k) at the rows of
    ``x``; each coordinate is clamped at the wall, so a point beyond it reads
    the wall's values."""
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
