from contextlib import nullcontext

import numpy as np
import pytest

from ergolab.grid import (
    build_grid,
    check_scalar_field,
    check_vector_field,
    fill_boundary_nearest,
    gradient_inward_fallback,
    laplacian,
)
from ergolab.operators import assemble_generator
from oracles import as_scipy, gradient_central, one_sided_differences, upwind_pairing


def advect_upwind(values, drift, grid):
    """drift . Du with first-order upwind differences selected per axis.

    Positive drift components use the backward difference, negative ones the
    forward difference, so the assembled operator matrix is monotone.  Zero
    on the boundary layer.
    """
    values = check_scalar_field(values, grid)
    drift = check_vector_field(drift, grid)
    u = values.reshape(grid.shape)
    h = grid.spacing
    out = np.zeros(grid.shape)
    core = (slice(1, -1),) * grid.dim
    for a in range(grid.dim):
        lo = tuple(slice(0, -2) if k == a else slice(1, -1) for k in range(grid.dim))
        hi = tuple(slice(2, None) if k == a else slice(1, -1) for k in range(grid.dim))
        w = drift[:, a].reshape(grid.shape)[core]
        back = (u[core] - u[lo]) / h
        fwd = (u[hi] - u[core]) / h
        out[core] += np.where(w > 0, back, np.where(w < 0, fwd, 0.0)) * w
    return out.ravel()


def test_build_grid_1d_coarse():
    g = build_grid(1, 1.0, 0.5)
    assert g.nodes_per_axis == 5
    assert np.allclose(g.axis_coords, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(g.coords[g.interior_mask, 0], [-0.5, 0.0, 0.5])


def test_build_grid_2d_minimal_interior():
    g = build_grid(2, 1.0, 1.0)
    assert g.num_nodes == 9
    assert g.num_interior == 1
    assert np.allclose(g.coords[g.interior_ids[0]], [0.0, 0.0])
    assert g.interior_ids[0] == g.origin_id
    # both neighbors along each axis are walls, so no leg has anywhere to go
    A = as_scipy(assemble_generator(g, np.array([[0.5, -0.5]]))[0])
    assert A.toarray().tolist() == [[0.0]]


def test_build_grid_node_count():
    g = build_grid(1, 6.0, 0.01)
    assert g.num_nodes == 1201


def test_build_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_grid(3, 1.0, 0.1)
    with pytest.raises(ValueError):
        build_grid(1, 0.4, 0.5)  # no interior node
    with pytest.raises(ValueError):
        build_grid(1, 1.0, -0.1)
    with pytest.raises(ValueError):
        build_grid(2, 400.0, 0.1)  # 8001^2 > 1e7 nodes


def test_field_checks_refuse_shape_and_non_finite_values():
    g = build_grid(2, 1.0, 0.25)  # 9^2 nodes
    with pytest.raises(ValueError, match="scalar field shape"):
        check_scalar_field(np.zeros(g.num_nodes - 1), g)
    with pytest.raises(ValueError, match="scalar field contains non-finite"):
        check_scalar_field(np.full(g.num_nodes, np.inf), g)
    with pytest.raises(ValueError, match="vector field shape"):
        check_vector_field(np.zeros((g.num_nodes, 1)), g)
    with pytest.raises(ValueError, match="vector field contains non-finite"):
        check_vector_field(np.full((g.num_nodes, 2), np.nan), g)


def test_generator_refuses_unknown_closure_and_control_shape():
    g = build_grid(1, 1.0, 0.25)
    with pytest.raises(ValueError, match="unknown boundary mode"):
        assemble_generator(g, np.zeros((g.num_nodes, 1)), "reflecting")
    with pytest.raises(ValueError, match="control shape"):
        assemble_generator(g, np.zeros((g.num_nodes, 2)))


def test_origin_is_node():
    for dim in (1, 2):
        g = build_grid(dim, 2.0, 0.3)
        assert np.allclose(g.coords[g.origin_id], 0.0)


def test_laplacian_examples():
    g = build_grid(1, 2.0, 0.1)
    x = g.coords[:, 0]
    lap = laplacian(x**2, g)
    assert np.allclose(lap[g.interior_mask], 2.0, atol=1e-12)
    assert np.allclose(laplacian(np.full(g.num_nodes, 7.0), g), 0.0, atol=1e-12)
    lap4 = laplacian(x**4, g)
    node = np.argmin(np.abs(x - 1.0))
    assert lap4[node] == pytest.approx(12.02, abs=1e-9)


def test_gradient_examples():
    g = build_grid(1, 2.0, 0.1)
    x = g.coords[:, 0]
    assert np.allclose(gradient_central(3 * x, g)[g.interior_mask, 0], 3.0, atol=1e-12)
    node = np.argmin(np.abs(x - 1.0))
    # centered differences are exact on quadratics: d/dx x^2 = 2 at x = 1
    assert gradient_central(x**2, g)[node, 0] == pytest.approx(2.0, abs=1e-12)
    assert gradient_central(x**3, g)[node, 0] == pytest.approx(3.01, abs=1e-9)


def test_upwind_examples():
    g = build_grid(1, 2.0, 0.1)
    x = g.coords[:, 0]
    drift = np.full((g.num_nodes, 1), 2.0)
    out = advect_upwind(x, drift, g)
    assert np.allclose(out[g.interior_mask], 2.0, atol=1e-12)
    assert np.allclose(advect_upwind(x**2, np.zeros((g.num_nodes, 1)), g), 0.0)
    drift1 = np.full((g.num_nodes, 1), 1.0)
    node = np.argmin(np.abs(x - 1.0))
    assert advect_upwind(x**2, drift1, g)[node] == pytest.approx(1.9, abs=1e-12)


def test_stencils_exact_on_low_degree_2d():
    g = build_grid(2, 1.5, 0.25)
    rng = np.random.default_rng(0)
    a, b, c, d, e, f = rng.uniform(-2, 2, 6)
    x, y = g.coords[:, 0], g.coords[:, 1]
    quad = a + b * x + c * y + d * x * y + e * x**2 + f * y**2
    inner = g.interior_mask
    assert np.allclose(laplacian(quad, g)[inner], 2 * e + 2 * f, atol=1e-12)
    lin = a + b * x + c * y
    grad = gradient_central(lin, g)
    assert np.allclose(grad[inner, 0], b, atol=1e-12)
    assert np.allclose(grad[inner, 1], c, atol=1e-12)


def test_upwind_identity_field_sums_drift():
    g = build_grid(2, 1.5, 0.25)
    ident = g.coords.sum(axis=1)
    rng = np.random.default_rng(1)
    drift = rng.normal(size=(g.num_nodes, 2))
    out = advect_upwind(ident, drift, g)
    assert np.allclose(out[g.interior_mask], drift[g.interior_mask].sum(axis=1), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_generator_monotone_and_conservative(dim):
    # monotonicity of the conservative closure requires |drift| < 1/h at the
    # walls; the solvers warn when a control crosses that cap
    g = build_grid(dim, 1.5, 0.25)
    rng = np.random.default_rng(2)
    ctrl = np.clip(rng.normal(scale=1.5, size=(g.num_nodes, dim)), -3.5, 3.5)
    A, rhs = assemble_generator(g, ctrl, "state_constraint")
    dense = as_scipy(A).toarray()
    off = dense - np.diag(np.diag(dense))
    assert off.max() <= 1e-14
    assert np.allclose(dense.sum(axis=1), 0.0, atol=1e-10)
    assert np.allclose(rhs, 0.0)

    # the pinned-boundary stencils never clip, so any drift stays monotone
    wild = rng.normal(scale=30.0, size=(g.num_nodes, dim))
    A2, rhs2 = assemble_generator(g, wild, "dirichlet_big")
    dense2 = as_scipy(A2).toarray()
    off2 = dense2 - np.diag(np.diag(dense2))
    assert off2.max() <= 1e-14
    # rows coupled to the pinned boundary have positive sums once that
    # coupling is moved to the right-hand side
    sums = dense2.sum(axis=1)
    assert sums.min() >= -1e-10
    assert (sums > 1e-8).any()
    assert (rhs2 > 0).any()


@pytest.mark.parametrize("dim, radius, spacing", [(1, 4.0, 0.01), (2, 2.0, 0.02)])
def test_generator_rows_sum_to_exactly_zero(dim, radius, spacing):
    # the density's border multiplier is -(A 1) . rho, so any roundoff in the
    # row sums shows up in its adjoint residual
    g = build_grid(dim, radius, spacing)
    ctrl = np.random.default_rng(4).normal(scale=10.0, size=(g.num_nodes, dim))
    A = as_scipy(assemble_generator(g, ctrl)[0])
    # wall legs: next to a wall, the drift -ctrl heads for it
    x, w = g.coords[g.interior_ids], ctrl[g.interior_ids]
    assert ((np.abs(x) > g.wall - 1.5 * spacing) & (w * x < 0)).any()
    assert np.all(A @ np.ones(g.num_interior) == 0.0)


def test_generator_rows_at_pairs_sum_to_exactly_zero():
    # every node under the drifts 0 and +-3 at h = 0.5: the zero-drift rows'
    # bound 4 * 8 is a power of two and the others' 4 * 14 lies above the next
    # one, so each row is snapped to its own quantum
    g = build_grid(1, 3.0, 0.5)
    drifts = np.array([[0.0], [3.0], [-3.0]])
    nodes = np.repeat(np.arange(g.num_interior), 3)
    with pytest.warns(UserWarning, match="reached 1/h"):  # 3 > 1/h at the walls
        A = as_scipy(assemble_generator(g, np.tile(drifts, (g.num_interior, 1)), nodes=nodes)[0])
    assert A.shape == (3 * g.num_interior, g.num_interior)
    assert np.all(A @ np.ones(g.num_interior) == 0.0)
    # each row is the one the whole-grid assembly writes under its drift
    for j, drift in enumerate(drifts):
        with pytest.warns(UserWarning, match="reached 1/h") if j else nullcontext():
            whole = as_scipy(assemble_generator(g, np.tile(drift, (g.num_interior, 1)))[0])
        assert (A[j::3] != whole).nnz == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_generator_rows_match_stencil_functions(dim):
    # the matrix route and the field-operator route must agree exactly:
    # boundary fill by nearest interior value reproduces the wall closure
    g = build_grid(dim, 1.5, 0.25)
    rng = np.random.default_rng(3)
    u = rng.normal(size=g.num_nodes)
    u = fill_boundary_nearest(u, g)
    ctrl = rng.normal(scale=2.0, size=(g.num_nodes, dim))
    # in 2d some wall-adjacent drift points outward faster than 1/h = 4
    with pytest.warns(UserWarning, match="reached 1/h") if dim == 2 else nullcontext():
        A = as_scipy(assemble_generator(g, ctrl, "state_constraint")[0])
    lhs = A @ u[g.interior_ids]
    pairing = upwind_pairing(ctrl, *one_sided_differences(u, g))
    rhs = -laplacian(u, g)[g.interior_ids] + pairing[g.interior_ids]
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_inward_fallback_gradient():
    g = build_grid(1, 2.0, 0.1)
    x = g.coords[:, 0]
    du = gradient_inward_fallback(x**2 / 2, g)
    inner = g.interior_mask.copy()
    # wall-adjacent nodes switch to one-sided differences
    wall_adj = np.zeros_like(inner)
    wall_adj[1] = wall_adj[-2] = True
    assert np.allclose(du[inner & ~wall_adj, 0], x[inner & ~wall_adj], atol=1e-12)
    assert du[1, 0] == pytest.approx(x[1] + 0.05, abs=1e-12)
    assert du[-2, 0] == pytest.approx(x[-2] - 0.05, abs=1e-12)


def test_field_csv_deterministic(tmp_path):
    from ergolab.serialize import write_field_csv

    g = build_grid(2, 1.0, 0.2)
    rng = np.random.default_rng(4)
    u = rng.normal(size=g.num_nodes)
    write_field_csv(tmp_path / "a.csv", g, "u", u)
    write_field_csv(tmp_path / "b.csv", g, "u", u)
    a = (tmp_path / "a.csv").read_bytes()
    assert a == (tmp_path / "b.csv").read_bytes()
    header = a.decode().splitlines()[0]
    assert header == "x0,x1,u"
    assert len(a.decode().splitlines()) == g.num_nodes + 1


def test_dissection_order_1d_is_the_identity():
    g = build_grid(1, 4.0, 0.05)
    assert np.array_equal(g.dissection_order, np.arange(g.num_interior))


def _dissection_by_recursion(m: int) -> list[int]:
    """Nested-dissection order of an m x m index box by recursion on boxes:
    split the box's axis ``axis`` at its middle index, order the lower half,
    then the upper half (each split along the other axis), then the middle
    line in lexicographic order."""

    def box(rows: range, cols: range, axis: int) -> list[int]:
        split = rows if axis == 0 else cols
        if not rows or not cols:
            return []
        mid = (split.start + split.stop) // 2
        lower, line, upper = range(split.start, mid), [mid], range(mid + 1, split.stop)
        if axis == 0:
            halves = box(lower, cols, 1) + box(upper, cols, 1)
            return halves + [i * m + j for i in line for j in cols]
        halves = box(rows, lower, 0) + box(rows, upper, 0)
        return halves + [i * m + j for i in rows for j in line]

    return box(range(m), range(m), 0)


@pytest.mark.parametrize(
    "radius, spacing", [(1.0, 1.0), (1.0, 0.5), (1.0, 0.25), (3.0, 0.1), (5.0, 0.05)]
)
def test_dissection_order_2d_matches_the_recursion(radius, spacing):
    g = build_grid(2, radius, spacing)
    m = g.nodes_per_axis - 2
    expected = _dissection_by_recursion(m)
    assert sorted(expected) == list(range(g.num_interior))
    assert np.array_equal(g.dissection_order, expected)
