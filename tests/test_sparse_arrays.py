"""The plain-array products, column slices and SuperLU factor against scipy's:
every one must return scipy's bits, so that replacing ``scipy.sparse`` in
the program changes no artifact."""

import re
import sys
from importlib.machinery import EXTENSION_SUFFIXES

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from ergolab import measure_lp, operators
from ergolab.eigensolver import solve_ergodic_hjb
from ergolab.grid import build_grid
from ergolab.hamiltonian import pure_power, quadratic_power_potential
from ergolab.measure_lp import assemble_lp, random_feasible_measure, solve_lp, uniform_xi_atoms
from ergolab.operators import BorderedSolver, assemble_generator
from oracles import as_measure, as_scipy, as_weights

SUPERLU = "scipy.sparse.linalg._dsolve._superlu"


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def lp_2d():
    """The benchmark's ``lp_2d`` program: 961 nodes and 9 atoms per axis on
    1.25 max |xi_u|, with its solved measure."""
    g = build_grid(2, 3.0, 0.2)
    model, pot = pure_power(1.5), quadratic_power_potential(1.5)
    sol = solve_ergodic_hjb(g, model, pot)
    atoms = uniform_xi_atoms(1.25 * float(np.abs(sol.xi_u).max()), 9, 2)
    problem = assemble_lp(g, atoms, model, pot)
    return problem, solve_lp(problem)[0]


@pytest.mark.parametrize("mode", ["state_constraint", "dirichlet_big"])
@pytest.mark.parametrize("dim, radius, spacing", [(1, 4.0, 0.05), (2, 5.0, 0.05)])
def test_generator_products_are_scipys(dim, radius, spacing, mode):
    g = build_grid(dim, radius, spacing)
    rng = np.random.default_rng(11)
    A, _ = assemble_generator(g, rng.normal(scale=2.0, size=(g.num_nodes, dim)), mode)
    reference = as_scipy(A)
    for _ in range(3):
        x = rng.normal(size=g.num_interior)
        assert same_bits(A.matvec(x), reference @ x)
        assert same_bits(A.rmatvec(x), reference.T @ x)


@pytest.mark.parametrize("mode", ["state_constraint", "dirichlet_big"])
@pytest.mark.parametrize("dim, radius, spacing", [(1, 4.0, 0.05), (2, 5.0, 0.05)])
def test_holes_are_the_zeros(dim, radius, spacing, mode):
    # a row holds its diagonal and one entry per leg to an interior neighbor,
    # under either closure; every other slot is a hole of weight 0
    g = build_grid(dim, radius, spacing)
    rng = np.random.default_rng(17)
    A, _ = assemble_generator(g, rng.normal(scale=2.0, size=(g.num_nodes, dim)), mode)
    legs = sum(int((g.interior_neighbor(a, s) >= 0).sum()) for a in range(dim) for s in (-1, 1))
    assert A.nnz == g.num_interior + legs == {1: 475, 2: 197_209}[dim]  # 2d: solve_2d's grid
    lines = np.broadcast_to(np.arange(A.shape[0]), A.slot_index.shape)
    slots = sparse.csr_matrix((A.slot_data.ravel(), (lines.ravel(), A.slot_index.ravel())),
                              shape=A.shape)
    full = as_scipy(A)  # compress drops the holes alone: no duplicate, every weight in place
    assert full.has_canonical_format and (full != slots).nnz == 0
    ids = rng.permutation(g.num_interior)[: g.num_interior // 3]  # unsorted
    indptr, indices, data = A.compress(ids)
    reference = full[ids]
    assert same_bits(indptr, reference.indptr.astype(np.int32))
    assert same_bits(indices, reference.indices.astype(np.int32))
    assert same_bits(data, reference.data)


def test_rows_at_pairs_products_are_scipys():
    # the measure program's rows: every interior node under every atom
    g = build_grid(2, 3.0, 0.2)
    atoms = uniform_xi_atoms(2.0, 5, 2)
    nodes = np.repeat(np.arange(g.num_interior), atoms.shape[0])
    A, _ = assemble_generator(g, np.tile(atoms, (g.num_interior, 1)), nodes=nodes)
    reference = as_scipy(A)
    rng = np.random.default_rng(12)
    x, y = rng.normal(size=g.num_interior), rng.normal(size=nodes.size)
    assert same_bits(A.matvec(x), reference @ x)
    assert same_bits(A.rmatvec(y), reference.T @ y)


def test_program_products_are_scipys(lp_2d):
    problem, measure = lp_2d
    a_eq, reference = problem.a_eq, as_scipy(problem.a_eq)
    assert a_eq.csc and reference.has_sorted_indices
    rng = np.random.default_rng(13)
    y = rng.normal(size=a_eq.shape[0])
    assert same_bits(a_eq.rmatvec(y), reference.T @ y)
    for mu in (rng.random(a_eq.shape[1]), measure_lp._measure_vector(measure, problem)):
        assert same_bits(a_eq.matvec(mu), reference @ mu)


class _AddColsRecorder:
    """A HiGHS instance whose ``addCols`` calls are recorded."""

    def __init__(self, highs):
        self.highs, self.calls = highs, []

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def addCols(self, *args):
        self.calls.append(args)
        return self.highs.addCols(*args)


def test_column_slices_are_scipys(lp_2d):
    problem, _ = lp_2d
    master = measure_lp._Master(problem)
    master.highs = _AddColsRecorder(master.highs)
    rng = np.random.default_rng(14)
    ids = rng.choice(problem.objective.size, 2000, replace=False)  # unsorted, as pricing adds them
    master.add(ids)
    *_, nnz, starts, indices, data = master.highs.calls[0]
    block = as_scipy(problem.a_eq)[:, ids]
    block.sort_indices()
    assert nnz == block.nnz
    assert same_bits(starts, block.indptr[:-1].astype(np.int32))
    assert same_bits(indices, block.indices.astype(np.int32))
    assert same_bits(data, block.data)


def test_measure_sums_are_scipys(lp_2d):
    problem, measure = lp_2d
    g, atoms = problem.grid, problem.xi_atoms
    # a mixture puts up to three atoms on a node, so each sum has an order
    draws = [as_weights(random_feasible_measure(g, atoms, seed)) for seed in (1, 2)]
    mix = as_measure((draws[0] + 2.0 * draws[1] + 3.0 * as_weights(measure)) / 6.0, atoms, g)
    assert np.bincount(mix.node).max() >= 3
    for mu in (measure, mix):
        weights = as_weights(mu)
        assert same_bits(mu.x_marginal(), np.asarray(weights.sum(axis=1)).ravel())
        num = weights @ atoms
        mass = mu.x_marginal()
        has = mass > 0
        assert same_bits(measure_lp.barycenter_control(mu)[has], num[has] / mass[has, None])


@pytest.mark.parametrize("trans", ["N", "T"])
def test_loaded_factor_is_public_splus(trans):
    # the factor ``gstrf`` builds from the bordered CSC arrays against
    # ``splu(S, permc_spec="NATURAL")`` of the same system: a scipy whose
    # private signature or options changed fails here
    g = build_grid(2, 3.0, 0.1)
    y = g.coords
    A, _ = assemble_generator(g, -0.8 * y + 0.6 * np.sin(2.0 * y[:, ::-1]) * [1, -1])
    nint = g.num_interior
    solver = BorderedSolver()
    solver.solve(g, A, np.ones(nint + 1), 1e-10, trans=trans)
    origin = sparse.coo_matrix(([1.0], ([0], [g.interior_index[g.origin_id]])), shape=(1, nint))
    bordered = sparse.bmat([[as_scipy(A), np.ones((nint, 1))], [origin, None]], format="csr")
    order = solver._order
    reference = splu(bordered[order][:, order].tocsc(), permc_spec="NATURAL")
    assert solver._lu.nnz == reference.nnz
    d = np.random.default_rng(15).normal(size=nint + 1)
    assert same_bits(solver._lu.solve(d, trans=trans), reference.solve(d, trans=trans))


def test_natural_order_options_are_splus():
    # without SymmetricMode, SuperLU postorders the column elimination tree,
    # which moves the columns of this unsymmetric matrix and adds fill
    S = sparse.random(300, 300, density=0.02, random_state=0, format="csc")
    S = (S + 0.5 * sparse.identity(300, format="csc")).tocsc()
    S.sort_indices()
    lu = operators.superlu.gstrf(
        300, S.nnz, S.data, S.indices.astype(np.intc), S.indptr.astype(np.intc),
        csc_construct_func=None, ilu=False, options=operators.NATURAL_ORDER,
    )
    reference = splu(S, permc_spec="NATURAL")
    assert lu.nnz == reference.nnz
    assert np.array_equal(lu.perm_c, reference.perm_c)
    d = np.random.default_rng(16).normal(size=300)
    assert same_bits(lu.solve(d), reference.solve(d))


def test_missing_superlu_binding_names_its_directory(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, SUPERLU)
    monkeypatch.setattr(operators.scipy, "__file__", str(tmp_path / "__init__.py"))
    where = tmp_path / "sparse" / "linalg" / "_dsolve"
    with pytest.raises(ImportError, match=f"no SuperLU binding _superlu in {re.escape(str(where))}"):
        operators.load_extension(SUPERLU, "SuperLU binding")
    assert SUPERLU not in sys.modules
    # a file that is found but fails to load leaves no entry behind either
    where.mkdir(parents=True)
    (where / f"_superlu{EXTENSION_SUFFIXES[0]}").write_bytes(b"not a shared object")
    with pytest.raises(ImportError):
        operators.load_extension(SUPERLU, "SuperLU binding")
    assert SUPERLU not in sys.modules
