"""Traced run: wrap ergolab's public layer functions, record spans in memory
and reduce them to per-layer metrics.

The tracer replaces attributes of the loaded ``ergolab.*`` modules and puts
the originals back on exit, so nothing under ``src/`` changes.  Every
attribute that *is* a target function is replaced, because the runner binds
names with ``from .x import y``.  A target that no longer exists is reported
as absent and its metrics read 0.  The tracer assumes one calling thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# layer (= ergolab module) -> public functions wrapped in that module
TARGETS = {
    "runner": ("run_scenario",),
    "operators": ("assemble_generator",),
    "eigensolver": (
        "solve_ergodic_hjb",
        "policy_evaluation",
        "policy_improvement",
        "pde_residual",
        "pointwise_residual",
    ),
    "density": ("stationary_density", "pair_measure", "average_cost"),
    "measure_lp": (
        "uniform_xi_atoms",
        "assemble_lp",
        "solve_lp",
        "feasibility_violation",
        "random_feasible_measure",
        "excess_cost_identity",
        "minimizer_control_distance",
    ),
    "simulate": ("simulate_average", "compare_controls"),
    "estimates": (
        "check_potential_gradient_growth",
        "check_polynomial_envelope",
        "fit_hamiltonian_growth",
    ),
    "serialize": ("write_csv", "write_field_csv", "write_measure_csv", "write_json"),
}
ROOT_TARGET = "runner.run_scenario"
PACKAGE = "ergolab"


def _most(counts: dict, key: str, value) -> None:
    counts[key] = max(counts.get(key, 0), int(value))


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + int(value)


def _observe_assembly(counts, args, result):
    _most(counts, "operators.nnz", result[0].nnz)


def _observe_evaluation(counts, args, result):
    # the bordered system: interior values plus the eigenvalue
    _most(counts, "eigensolver.unknowns", args["grid"].num_interior + 1)


def _observe_solve(counts, args, result):
    _add(counts, "eigensolver.policy_iters", result.iterations)


def _observe_lp(counts, args, result):
    _most(counts, "measure_lp.columns", result.objective.size)
    _most(counts, "measure_lp.nnz", result.a_eq.nnz)


def _observe_simulation(counts, args, result):
    _add(counts, "simulate.path_steps", result.params.n_paths * result.params.n_steps)
    _add(counts, "simulate.divergent_paths", result.n_divergent)


OBSERVERS = {
    "operators.assemble_generator": _observe_assembly,
    "eigensolver.policy_evaluation": _observe_evaluation,
    "eigensolver.solve_ergodic_hjb": _observe_solve,
    "measure_lp.assemble_lp": _observe_lp,
    "simulate.simulate_average": _observe_simulation,
}


class Tracer:
    """Context manager that wraps the targets while it is active.

    ``spans`` holds ``[key, parent index or -1, start, end]`` in call order;
    ``counts`` holds the work counters the observers read from arguments
    and results.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}
        self.absent: list[str] = []
        self.observer_errors: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, names in TARGETS.items():
            qualified = f"{PACKAGE}.{layer}"
            try:
                module = importlib.import_module(qualified)
            except ModuleNotFoundError as exc:
                if exc.name != qualified:
                    raise
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._replace(fn, self._wrap(f"{layer}.{name}", fn))
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _replace(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        observe = OBSERVERS.get(key)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([key, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                try:
                    observe(self.counts, signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError) as exc:
                    self.observer_errors.append(f"{key}: {type(exc).__name__}: {exc}")
            return result

        return wrapper


class Trace:
    """Span arithmetic over a finished traced run."""

    def __init__(self, spans: list, counts: dict):
        self.spans = spans
        self.counts = counts
        child_time = [0.0] * len(spans)
        for key, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_times = [end - start - child_time[i] for i, (_, _, start, end) in enumerate(spans)]

    def calls(self, *keys: str) -> int:
        return sum(1 for s in self.spans if s[0] in keys)

    def self_time(self, *keys: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times) if s[0] in keys)

    def layer_self(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_times) if s[0].split(".")[0] == layer)

    def inclusive(self, *keys: str) -> float:
        """Time inside any of ``keys``, counting nested calls among them once."""
        total = 0.0
        for key, parent, start, end in self.spans:
            if key not in keys:
                continue
            while parent >= 0 and self.spans[parent][0] not in keys:
                parent = self.spans[parent][1]
            if parent < 0:
                total += end - start
        return total

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


def _layer_keys(layer: str) -> tuple:
    return tuple(f"{layer}.{name}" for name in TARGETS[layer])


def _path_steps_per_s(t: Trace) -> float:
    busy = t.inclusive("simulate.simulate_average")
    return t.count("simulate.path_steps") / busy if busy > 0 else 0.0


# (name, unit, reduction of the Trace); the names match BENCHMARK.json's per_layer
METRICS = (
    ("operators.assemble_s", "s", lambda t: t.inclusive("operators.assemble_generator")),
    ("operators.assemble_calls", "count", lambda t: t.calls("operators.assemble_generator")),
    ("operators.nnz", "count", lambda t: t.count("operators.nnz")),
    ("eigensolver.solve_s", "s", lambda t: t.inclusive("eigensolver.solve_ergodic_hjb")),
    ("eigensolver.evaluate_self_s", "s", lambda t: t.self_time("eigensolver.policy_evaluation")),
    ("eigensolver.improve_s", "s", lambda t: t.inclusive("eigensolver.policy_improvement")),
    (
        "eigensolver.residual_s",
        "s",
        lambda t: t.inclusive("eigensolver.pde_residual", "eigensolver.pointwise_residual"),
    ),
    ("eigensolver.evaluations", "count", lambda t: t.calls("eigensolver.policy_evaluation")),
    ("eigensolver.policy_iters", "count", lambda t: t.count("eigensolver.policy_iters")),
    ("eigensolver.unknowns", "count", lambda t: t.count("eigensolver.unknowns")),
    ("density.stationary_s", "s", lambda t: t.inclusive("density.stationary_density")),
    ("density.stationary_self_s", "s", lambda t: t.self_time("density.stationary_density")),
    ("density.stationary_calls", "count", lambda t: t.calls("density.stationary_density")),
    ("density.average_cost_s", "s", lambda t: t.inclusive("density.average_cost")),
    ("measure_lp.assemble_s", "s", lambda t: t.inclusive("measure_lp.assemble_lp")),
    ("measure_lp.columns", "count", lambda t: t.count("measure_lp.columns")),
    ("measure_lp.nnz", "count", lambda t: t.count("measure_lp.nnz")),
    ("measure_lp.solve_s", "s", lambda t: t.inclusive("measure_lp.solve_lp")),
    (
        "measure_lp.random_measure_s",
        "s",
        lambda t: t.inclusive("measure_lp.random_feasible_measure"),
    ),
    (
        "measure_lp.random_measures",
        "count",
        lambda t: t.calls("measure_lp.random_feasible_measure"),
    ),
    (
        "measure_lp.excess_identity_s",
        "s",
        lambda t: t.inclusive("measure_lp.excess_cost_identity"),
    ),
    ("simulate.simulate_s", "s", lambda t: t.inclusive("simulate.simulate_average")),
    ("simulate.compare_s", "s", lambda t: t.inclusive("simulate.compare_controls")),
    ("simulate.calls", "count", lambda t: t.calls("simulate.simulate_average")),
    ("simulate.path_steps", "count", lambda t: t.count("simulate.path_steps")),
    ("simulate.path_steps_per_s", "1/s", _path_steps_per_s),
    ("simulate.divergent_paths", "count", lambda t: t.count("simulate.divergent_paths")),
    ("estimates.audit_s", "s", lambda t: t.inclusive(*_layer_keys("estimates"))),
    ("serialize.write_s", "s", lambda t: t.inclusive(*_layer_keys("serialize"))),
    ("serialize.bytes", "B", lambda t: t.count("serialize.bytes")),
    ("serialize.files", "count", lambda t: t.count("serialize.files")),
    *(
        (f"{layer}.self_s", "s", functools.partial(lambda layer, t: t.layer_self(layer), layer))
        for layer in TARGETS
    ),
    ("trace.wall_s", "s", lambda t: t.inclusive(ROOT_TARGET)),
    ("trace.spans", "count", lambda t: len(t.spans)),
)


def layer_metrics(trace: Trace) -> dict:
    """Every per-layer metric as ``{name: {"value": v, "unit": u}}``."""
    return {name: {"value": reduce(trace), "unit": unit} for name, unit, reduce in METRICS}
