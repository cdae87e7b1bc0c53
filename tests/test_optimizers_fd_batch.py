"""Batched finite-difference gradients, pinned bit for bit to SciPy's own FD.

L-BFGS-B and SLSQP receive ``jac=`` from :func:`forward_difference`, which
sends the ``d`` probes of one gradient through one batched objective call.
These tests pin that path to a test-local oracle — plain
``scipy.optimize.minimize`` without ``jac``, letting SciPy difference the
objective itself — on function calls, optimum and parameters, bit for bit;
pin the helper's probe points and gradient to SciPy's ``approx_derivative``;
check the batched evaluator rows against scalar calls; and check the
``num_gradient_calls`` accounting.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize as scipy_optimize
from scipy.optimize._numdiff import approx_derivative

import repro.qaoa.backends as backends_module
import repro.qaoa.cost as cost_module
from repro.execution import ExecutionContext
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.optimizers import (
    CobylaOptimizer,
    CountingObjective,
    FiniteDifferenceGradientDescent,
    LBFGSBOptimizer,
    NelderMeadOptimizer,
    SLSQPOptimizer,
)
from repro.optimizers.scipy_optimizers import forward_difference
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import parameter_bounds, random_parameters
from repro.qaoa.solver import QAOASolver
from repro.quantum.noise import NoiseModel, ReadoutErrorModel

READOUT = ReadoutErrorModel(5, p0_to_1=0.02, p1_to_0=0.05)

CONTEXTS = {
    "fast": ExecutionContext(),
    "circuit": ExecutionContext(backend="circuit"),
    "density": ExecutionContext(
        backend="circuit", density=True, noise_model=NoiseModel.uniform_depolarizing(0.01)
    ),
    "readout": ExecutionContext(readout_error=READOUT),
    "readout-mitigated": ExecutionContext(readout_error=READOUT, mitigate_readout=True),
}


def rosenbrock(x):
    x = np.asarray(x)
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def scipy_oracle(function, x0, method, bounds=None, options=None):
    """The earlier optimizer call: ``minimize`` without ``jac``, counted.

    Returns ``(function calls, optimum, parameters)`` with the same
    best-evaluated-point rule as the optimizers.
    """
    calls = []

    def counted(x):
        value = float(function(np.asarray(x, dtype=float)))
        calls.append((value, np.array(x, dtype=float)))
        return value

    merged = {"maxiter": 10000, "ftol": 1e-6}
    merged.update(options or {})
    result = scipy_optimize.minimize(counted, x0, method=method, bounds=bounds, options=merged)
    best_value, best_point = calls[0]
    for value, point in calls[1:]:
        if value < best_value:
            best_value, best_point = value, point
    if best_value < float(result.fun):
        return len(calls), best_value, best_point
    return len(calls), float(result.fun), np.asarray(result.x, dtype=float)


def assert_same(result, oracle):
    calls, value, point = oracle
    assert result.num_function_calls == calls
    assert result.optimal_value == value
    assert np.array_equal(result.optimal_parameters, point)


def row_batch(function):
    """A batch objective that evaluates rows one by one, logging each batch."""
    sizes = []

    def batch(points):
        sizes.append(len(points))
        return np.array([function(point) for point in points])

    batch.sizes = sizes
    return batch


GRADIENT_OPTIMIZERS = {"L-BFGS-B": LBFGSBOptimizer, "SLSQP": SLSQPOptimizer}


class TestAgainstScipyOracle:
    @pytest.mark.parametrize("method", sorted(GRADIENT_OPTIMIZERS))
    @pytest.mark.parametrize(
        "bounds",
        [None, [(-2.0, 2.0)] * 3, [(1.0, 3.0), (-2.0, 0.5), (-1.0, 1.0)]],
        ids=["unbounded", "box", "start-on-bound"],
    )
    @pytest.mark.parametrize("batched", [False, True])
    def test_rosenbrock_bit_identical(self, method, bounds, batched):
        x0 = np.array([1.0, -1.2, 0.8])
        batch = row_batch(rosenbrock) if batched else None
        result = GRADIENT_OPTIMIZERS[method]().minimize(rosenbrock, x0, bounds, batch=batch)
        assert_same(result, scipy_oracle(rosenbrock, x0, method, bounds))

    @pytest.mark.parametrize("method", sorted(GRADIENT_OPTIMIZERS))
    def test_fixed_variable_dropped_like_scipy(self, method):
        bounds = [(-2.0, 2.0), (0.5, 0.5), (-2.0, 2.0)]
        x0 = np.array([1.5, 0.5, -1.0])
        batch = row_batch(rosenbrock)
        result = GRADIENT_OPTIMIZERS[method]().minimize(rosenbrock, x0, bounds, batch=batch)
        assert_same(result, scipy_oracle(rosenbrock, x0, method, bounds))
        assert set(batch.sizes) == {2}  # the fixed variable is never probed
        assert result.optimal_parameters[1] == 0.5

    def test_lbfgsb_maxfun_counts_probes_like_scipy(self):
        x0 = np.array([-1.0, 1.0, 0.5])
        options = {"maxfun": 40}
        result = LBFGSBOptimizer(options=options).minimize(rosenbrock, x0)
        oracle = scipy_oracle(rosenbrock, x0, "L-BFGS-B", options=options)
        assert_same(result, oracle)
        assert not result.converged

    def test_custom_eps_option_is_the_step(self):
        x0 = np.array([-1.0, 1.0])
        options = {"eps": 1e-5}
        result = SLSQPOptimizer(options=options).minimize(rosenbrock, x0)
        assert_same(result, scipy_oracle(rosenbrock, x0, "SLSQP", options=options))

    @pytest.mark.parametrize(
        "context, seed",
        [("fast", 0), ("fast", 1), ("fast", 2), ("circuit", 0), ("circuit", 1),
         ("circuit", 2), ("density", 1)],
    )
    @pytest.mark.parametrize("method", sorted(GRADIENT_OPTIMIZERS))
    def test_seeded_qaoa_solves_bit_identical(self, context, seed, method):
        depth = 2
        problem = MaxCutProblem(erdos_renyi_graph(5, 0.6, seed=seed))
        start = random_parameters(depth, np.random.default_rng(seed)).to_vector()
        bounds = parameter_bounds(depth) if seed == 1 else None
        solver = QAOASolver(method, context=CONTEXTS[context], use_bounds=bounds is not None)
        result = solver.solve(problem, depth, initial_parameters=start)
        evaluator = ExpectationEvaluator(problem, depth, context=CONTEXTS[context])
        calls, value, point = scipy_oracle(
            lambda x: -evaluator.expectation(x), start, method, bounds
        )
        assert result.num_function_calls == calls
        assert result.optimal_expectation == -value
        assert np.array_equal(result.optimal_parameters.to_vector(), point)


class TestForwardDifference:
    """Probe points and gradient equal SciPy's ``approx_derivative``."""

    CASES = {
        "interior": ([0.3, -1.2, 2.0], [(-5.0, 5.0)] * 3),
        "unbounded": ([0.3, -1.2, 2.0], [(-np.inf, np.inf)] * 3),
        "on-upper-bound": ([1.0, 0.0, 2.0], [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0)]),
        "on-lower-bound": ([0.0, -1.0, 0.5], [(0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)]),
        "step-fits-neither-side": ([0.5, 0.5 + 2e-10, 0.5 - 1e-10], [(0.5 - 1e-10, 0.5 + 3e-10)] * 3),
        "step-vanishes": ([1e9, -3e8, 0.0], [(-np.inf, np.inf)] * 3),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("step", [1e-8, float(np.sqrt(np.finfo(float).eps))])
    def test_matches_approx_derivative(self, case, step):
        point, bounds = self.CASES[case]
        point = np.array(point)
        lower, upper = np.array(bounds).T

        def function(x):
            return float(np.sin(x).sum() + 0.25 * (x**2).prod() + x[0])

        scipy_points = []

        def logged(x):
            scipy_points.append(np.array(x))
            return function(x)

        expected = approx_derivative(
            logged, point, method="2-point", abs_step=step,
            f0=function(point), bounds=(lower, upper),
        )
        batch = row_batch(function)
        objective = CountingObjective(function, batch=batch)
        objective(point)
        probes = []
        objective_batch = objective.evaluate_batch

        def spy(points):
            probes.extend(np.array(points))
            return objective_batch(points)

        objective.evaluate_batch = spy
        gradient = forward_difference(objective, point, step, lower, upper)
        assert np.array_equal(gradient, expected)
        assert np.array_equal(np.array(probes), np.array(scipy_points))
        assert batch.sizes == [point.size]
        assert objective.num_evaluations == 1 + point.size  # f(x) reused


class TestGradientCallAccounting:
    @pytest.mark.parametrize(
        "optimizer, probes_per_gradient",
        [
            (LBFGSBOptimizer(), 1),
            (SLSQPOptimizer(), 1),
            (FiniteDifferenceGradientDescent(max_iterations=40), 2),
        ],
        ids=["L-BFGS-B", "SLSQP", "gradient-descent"],
    )
    def test_probes_equal_gradient_calls_times_dimension(self, optimizer, probes_per_gradient):
        x0 = np.array([0.4, -0.3, 0.9, 0.1])
        batch = row_batch(rosenbrock)
        result = optimizer.minimize(rosenbrock, x0, batch=batch)
        assert result.num_gradient_calls == len(batch.sizes) > 0
        assert sum(batch.sizes) == result.num_gradient_calls * x0.size * probes_per_gradient
        assert result.num_function_calls > sum(batch.sizes)

    @pytest.mark.parametrize("optimizer", [NelderMeadOptimizer(), CobylaOptimizer()])
    def test_gradient_free_methods_report_zero(self, optimizer):
        result = optimizer.minimize(rosenbrock, [0.4, -0.3])
        assert result.num_gradient_calls == 0

    def test_default_batch_is_a_scalar_loop(self):
        x0 = np.array([0.4, -0.3, 0.9])
        looped = LBFGSBOptimizer().minimize(rosenbrock, x0)
        batched = LBFGSBOptimizer().minimize(rosenbrock, x0, batch=row_batch(rosenbrock))
        assert looped.num_gradient_calls == batched.num_gradient_calls > 0
        assert looped.num_function_calls == batched.num_function_calls
        assert np.array_equal(looped.optimal_parameters, batched.optimal_parameters)

    def test_maximize_negates_the_batch(self):
        x0 = np.array([0.4, -0.3])

        def upside_down(x):
            return -rosenbrock(x)

        maximum = LBFGSBOptimizer().maximize(upside_down, x0, batch=row_batch(upside_down))
        minimum = LBFGSBOptimizer().minimize(rosenbrock, x0)
        assert maximum.optimal_value == -minimum.optimal_value
        assert np.array_equal(maximum.optimal_parameters, minimum.optimal_parameters)

    def test_batch_columns_are_counted_and_observed_in_order(self):
        seen = []
        objective = CountingObjective(
            rosenbrock, record_history=True, observer=lambda n, v: seen.append((n, v))
        )
        values = objective.evaluate_batch(np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]]))
        assert objective.num_evaluations == 3
        assert objective.num_batches == 1
        assert objective.history == list(values)
        assert seen == [(1, values[0]), (2, values[1]), (3, values[2])]
        assert objective.best_value == 0.0

    def test_solver_sends_probes_as_one_batch(self, monkeypatch):
        problem = MaxCutProblem(erdos_renyi_graph(5, 0.6, seed=0))
        scalar, batched = ExpectationEvaluator.expectation, ExpectationEvaluator.expectation_batch
        scalar_calls, sizes = [], []

        def scalar_spy(self, vector):
            scalar_calls.append(1)
            return scalar(self, vector)

        def batch_spy(self, matrix):
            sizes.append(len(matrix))
            return batched(self, matrix)

        monkeypatch.setattr(ExpectationEvaluator, "expectation", scalar_spy)
        monkeypatch.setattr(ExpectationEvaluator, "expectation_batch", batch_spy)
        result = QAOASolver(seed=0).solve(problem, depth=2)
        assert sizes and set(sizes) == {4}
        assert result.num_function_calls == len(scalar_calls) + sum(sizes)

    def test_stochastic_solver_keeps_scalar_calls(self, monkeypatch):
        problem = MaxCutProblem(erdos_renyi_graph(5, 0.6, seed=0))
        sizes = []
        batched = ExpectationEvaluator.expectation_batch

        def batch_spy(self, matrix):
            sizes.append(len(matrix))
            return batched(self, matrix)

        monkeypatch.setattr(ExpectationEvaluator, "expectation_batch", batch_spy)
        solver = QAOASolver("L-BFGS-B", context=ExecutionContext(shots=64), seed=0)
        solver.solve(problem, depth=1)
        assert sizes == []


class TestBatchRowsMatchScalarCalls:
    """``expectation_batch(X)[i]`` is bitwise ``expectation(X[i])``."""

    @settings(max_examples=15, deadline=None)
    @given(
        context=st.sampled_from(sorted(CONTEXTS)),
        depth=st.integers(min_value=1, max_value=3),
        size=st.sampled_from(["one", "gradient", "beyond-chunk"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_rows_bitwise_equal(self, context, depth, size, seed):
        problem = MaxCutProblem(erdos_renyi_graph(5, 0.6, seed=seed % 7))
        evaluator = ExpectationEvaluator(problem, depth, context=CONTEXTS[context])
        rows = {"one": 1, "gradient": 2 * depth, "beyond-chunk": 5}[size]
        points = np.random.default_rng(seed).uniform(-1.0, 7.0, size=(rows, 2 * depth))
        # A two-row chunk budget makes the five-row batch span three chunks.
        budget = 2 * 2**problem.num_qubits
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(backends_module, "BATCH_ELEMENT_BUDGET", budget)
            patch.setattr(cost_module, "BATCH_ELEMENT_BUDGET", budget)
            batched = evaluator.expectation_batch(points)
        scalars = np.array([evaluator.expectation(point) for point in points])
        assert np.array_equal(batched, scalars)
