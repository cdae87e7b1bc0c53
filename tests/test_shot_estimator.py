"""Tests for the finite-shot statistical layer.

Covers the :class:`~repro.quantum.noise.ShotEstimator` itself (seeded
determinism, 3-sigma convergence to the exact expectation, chi-square sanity
of the underlying ``sample_counts`` distribution) and its integration into
:class:`~repro.qaoa.cost.ExpectationEvaluator`,
:class:`~repro.qaoa.solver.QAOASolver` and the acceleration runners.
"""

import numpy as np
import pytest
from scipy import stats

from repro.acceleration.baseline import NaiveQAOARunner
from repro.acceleration.comparison import aggregate_records, compare_on_problem
from repro.acceleration.two_level import TwoLevelQAOARunner
from repro.exceptions import ConfigurationError, SimulationError
from repro.execution import ExecutionContext
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.optimizers.spsa import SPSAOptimizer
from repro.prediction.pipeline import PredictorPipelineConfig, train_default_predictor
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import QAOAParameters
from repro.qaoa.solver import QAOASolver
from repro.quantum.noise import (
    NoiseModel,
    ReadoutErrorModel,
    ShotEstimator,
    split_shots,
)
from repro.quantum.statevector import Statevector


def _problem(seed: int = 3, nodes: int = 6) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(nodes, 0.5, seed=seed))


def _qaoa_state(problem: MaxCutProblem) -> Statevector:
    return ExpectationEvaluator(problem, 1).program.statevector(
        QAOAParameters(gammas=(0.4,), betas=(0.3,))
    )


# ---------------------------------------------------------------------------
# ShotEstimator core
# ---------------------------------------------------------------------------

class TestShotEstimator:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShotEstimator(np.zeros(3), shots=10)  # not a power of two
        with pytest.raises(ConfigurationError):
            ShotEstimator(np.zeros(4), shots=0)
        estimator = ShotEstimator(np.zeros(4), shots=5)
        with pytest.raises(SimulationError):
            estimator.estimate(Statevector.zero_state(3))

    def test_seeded_determinism(self):
        """Same rng -> identical estimate, through both sampling entries."""
        problem = _problem()
        state = _qaoa_state(problem)
        diagonal = problem.cost_diagonal()
        for method in ("estimate", "estimate_probabilities"):
            values = []
            for _ in range(2):
                estimator = ShotEstimator(diagonal, shots=500, rng=11)
                if method == "estimate":
                    values.append(estimator.estimate(state))
                else:
                    values.append(
                        estimator.estimate_probabilities(state.probabilities())
                    )
            assert values[0] == values[1]

    def test_shots_accounting(self):
        estimator = ShotEstimator(np.array([0.0, 1.0]), shots=25, rng=0)
        state = Statevector.uniform_superposition(1)
        estimator.estimate(state)
        estimator.estimate(state, shots=10)
        estimator.estimate_probabilities(state.probabilities())
        assert estimator.shots_used == 25 + 10 + 25

    def test_converges_to_exact_within_3_sigma(self):
        """|estimate - exact| <= 3 sqrt(Var[h]/shots) for a seeded draw."""
        problem = _problem()
        state = _qaoa_state(problem)
        diagonal = problem.cost_diagonal()
        probabilities = state.probabilities()
        exact = float(probabilities @ diagonal)
        variance = float(probabilities @ diagonal**2) - exact**2
        for shots in (1000, 10000, 100000):
            estimator = ShotEstimator(diagonal, shots=shots, rng=2020)
            estimate = estimator.estimate(state)
            tolerance = 3.0 * np.sqrt(variance / shots)
            assert abs(estimate - exact) <= tolerance, (shots, estimate, exact)

    def test_estimate_entries_share_outcome_law(self):
        """sample_counts- and multinomial-based estimates agree statistically."""
        problem = _problem()
        state = _qaoa_state(problem)
        diagonal = problem.cost_diagonal()
        estimator = ShotEstimator(diagonal, shots=50000, rng=7)
        via_counts = estimator.estimate(state)
        via_multinomial = estimator.estimate_probabilities(state.probabilities())
        exact = float(state.probabilities() @ diagonal)
        variance = float(state.probabilities() @ diagonal**2) - exact**2
        tolerance = 6.0 * np.sqrt(variance / 50000)
        assert abs(via_counts - via_multinomial) <= tolerance

    def test_estimate_batch_shapes_and_determinism(self):
        problem = _problem()
        program = ExpectationEvaluator(problem, 1).program
        matrix = np.array([[0.4, 0.3], [0.1, 0.2], [0.7, 0.9]])
        probabilities = program.probability_rows(matrix).T
        first = ShotEstimator(problem.cost_diagonal(), 200, rng=4).estimate_batch(
            probabilities
        )
        second = ShotEstimator(problem.cost_diagonal(), 200, rng=4).estimate_batch(
            probabilities
        )
        assert first.shape == (3,)
        assert np.array_equal(first, second)

    def test_split_shots(self):
        assert split_shots(10, 4) == [3, 3, 2, 2]
        assert split_shots(2, 4) == [1, 1, 0, 0]
        assert sum(split_shots(1023, 7)) == 1023
        with pytest.raises(ConfigurationError):
            split_shots(10, 0)


class TestSampleCountsDistribution:
    def test_chi_square_against_exact_probabilities(self):
        """Sampled counts are consistent with the exact distribution.

        Chi-square goodness-of-fit over the basis states with expected
        counts >= 5 (sparser outcomes are pooled), seeded so the test is
        deterministic.
        """
        problem = _problem()
        state = _qaoa_state(problem)
        shots = 20000
        counts = state.sample_counts(shots, rng=np.random.default_rng(2020))
        probabilities = state.probabilities()
        observed = np.zeros(state.dim)
        for bitstring, count in counts.items():
            observed[int(bitstring, 2)] = count
        expected = probabilities * shots
        dense = expected >= 5.0
        observed_binned = np.append(observed[dense], observed[~dense].sum())
        expected_binned = np.append(expected[dense], expected[~dense].sum())
        # Guard: an empty pooled bin would make chisquare reject the shapes.
        if expected_binned[-1] == 0.0:
            observed_binned = observed_binned[:-1]
            expected_binned = expected_binned[:-1]
        statistic, p_value = stats.chisquare(observed_binned, expected_binned)
        assert p_value > 1e-3, (statistic, p_value)


# ---------------------------------------------------------------------------
# ExpectationEvaluator integration
# ---------------------------------------------------------------------------

class TestStochasticEvaluator:
    def test_configuration_validation(self):
        problem = _problem()
        with pytest.raises(ConfigurationError):
            ExpectationEvaluator(problem, 1, context=ExecutionContext(shots=0))
        with pytest.raises(ConfigurationError):
            ExpectationEvaluator(problem, 1, context=ExecutionContext(trajectories=0))

    def test_default_configuration_is_exact(self):
        problem = _problem()
        evaluator = ExpectationEvaluator(problem, 1)
        assert not evaluator.is_stochastic
        assert evaluator.shots is None and evaluator.noise_model is None
        assert evaluator.trajectories == 1
        assert evaluator.shots_used == 0

    @pytest.mark.parametrize("backend", ["fast", "circuit"])
    def test_shot_estimates_deterministic_per_backend(self, backend):
        problem = _problem()
        point = [0.4, 0.3]
        values = [
            ExpectationEvaluator(
                problem, 1, context=ExecutionContext(backend=backend, shots=256), rng=5
            ).expectation(point)
            for _ in range(2)
        ]
        assert values[0] == values[1]

    @pytest.mark.parametrize("backend", ["fast", "circuit"])
    def test_shot_estimate_converges(self, backend):
        problem = _problem()
        point = [0.4, 0.3]
        exact = ExpectationEvaluator(problem, 1).expectation(point)
        state = _qaoa_state(problem)
        diagonal = problem.cost_diagonal()
        variance = float(state.probabilities() @ diagonal**2) - exact**2
        shots = 50000
        estimate = ExpectationEvaluator(
            problem, 1, context=ExecutionContext(backend=backend, shots=shots), rng=2020
        ).expectation(point)
        assert abs(estimate - exact) <= 3.0 * np.sqrt(variance / shots)

    def test_shots_used_accounting(self):
        problem = _problem()
        evaluator = ExpectationEvaluator(
            problem, 1, context=ExecutionContext(shots=100), rng=0
        )
        evaluator.expectation([0.4, 0.3])
        evaluator.expectation_batch(np.array([[0.4, 0.3], [0.1, 0.2]]))
        assert evaluator.shots_used == 300
        assert evaluator.num_evaluations == 3

    def test_noise_splits_shot_budget_over_trajectories(self):
        problem = _problem()
        evaluator = ExpectationEvaluator(
            problem,
            1,
            context=ExecutionContext(
                shots=100,
                noise_model=NoiseModel.uniform_depolarizing(0.01),
                trajectories=8,
            ),
            rng=1,
        )
        evaluator.expectation([0.4, 0.3])
        assert evaluator.shots_used == 100
        assert evaluator.trajectories_run == 8

    def test_noise_without_shots_averages_exact_trajectories(self):
        problem = _problem()
        evaluator = ExpectationEvaluator(
            problem,
            1,
            context=ExecutionContext(
                noise_model=NoiseModel.uniform_depolarizing(0.0), trajectories=3
            ),
            rng=1,
        )
        # Zero-strength noise: trajectory average equals the exact value.
        exact = ExpectationEvaluator(problem, 1).expectation([0.4, 0.3])
        assert evaluator.expectation([0.4, 0.3]) == pytest.approx(exact, abs=1e-12)
        assert evaluator.shots_used == 0

    @pytest.mark.parametrize("backend", ["fast", "circuit"])
    def test_stochastic_batch_deterministic(self, backend):
        problem = _problem()
        matrix = np.array([[0.4, 0.3], [0.1, 0.2]])
        results = [
            ExpectationEvaluator(
                problem, 1, context=ExecutionContext(backend=backend, shots=128), rng=9
            ).expectation_batch(matrix)
            for _ in range(2)
        ]
        assert np.array_equal(results[0], results[1])

    def test_noisy_batch_matches_scalar_loop(self):
        problem = _problem()
        matrix = np.array([[0.4, 0.3], [0.1, 0.2]])
        model = NoiseModel.uniform_depolarizing(0.02)
        stochastic = ExecutionContext(shots=64, noise_model=model, trajectories=2)
        batch = ExpectationEvaluator(
            problem, 1, context=stochastic, rng=3
        ).expectation_batch(matrix)
        scalar_evaluator = ExpectationEvaluator(problem, 1, context=stochastic, rng=3)
        scalar = np.array([scalar_evaluator.expectation(row) for row in matrix])
        assert np.array_equal(batch, scalar)


# ---------------------------------------------------------------------------
# Solver and runner integration
# ---------------------------------------------------------------------------

class TestStochasticSolver:
    def test_defaults_to_spsa_for_stochastic_oracle(self):
        assert QAOASolver(context=ExecutionContext(shots=64)).optimizer.name == "SPSA"
        assert (
            QAOASolver(
                context=ExecutionContext(
                    noise_model=NoiseModel.uniform_depolarizing(0.01)
                )
            ).optimizer.name
            == "SPSA"
        )
        assert QAOASolver().optimizer.name == "L-BFGS-B"

    def test_explicit_optimizer_is_respected(self):
        solver = QAOASolver("COBYLA", ExecutionContext(shots=64))
        assert solver.optimizer.name == "COBYLA"
        instance = SPSAOptimizer(max_iterations=10)
        assert QAOASolver(instance, ExecutionContext(shots=32)).optimizer is instance

    def test_shot_budget_reported(self):
        problem = _problem()
        result = QAOASolver(context=ExecutionContext(shots=64), seed=0).solve(problem, 1)
        assert result.optimizer_name == "SPSA"
        assert result.num_shots == 64 * result.num_function_calls
        assert result.to_dict()["num_shots"] == result.num_shots

    def test_exact_solve_reports_zero_shots(self):
        problem = _problem()
        result = QAOASolver(seed=0).solve(problem, 1)
        assert result.num_shots == 0

    def test_seeded_solve_is_reproducible(self):
        problem = _problem()
        results = [
            QAOASolver(
                context=ExecutionContext(
                    shots=64,
                    noise_model=NoiseModel.uniform_depolarizing(0.005),
                    trajectories=2,
                ),
                seed=4,
            ).solve(problem, 1, seed=7)
            for _ in range(2)
        ]
        assert results[0].optimal_expectation == results[1].optimal_expectation
        assert np.array_equal(
            results[0].optimal_parameters.to_vector(),
            results[1].optimal_parameters.to_vector(),
        )
        assert results[0].num_shots == results[1].num_shots

    def test_per_solve_seed_reproducible_on_long_lived_solver(self):
        """A per-call seed reproduces the stochastic run, SPSA draws included.

        The auto-wired SPSA is rebuilt on the call-level generator, so state
        must not leak from one solve() into the next on the same instance.
        """
        problem = _problem()
        solver = QAOASolver(context=ExecutionContext(shots=64), seed=0)
        first = solver.solve(problem, 1, seed=11)
        second = solver.solve(problem, 1, seed=11)
        assert first.optimal_expectation == second.optimal_expectation
        assert np.array_equal(
            first.optimal_parameters.to_vector(),
            second.optimal_parameters.to_vector(),
        )

    def test_screening_shots_are_accounted(self):
        problem = _problem()
        result = QAOASolver(
            context=ExecutionContext(shots=32),
            num_restarts=1,
            candidate_pool=8,
            seed=0,
        ).solve(problem, 1)
        assert result.initialization == "screened"
        assert result.num_shots == 32 * result.num_function_calls

    def test_solver_forwards_readout_error(self):
        """Readout corruption + mitigation thread through the whole solve."""
        problem = _problem()
        readout = ReadoutErrorModel(problem.num_qubits, p0_to_1=0.05, p1_to_0=0.02)
        for mitigate in (False, True):
            readout_context = ExecutionContext(
                shots=64, readout_error=readout, mitigate_readout=mitigate
            )
            solver = QAOASolver(context=readout_context, seed=0)
            assert solver.readout_error is readout
            first = solver.solve(problem, 1, seed=21)
            second = QAOASolver(context=readout_context, seed=0).solve(
                problem, 1, seed=21
            )
            assert first.optimal_expectation == second.optimal_expectation
            assert first.num_shots == 64 * first.num_function_calls

    def test_solver_density_mode_is_deterministic_without_shots(self):
        """Exact noisy density oracle: no SPSA auto-wiring, no randomness."""
        problem = _problem()
        model = NoiseModel.uniform_depolarizing(0.01)
        density_context = ExecutionContext(
            backend="circuit", density=True, noise_model=model
        )
        solver = QAOASolver(context=density_context, seed=0)
        assert solver.density and solver.optimizer.name == "L-BFGS-B"
        first = solver.solve(problem, 1, seed=3)
        second = QAOASolver(context=density_context, seed=0).solve(problem, 1, seed=3)
        assert first.optimal_expectation == second.optimal_expectation
        assert first.num_shots == 0


class TestStochasticRunners:
    @pytest.fixture(scope="class")
    def tiny_predictor(self):
        predictor, _ = train_default_predictor(
            PredictorPipelineConfig(num_graphs=4, depths=(1, 2), num_restarts=1),
            seed=2020,
        )
        return predictor

    def test_naive_runner_reports_shots(self):
        problem = _problem()
        outcome = NaiveQAOARunner(
            context=ExecutionContext(shots=32), num_restarts=2, seed=0
        ).run(problem, 2)
        assert outcome.optimizer_name == "SPSA"
        assert outcome.total_shots == 32 * outcome.total_function_calls

    def test_two_level_runner_reports_shots(self, tiny_predictor):
        problem = _problem(seed=9)
        runner = TwoLevelQAOARunner(
            tiny_predictor, context=ExecutionContext(shots=32), seed=0
        )
        outcome = runner.run(problem, 2)
        assert outcome.total_shots == 32 * outcome.total_function_calls
        assert outcome.level1_result.num_shots > 0
        assert outcome.level2_result.num_shots > 0

    def test_comparison_records_shot_budgets(self, tiny_predictor):
        problem = _problem(seed=9)
        record = compare_on_problem(
            problem,
            2,
            tiny_predictor,
            context=ExecutionContext(shots=32),
            num_restarts=2,
            seed=1,
        )
        assert record.naive_total_shots > 0
        assert record.two_level_total_shots > 0
        summary = aggregate_records([record])
        assert summary.naive_mean_shots == record.naive_total_shots
        assert summary.as_dict()["two_level_mean_shots"] == record.two_level_total_shots

    def test_exact_comparison_backwards_compatible(self, tiny_predictor):
        problem = _problem(seed=9)
        record = compare_on_problem(problem, 2, tiny_predictor, num_restarts=2, seed=1)
        assert record.naive_total_shots == 0
        assert record.two_level_total_shots == 0
        assert record.optimizer_name == "L-BFGS-B"
