"""Tests for the fast backend: transforms, dense oracle, batching, ensembles."""

import functools

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.backends import FastBackend
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.ensemble import EnsembleEvaluator
from repro.qaoa.landscape import depth_one_landscape
from repro.qaoa.parameters import QAOAParameters, random_parameters
from repro.qaoa.solver import QAOASolver
from repro.quantum.engine import CompiledProgram, _h_entries, _KronPowerOp

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _kron_all(matrix: np.ndarray, num_qubits: int) -> np.ndarray:
    return functools.reduce(np.kron, [matrix] * num_qubits)


def _dense_qaoa_state(problem: MaxCutProblem, parameters: QAOAParameters) -> np.ndarray:
    """Reference QAOA state from dense ``2^n x 2^n`` mixer matrices (small n)."""
    num_qubits = problem.num_qubits
    cost = problem.cost_diagonal()
    state = np.full(2**num_qubits, 2.0 ** (-num_qubits / 2), dtype=complex)
    for gamma, beta in zip(parameters.gammas, parameters.betas):
        rx = np.array(
            [[np.cos(beta), -1j * np.sin(beta)], [-1j * np.sin(beta), np.cos(beta)]]
        )
        state = _kron_all(rx, num_qubits) @ (np.exp(-1j * gamma * cost) * state)
    return state


def _fast(problem: MaxCutProblem, depth: int) -> ExpectationEvaluator:
    return ExpectationEvaluator(problem, depth, context="fast")


class TestFWHT:
    """The Walsh-Hadamard transform ``H^{(x) n}`` on the engine's Kronecker-power passes."""

    @staticmethod
    def _transform(num_qubits: int) -> _KronPowerOp:
        return _KronPowerOp(num_qubits, (None, None, _h_entries, ()))

    @staticmethod
    def _apply(op: _KronPowerOp, state: np.ndarray) -> np.ndarray:
        return op.apply(state.copy(), None, np.empty_like(state))[0]

    @pytest.mark.parametrize("num_qubits", range(1, 11))
    def test_matches_dense_matrix_on_random_states(self, num_qubits, rng):
        dim = 2**num_qubits
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        dense = _kron_all(_HADAMARD, num_qubits) @ state
        np.testing.assert_allclose(
            self._apply(self._transform(num_qubits), state), dense, atol=1e-10
        )

    def test_transforms_batch_columns_independently(self, rng):
        batch, dim = 7, 64
        rows = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
        op = self._transform(6)
        expected = np.vstack([self._apply(op, rows[j]) for j in range(batch)])
        np.testing.assert_allclose(self._apply(op, rows), expected, atol=1e-10)

    def test_is_an_involution_up_to_scale(self, rng):
        # Normalised, so the scale is 1.
        state = rng.normal(size=32) + 0j
        op = self._transform(5)
        np.testing.assert_allclose(self._apply(op, self._apply(op, state)), state, atol=1e-10)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(SimulationError):
            CompiledProgram.qaoa(np.zeros(12), 1)

    def test_reuses_caller_scratch(self, rng):
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        expected = self._apply(self._transform(4), state)
        work, scratch = state.copy(), np.empty_like(state)
        result, _ = self._transform(4).apply(work, None, scratch)
        # The passes ping-pong between the two caller buffers.
        assert result is work or result is scratch
        np.testing.assert_allclose(result, expected, atol=1e-12)


class TestFastAgainstDenseOracle:
    @pytest.mark.parametrize("num_nodes", [4, 7, 10])
    def test_statevector_matches_dense(self, num_nodes, rng):
        problem = MaxCutProblem(erdos_renyi_graph(num_nodes, 0.5, seed=num_nodes))
        program = _fast(problem, 2).program
        for _ in range(3):
            parameters = random_parameters(2, rng)
            np.testing.assert_allclose(
                program.statevector(parameters).data,
                _dense_qaoa_state(problem, parameters),
                atol=1e-10,
            )

    def test_expectation_matches_dense(self, small_problem, rng):
        for depth in (1, 3):
            parameters = random_parameters(depth, rng)
            dense = _dense_qaoa_state(small_problem, parameters)
            expected = float(np.abs(dense) ** 2 @ small_problem.cost_diagonal())
            assert _fast(small_problem, depth).expectation(
                parameters.to_vector()
            ) == pytest.approx(expected, abs=1e-10)

    def test_no_dense_matrix_attribute(self, small_problem):
        # The program must never materialise a 2^n x 2^n operator: it holds
        # the cut diagonal, a compact phase index and <= 16 x 16 blocks.
        program = _fast(small_problem, 2).program
        dim = 2**small_problem.num_qubits
        held = [
            value
            for value in [*vars(program).values(), *vars(program._engine).values()]
            if isinstance(value, np.ndarray)
        ]
        for op in program._engine._ops:
            held += [getattr(op, name) for name in getattr(op, "__slots__", ())]
        arrays = [value for value in held if isinstance(value, np.ndarray)]
        assert arrays
        assert all(array.ndim == 1 or array.size < dim * dim for array in arrays)
        assert all(array.size <= dim for array in arrays)

    def test_fast_ceiling_is_raised(self, small_problem):
        # The fast backend keeps the FWHT backend's 26-qubit ceiling.
        assert FastBackend.max_qubits == 26
        assert FastBackend().compile(small_problem, 1) is not None


class TestExpectationBatch:
    def test_matches_looped_scalar_calls(self, small_problem, rng):
        evaluator = _fast(small_problem, 3)
        matrix = np.array([random_parameters(3, rng).to_vector() for _ in range(9)])
        batch = evaluator.expectation_batch(matrix)
        scalars = np.array([evaluator.expectation(row) for row in matrix])
        np.testing.assert_allclose(batch, scalars, atol=1e-12)

    def test_accepts_parameter_objects(self, triangle_problem, rng):
        evaluator = _fast(triangle_problem, 2)
        params = [random_parameters(2, rng) for _ in range(4)]
        batch = evaluator.expectation_batch(params)
        scalars = [evaluator.expectation(p.to_vector()) for p in params]
        np.testing.assert_allclose(batch, scalars, atol=1e-12)

    def test_counts_evaluations(self, triangle_problem, rng):
        evaluator = _fast(triangle_problem, 1)
        evaluator.expectation_batch(
            np.array([random_parameters(1, rng).to_vector() for _ in range(5)])
        )
        assert evaluator.num_evaluations == 5

    def test_empty_batch(self, triangle_problem):
        evaluator = _fast(triangle_problem, 1)
        assert evaluator.expectation_batch(np.zeros((0, 2))).shape == (0,)

    def test_statevector_batch_columns_are_states(self, small_problem, rng):
        program = _fast(small_problem, 2).program
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        rows = program.probability_rows(matrix)
        assert rows.shape == (3, 2**small_problem.num_qubits)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-10)

    def test_mixed_depth_batch_rejected(self, triangle_problem, rng):
        evaluator = _fast(triangle_problem, 1)
        with pytest.raises(ConfigurationError):
            evaluator.expectation_batch(
                [random_parameters(1, rng), random_parameters(2, rng)]
            )

    def test_cost_evaluator_batch_both_backends_agree(self, triangle_problem, rng):
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        fast = ExpectationEvaluator(triangle_problem, 2, context="fast")
        circuit = ExpectationEvaluator(triangle_problem, 2, context="circuit")
        np.testing.assert_allclose(
            fast.expectation_batch(matrix),
            circuit.expectation_batch(matrix),
            atol=1e-9,
        )
        assert fast.num_evaluations == 3
        assert circuit.num_evaluations == 3

    def test_cost_evaluator_batch_validates_width(self, triangle_problem):
        evaluator = ExpectationEvaluator(triangle_problem, 2, context="fast")
        for matrix in (np.zeros((2, 3)), []):
            with pytest.raises(ConfigurationError):
                evaluator.expectation_batch(matrix)


class TestSolverRewire:
    def test_results_identical_at_fixed_seed(self, small_problem):
        # The batched engine must not change the default optimization flow.
        first = QAOASolver("L-BFGS-B", num_restarts=3, seed=11).solve(small_problem, 2)
        second = QAOASolver("L-BFGS-B", num_restarts=3, seed=11).solve(small_problem, 2)
        assert first.optimal_expectation == second.optimal_expectation
        assert first.optimal_parameters == second.optimal_parameters
        assert first.num_function_calls == second.num_function_calls
        assert first.initialization == "random"

    def test_candidate_pool_screens_starts(self, small_problem):
        solver = QAOASolver("L-BFGS-B", num_restarts=2, candidate_pool=12, seed=4)
        result = solver.solve(small_problem, 2)
        assert result.initialization == "screened"
        assert result.num_restarts == 2
        # Screening evaluations are charged to the function-call budget.
        assert result.num_function_calls >= 12 + sum(
            record.num_function_calls for record in result.restarts
        )

    def test_candidate_pool_finds_no_worse_optimum(self, small_problem):
        plain = QAOASolver("L-BFGS-B", num_restarts=2, seed=8).solve(small_problem, 2)
        screened = QAOASolver(
            "L-BFGS-B", num_restarts=2, candidate_pool=16, seed=8
        ).solve(small_problem, 2)
        assert screened.optimal_expectation >= plain.optimal_expectation - 0.1

    def test_invalid_candidate_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            QAOASolver("L-BFGS-B", candidate_pool=0)

    def test_landscape_matches_scalar_scan(self, triangle_problem):
        scan = depth_one_landscape(triangle_problem, gamma_resolution=6, beta_resolution=5)
        evaluator = _fast(triangle_problem, 1)
        for i, gamma in enumerate(scan.gamma_values):
            for j, beta in enumerate(scan.beta_values):
                assert scan.expectations[i, j] == pytest.approx(
                    evaluator.expectation([float(gamma), float(beta)]), abs=1e-12
                )


class TestEnsembleEvaluator:
    @pytest.fixture(scope="class")
    def problems(self):
        return [
            MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=seed)) for seed in range(4)
        ]

    def test_fans_vector_across_problems(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 2)
        vector = random_parameters(2, rng).to_vector()
        values = evaluator.expectation(vector)
        assert values.shape == (4,)
        for problem, value in zip(problems, values):
            expected = _fast(problem, 2).expectation(vector)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_batch_shape(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 2)
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(5)])
        assert evaluator.expectation_batch(matrix).shape == (4, 5)

    def test_process_pool_matches_serial(self, problems, rng):
        matrix = np.array([random_parameters(2, rng).to_vector() for _ in range(3)])
        serial = EnsembleEvaluator(problems, 2).expectation_batch(matrix)
        pooled = EnsembleEvaluator(problems, 2, max_workers=2).expectation_batch(matrix)
        np.testing.assert_allclose(serial, pooled, atol=1e-12)

    def test_approximation_ratios_bounded(self, problems, rng):
        evaluator = EnsembleEvaluator(problems, 1)
        ratios = evaluator.approximation_ratios(random_parameters(1, rng).to_vector())
        assert np.all(ratios >= 0.0) and np.all(ratios <= 1.0 + 1e-9)

    def test_accepts_graphs(self, rng):
        graphs = [erdos_renyi_graph(5, 0.5, seed=s) for s in range(2)]
        evaluator = EnsembleEvaluator(graphs, 1)
        assert evaluator.num_problems == 2

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ConfigurationError):
            EnsembleEvaluator([], 1)


class TestSampleCountsVectorized:
    def test_counts_sum_to_shots(self, small_problem, rng):
        state = _fast(small_problem, 1).program.statevector(random_parameters(1, rng))
        counts = state.sample_counts(500, rng=rng)
        assert sum(counts.values()) == 500
        assert all(len(key) == small_problem.num_qubits for key in counts)

    def test_deterministic_given_seeded_rng(self, small_problem):
        state = _fast(small_problem, 1).program.statevector(
            QAOAParameters((0.4,), (0.3,))
        )
        first = state.sample_counts(200, rng=np.random.default_rng(42))
        second = state.sample_counts(200, rng=np.random.default_rng(42))
        assert first == second
