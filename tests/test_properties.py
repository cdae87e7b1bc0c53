"""Property-based tests (hypothesis) for the core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BETA_SYMMETRY_PERIOD, GAMMA_MAX
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.ml.kernels import RBFKernel
from repro.ml.metrics import mean_squared_error, r2_score, root_mean_squared_error
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import QAOAParameters, interpolate_parameters
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import StatevectorSimulator
from repro.utils.statistics import pearson_correlation

angles = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
small_depths = st.integers(min_value=1, max_value=4)


def build_problem(num_nodes: int, edge_bits: int) -> MaxCutProblem:
    """Deterministically build a connected-enough problem from a bit-mask."""
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    edges = [pairs[i] for i in range(len(pairs)) if (edge_bits >> i) & 1]
    if not edges:
        edges = [pairs[0]]
    return MaxCutProblem(Graph(num_nodes, edges))


class TestQuantumInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        gamma=angles,
        beta=angles,
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_circuits_preserve_norm(self, gamma, beta, seed):
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(3)
        for _ in range(4):
            qubit = int(rng.integers(0, 3))
            circuit.rx(gamma, qubit).rz(beta, qubit)
            other = int(rng.integers(0, 3))
            if other != qubit:
                circuit.cx(qubit, other)
        state = StatevectorSimulator().run(circuit)
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(gamma=angles, beta=angles)
    def test_qaoa_expectation_within_bounds(self, gamma, beta):
        problem = build_problem(5, 0b1011011)
        evaluator = ExpectationEvaluator(problem, 1)
        value = evaluator.expectation([gamma, beta])
        assert -1e-9 <= value <= problem.max_cut_value() + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(gamma=angles, beta=angles)
    def test_beta_symmetry_period(self, gamma, beta):
        problem = build_problem(5, 0b1110101)
        evaluator = ExpectationEvaluator(problem, 1)
        base = evaluator.expectation([gamma, beta])
        shifted = evaluator.expectation([gamma, beta + BETA_SYMMETRY_PERIOD])
        assert shifted == pytest.approx(base, abs=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(gamma=angles, beta=angles)
    def test_gamma_two_pi_period_unweighted(self, gamma, beta):
        problem = build_problem(4, 0b111111)
        evaluator = ExpectationEvaluator(problem, 1)
        base = evaluator.expectation([gamma, beta])
        shifted = evaluator.expectation([gamma + GAMMA_MAX, beta])
        assert shifted == pytest.approx(base, abs=1e-8)


class TestParameterProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        depth=small_depths,
        values=st.lists(angles, min_size=8, max_size=8),
    )
    def test_vector_roundtrip(self, depth, values):
        gammas = tuple(values[:depth])
        betas = tuple(values[4 : 4 + depth])
        params = QAOAParameters(gammas, betas)
        rebuilt = QAOAParameters.from_vector(params.to_vector())
        np.testing.assert_allclose(rebuilt.to_vector(), params.to_vector())

    @settings(max_examples=30, deadline=None)
    @given(
        depth=small_depths,
        new_depth=small_depths,
        values=st.lists(angles, min_size=8, max_size=8),
    )
    def test_interpolation_stays_within_range(self, depth, new_depth, values):
        params = QAOAParameters(tuple(values[:depth]), tuple(values[4 : 4 + depth]))
        resampled = interpolate_parameters(params, new_depth)
        assert resampled.depth == new_depth
        assert min(resampled.gammas) >= min(params.gammas) - 1e-12
        assert max(resampled.gammas) <= max(params.gammas) + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(values=st.lists(angles, min_size=6, max_size=6))
    def test_canonicalization_idempotent(self, values):
        params = QAOAParameters(tuple(values[:3]), tuple(values[3:]))
        once = params.canonicalized()
        twice = once.canonicalized()
        np.testing.assert_allclose(once.to_vector(), twice.to_vector(), atol=1e-10)


class TestGraphProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=6),
        edge_bits=st.integers(min_value=1, max_value=2**15 - 1),
        bits=st.integers(min_value=0, max_value=63),
    )
    def test_cut_complement_invariance(self, num_nodes, edge_bits, bits):
        problem = build_problem(num_nodes, edge_bits)
        assignment = [(bits >> k) & 1 for k in range(num_nodes)]
        complement = [1 - b for b in assignment]
        assert problem.cut_value(assignment) == pytest.approx(
            problem.cut_value(complement)
        )

    @settings(max_examples=25, deadline=None)
    @given(
        num_nodes=st.integers(min_value=2, max_value=6),
        edge_bits=st.integers(min_value=1, max_value=2**15 - 1),
    )
    def test_max_cut_bounded_by_total_weight(self, num_nodes, edge_bits):
        problem = build_problem(num_nodes, edge_bits)
        assert 0.0 < problem.max_cut_value() <= problem.graph.total_weight() + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_er_graphs_valid(self, seed):
        graph = erdos_renyi_graph(7, 0.5, seed=seed)
        assert graph.num_nodes == 7
        assert 1 <= graph.num_edges <= 21
        for u, v, weight in graph.edges:
            assert u < v
            assert weight == 1.0


class TestMLProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=3,
            max_size=20,
        )
    )
    def test_rmse_is_sqrt_mse(self, data):
        y_true = np.array(data)
        y_pred = y_true + 1.0
        assert root_mean_squared_error(y_true, y_pred) == pytest.approx(
            math.sqrt(mean_squared_error(y_true, y_pred))
        )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=4,
            max_size=20,
        ),
        shift=st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_r2_never_exceeds_one(self, data, shift):
        y_true = np.array(data)
        y_pred = y_true + shift
        assert r2_score(y_true, y_pred) <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=3, max_value=12),
    )
    def test_rbf_gram_matrix_psd(self, seed, size):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(size, 2))
        gram = RBFKernel(length_scale=0.7)(points, points)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() >= -1e-8

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.1, max_value=10.0),
        offset=st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_pearson_correlation_affine_invariance(self, seed, scale, offset):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        base = pearson_correlation(x, y)
        transformed = pearson_correlation(x, scale * y + offset)
        assert transformed == pytest.approx(base, abs=1e-9)
