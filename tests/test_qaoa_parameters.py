"""Tests for repro.qaoa.parameters."""

import math

import numpy as np
import pytest

from repro.config import BETA_MAX, BETA_SYMMETRY_PERIOD, GAMMA_MAX
from repro.exceptions import ConfigurationError
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import (
    QAOAParameters,
    canonicalize_for_graph,
    interpolate_parameters,
    linear_ramp_parameters,
    parameter_bounds,
    random_parameters,
)


class TestQAOAParameters:
    def test_depth_and_counts(self):
        params = QAOAParameters((0.1, 0.2), (0.3, 0.4))
        assert params.depth == 2
        assert params.num_parameters == 4

    def test_stage_access_is_one_indexed(self):
        params = QAOAParameters((0.1, 0.2), (0.3, 0.4))
        assert params.gamma(1) == pytest.approx(0.1)
        assert params.beta(2) == pytest.approx(0.4)

    def test_invalid_stage_raises(self):
        params = QAOAParameters((0.1,), (0.2,))
        with pytest.raises(ConfigurationError):
            params.gamma(0)
        with pytest.raises(ConfigurationError):
            params.beta(2)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ConfigurationError):
            QAOAParameters((0.1, 0.2), (0.3,))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            QAOAParameters((), ())

    def test_vector_roundtrip(self):
        params = QAOAParameters((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))
        rebuilt = QAOAParameters.from_vector(params.to_vector())
        assert rebuilt == params

    def test_vector_layout(self):
        params = QAOAParameters((1.0, 2.0), (3.0, 4.0))
        np.testing.assert_allclose(params.to_vector(), [1.0, 2.0, 3.0, 4.0])

    def test_from_vector_odd_length_raises(self):
        with pytest.raises(ConfigurationError):
            QAOAParameters.from_vector([1.0, 2.0, 3.0])

    def test_folded_into_domain(self):
        params = QAOAParameters((GAMMA_MAX + 0.5, -0.5), (BETA_MAX + 0.1, -0.1))
        folded = params.folded()
        for gamma in folded.gammas:
            assert 0.0 <= gamma < GAMMA_MAX
        for beta in folded.betas:
            assert 0.0 <= beta < BETA_MAX


class TestCanonicalization:
    def test_canonical_domain(self):
        params = QAOAParameters((5.8, 4.0), (2.9, 1.7))
        canonical = params.canonicalized()
        assert 0.0 <= canonical.gammas[0] <= GAMMA_MAX / 2.0 + 1e-12
        for beta in canonical.betas:
            assert 0.0 <= beta < BETA_SYMMETRY_PERIOD

    def test_canonicalization_is_idempotent(self):
        params = QAOAParameters((5.8, 1.0), (2.9, 0.2))
        once = params.canonicalized()
        twice = once.canonicalized()
        np.testing.assert_allclose(once.to_vector(), twice.to_vector(), atol=1e-12)

    def test_expectation_invariant_under_canonicalization(self, small_problem, rng):
        evaluator = ExpectationEvaluator(small_problem, 2)
        for _ in range(5):
            params = random_parameters(2, rng)
            shifted = QAOAParameters(
                tuple(g + GAMMA_MAX for g in params.gammas),
                tuple(b + BETA_SYMMETRY_PERIOD for b in params.betas),
            )
            assert evaluator.expectation(shifted.canonicalized()) == pytest.approx(
                evaluator.expectation(params), abs=1e-9
            )

    def test_conjugation_symmetry_of_expectation(self, small_problem, rng):
        evaluator = ExpectationEvaluator(small_problem, 3)
        params = random_parameters(3, rng)
        conjugated = QAOAParameters(
            tuple(-g for g in params.gammas), tuple(-b for b in params.betas)
        )
        assert evaluator.expectation(conjugated) == pytest.approx(
            evaluator.expectation(params), abs=1e-9
        )


class TestGraphAwareCanonicalization:
    def test_regular_graph_gamma_reduced_below_pi(self, regular_problem, rng):
        params = random_parameters(3, rng)
        canonical = canonicalize_for_graph(params, regular_problem.graph)
        assert all(0.0 <= g <= math.pi + 1e-9 for g in canonical.gammas)

    def test_expectation_invariant_on_regular_graph(self, regular_problem, rng):
        evaluator = ExpectationEvaluator(regular_problem, 2)
        for _ in range(4):
            params = random_parameters(2, rng)
            canonical = canonicalize_for_graph(params, regular_problem.graph)
            assert evaluator.expectation(canonical) == pytest.approx(
                evaluator.expectation(params), abs=1e-8
            )

    def test_even_degree_graph_falls_back_to_base_fold(self, square_problem, rng):
        params = random_parameters(2, rng)
        canonical = canonicalize_for_graph(params, square_problem.graph)
        base = params.canonicalized()
        assert canonical.to_vector() == pytest.approx(list(base.to_vector()))

    def test_none_graph_uses_base_fold(self, rng):
        params = random_parameters(2, rng)
        assert canonicalize_for_graph(params, None) == params.canonicalized()


class TestSamplingAndBounds:
    def test_random_parameters_in_domain(self, rng):
        params = random_parameters(4, rng)
        assert all(0.0 <= g <= GAMMA_MAX for g in params.gammas)
        assert all(0.0 <= b <= BETA_MAX for b in params.betas)

    def test_random_parameters_deterministic_seed(self):
        a = random_parameters(3, 5)
        b = random_parameters(3, 5)
        assert a == b

    def test_parameter_bounds_layout(self):
        bounds = parameter_bounds(2)
        assert bounds == [(0.0, GAMMA_MAX)] * 2 + [(0.0, BETA_MAX)] * 2

    def test_invalid_depth_raises(self):
        with pytest.raises(ConfigurationError):
            random_parameters(0)
        with pytest.raises(ConfigurationError):
            parameter_bounds(0)


class TestSchedules:
    def test_interpolation_preserves_endpoints(self):
        params = QAOAParameters((0.2, 0.4, 0.6), (0.5, 0.3, 0.1))
        extended = interpolate_parameters(params, 5)
        assert extended.depth == 5
        assert extended.gammas[0] == pytest.approx(0.2)
        assert extended.gammas[-1] == pytest.approx(0.6)
        assert extended.betas[0] == pytest.approx(0.5)
        assert extended.betas[-1] == pytest.approx(0.1)

    def test_interpolation_from_depth_one_is_constant(self):
        params = QAOAParameters((0.3,), (0.2,))
        extended = interpolate_parameters(params, 4)
        assert set(extended.gammas) == {0.3}
        assert set(extended.betas) == {0.2}

    def test_interpolation_same_depth_is_identity(self):
        params = QAOAParameters((0.1, 0.2), (0.3, 0.4))
        assert interpolate_parameters(params, 2) is params

    def test_interpolation_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            interpolate_parameters(QAOAParameters((0.1,), (0.2,)), 0)

    def test_linear_ramp_trends(self):
        params = linear_ramp_parameters(4)
        assert list(params.gammas) == sorted(params.gammas)
        assert list(params.betas) == sorted(params.betas, reverse=True)

    def test_linear_ramp_invalid_depth(self):
        with pytest.raises(ConfigurationError):
            linear_ramp_parameters(0)
