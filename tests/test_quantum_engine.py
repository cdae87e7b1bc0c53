"""Tests for the compiled gate-kernel execution engine.

Every specialised kernel (fused diagonal segments, the CX·RZ·CX peephole,
low/high/middle fused single-qubit blocks, two-qubit kernels, block-swap
CX/SWAP) is checked against the seed generic dense-dispatch path, which
survives behind ``StatevectorSimulator(compiled=False)`` as an independent
oracle.
"""

import numpy as np
import pytest

from repro.exceptions import CircuitError, SimulationError
from repro.graphs.generators import erdos_renyi_graph, random_regular_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.qaoa.circuit_builder import (
    build_maxcut_qaoa_circuit,
    build_parametric_qaoa_circuit,
)
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import random_parameters
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.engine import CompiledProgram, compile_circuit
from repro.quantum.gates import GATE_REGISTRY
from repro.quantum.operators import PauliSum
from repro.quantum.parameter import Parameter
from repro.quantum.simulator import StatevectorSimulator

ATOL = 1e-12


def _random_circuit(num_qubits: int, size: int, rng, names=None) -> QuantumCircuit:
    """A random fully-bound circuit drawing from the whole gate registry."""
    names = list(names if names is not None else GATE_REGISTRY)
    circuit = QuantumCircuit(num_qubits)
    for _ in range(size):
        name = names[rng.integers(len(names))]
        definition = GATE_REGISTRY[name]
        qubits = rng.choice(num_qubits, size=definition.num_qubits, replace=False)
        params = rng.uniform(-np.pi, np.pi, size=definition.num_params)
        circuit.add_gate(name, [int(q) for q in qubits], [float(p) for p in params])
    return circuit


def _states_agree(circuit, parameter_values=None, atol=ATOL):
    compiled = StatevectorSimulator().run(circuit, parameter_values)
    generic = StatevectorSimulator(compiled=False).run(circuit, parameter_values)
    np.testing.assert_allclose(compiled.data, generic.data, atol=atol)


class TestKernelsAgainstGenericOracle:
    @pytest.mark.parametrize("name", sorted(GATE_REGISTRY))
    def test_every_gate_matches_generic_path(self, name, rng):
        """Each registry gate, embedded in a random context, is kernel-exact."""
        definition = GATE_REGISTRY[name]
        num_qubits = 4
        for _ in range(3):
            circuit = _random_circuit(num_qubits, 4, rng, names=["h", "cx", "t", "ry"])
            qubits = rng.choice(num_qubits, size=definition.num_qubits, replace=False)
            params = rng.uniform(-np.pi, np.pi, size=definition.num_params)
            circuit.add_gate(name, [int(q) for q in qubits], [float(p) for p in params])
            circuit = circuit.compose(_random_circuit(num_qubits, 4, rng, names=["h", "cx", "s"]))
            _states_agree(circuit)

    @pytest.mark.parametrize("num_qubits", [2, 3, 5, 7, 9])
    def test_random_circuits_match_generic_path(self, num_qubits, rng):
        """Deep random circuits over the full registry, several register sizes."""
        for _ in range(3):
            circuit = _random_circuit(num_qubits, 30, rng)
            _states_agree(circuit)

    def test_fused_diagonal_run(self, rng):
        """A long run of diagonal gates collapses to one op and stays exact."""
        circuit = QuantumCircuit(5)
        for q in range(5):
            circuit.h(q)
        for q in range(5):
            circuit.rz(float(rng.uniform(-3, 3)), q)
            circuit.t(q)
        circuit.cz(0, 3).cz(1, 4).rzz(0.7, 0, 2).crz(1.3, 3, 1).s(2).z(4)
        program = compile_circuit(circuit)
        # one fused single-qubit block for the H layer + one diagonal segment
        assert program.num_operations == 2
        _states_agree(circuit)

    def test_cx_rz_cx_peephole_becomes_diagonal(self, rng):
        """The RZZ decomposition emitted by the QAOA builder fuses away."""
        problem = MaxCutProblem(erdos_renyi_graph(6, 0.6, seed=3))
        params = random_parameters(2, rng)
        circuit = build_maxcut_qaoa_circuit(problem, params)
        program = compile_circuit(circuit)
        summary = program.operation_summary()
        assert "CXOp" not in summary  # every CX belongs to a fused sandwich
        assert summary["DiagonalOp"] == 2  # one per QAOA layer
        _states_agree(circuit)

    def test_interrupted_sandwich_is_not_fused(self):
        """CX pairs that do not close a RZ sandwich stay explicit CX kernels."""
        circuit = QuantumCircuit(3).h(0).cx(0, 1).rz(0.5, 0).cx(0, 1)  # rz on control
        program = compile_circuit(circuit)
        assert program.operation_summary().get("CXOp", 0) == 2
        _states_agree(circuit)

    def test_identity_only_run_compiles_to_nothing(self):
        circuit = QuantumCircuit(3).id(0).id(1).id(2)
        assert compile_circuit(circuit).num_operations == 0
        _states_agree(circuit)

    def test_unitary_matches_generic_and_is_unitary(self, rng):
        circuit = _random_circuit(4, 20, rng)
        compiled = StatevectorSimulator().unitary(circuit)
        generic = StatevectorSimulator(compiled=False).unitary(circuit)
        np.testing.assert_allclose(compiled, generic, atol=ATOL)
        np.testing.assert_allclose(
            compiled @ compiled.conj().T, np.eye(16), atol=1e-10
        )


class TestParametricBinding:
    def _parametric_circuit(self):
        theta = Parameter("theta")
        phi = Parameter("phi")
        circuit = QuantumCircuit(3)
        circuit.h(0).h(1).h(2)
        circuit.rx(theta, 0)
        circuit.rz(theta * -2.0, 1)  # affine expression sharing theta
        circuit.cx(0, 1).rz(phi * 0.5, 1).cx(0, 1)  # peephole with expression
        circuit.ry(phi, 2)
        circuit.p(theta + 0.25, 2)
        return circuit, theta, phi

    def test_sequence_and_dict_bindings_agree(self):
        circuit, theta, phi = self._parametric_circuit()
        sim = StatevectorSimulator()
        by_seq = sim.run(circuit, [0.3, 1.1])
        by_dict = sim.run(circuit, {theta: 0.3, phi: 1.1})
        np.testing.assert_allclose(by_seq.data, by_dict.data, atol=ATOL)

    def test_rebinding_matches_generic_path(self):
        circuit, _, _ = self._parametric_circuit()
        for values in ([0.0, 0.0], [0.7, -1.3], [2.9, 0.4]):
            _states_agree(circuit, values)

    def test_missing_bindings_raise(self):
        circuit, theta, _ = self._parametric_circuit()
        sim = StatevectorSimulator()
        with pytest.raises(SimulationError):
            sim.run(circuit)
        with pytest.raises(CircuitError):
            sim.run(circuit, {theta: 0.3})
        with pytest.raises(CircuitError):
            sim.run(circuit, [0.3])

    def test_program_reports_parameters(self):
        circuit, theta, phi = self._parametric_circuit()
        program = CompiledProgram(circuit)
        assert program.parameters == [theta, phi]
        assert program.num_parameters == 2


class TestStructureCache:
    def test_repeated_binds_equal_fresh_builds(self, rng):
        """One circuit object re-bound many times == rebuilding from scratch."""
        problem = MaxCutProblem(erdos_renyi_graph(7, 0.5, seed=11))
        circuit, _, _ = build_parametric_qaoa_circuit(problem, 2)
        cached_sim = StatevectorSimulator()
        for _ in range(5):
            values = rng.uniform(-np.pi, np.pi, size=4)
            cached = cached_sim.run(circuit, values)
            fresh = StatevectorSimulator().run(circuit, values)
            np.testing.assert_allclose(cached.data, fresh.data, atol=ATOL)

    def test_program_object_is_reused(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        sim = StatevectorSimulator()
        assert sim.compile(circuit) is sim.compile(circuit)

    def test_mutated_circuit_is_recompiled(self):
        circuit = QuantumCircuit(2).h(0)
        sim = StatevectorSimulator()
        before = sim.run(circuit)
        circuit.x(1)  # bumps circuit.version
        after = sim.run(circuit)
        assert before.probability("00") == pytest.approx(0.5)
        assert after.probability("10") == pytest.approx(0.5)

    def test_evaluator_reuses_circuit_across_evaluations(self, triangle_problem, rng):
        evaluator = ExpectationEvaluator(triangle_problem, 2, context="circuit")
        simulator = evaluator._program._simulator
        program = simulator.compile(evaluator._program._circuit)
        for _ in range(4):
            evaluator.expectation(random_parameters(2, rng).to_vector())
        assert simulator.compile(evaluator._program._circuit) is program


class TestBatchedExecution:
    def test_run_batch_matches_scalar_runs(self, rng):
        problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=5))
        circuit, _, _ = build_parametric_qaoa_circuit(problem, 2)
        sim = StatevectorSimulator()
        order = circuit.parameters
        matrix = rng.uniform(-np.pi, np.pi, size=(9, len(order)))
        columns = sim.run_batch(circuit, matrix)
        assert columns.shape == (2**6, 9)
        for index, row in enumerate(matrix):
            np.testing.assert_allclose(
                columns[:, index], sim.run(circuit, row).data, atol=ATOL
            )

    def test_run_batch_single_row_promotion(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(1).rx(theta, 0)
        sim = StatevectorSimulator()
        columns = sim.run_batch(circuit, [0.8])
        np.testing.assert_allclose(columns[:, 0], sim.run(circuit, [0.8]).data, atol=ATOL)

    def test_run_batch_wrong_width_raises(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(1).rx(theta, 0)
        with pytest.raises(CircuitError):
            StatevectorSimulator().run_batch(circuit, np.zeros((3, 2)))

    def test_expectation_batch_matches_scalar(self, rng):
        problem = MaxCutProblem(random_regular_graph(3, 8, seed=2))
        evaluator = ExpectationEvaluator(problem, 2, context="circuit")
        matrix = np.array([random_parameters(2, seed).to_vector() for seed in range(6)])
        batched = evaluator.expectation_batch(matrix)
        scalar = np.array([evaluator.expectation(row) for row in matrix])
        np.testing.assert_allclose(batched, scalar, atol=ATOL)

    def test_expectation_batch_empty(self, triangle_problem):
        evaluator = ExpectationEvaluator(triangle_problem, 1, context="circuit")
        assert evaluator.expectation_batch(np.zeros((0, 2))).shape == (0,)

    def test_simulator_expectation_batch_non_diagonal_observable(self, rng):
        theta = Parameter("theta")
        circuit = QuantumCircuit(2).h(0).rx(theta, 1).cx(0, 1)
        observable = PauliSum([(0.7, "XI"), (0.4, "ZY"), (1.1, "ZZ")])
        sim = StatevectorSimulator()
        matrix = rng.uniform(-np.pi, np.pi, size=(5, 1))
        batched = sim.expectation_batch(circuit, observable, matrix)
        scalar = [sim.expectation(circuit, observable, row) for row in matrix]
        np.testing.assert_allclose(batched, scalar, atol=ATOL)

    def test_generic_mode_run_batch_matches_compiled(self, rng):
        theta = Parameter("theta")
        circuit = QuantumCircuit(3).h(0).rx(theta, 1).cx(1, 2)
        matrix = rng.uniform(-np.pi, np.pi, size=(4, 1))
        compiled = StatevectorSimulator().run_batch(circuit, matrix)
        generic = StatevectorSimulator(compiled=False).run_batch(circuit, matrix)
        np.testing.assert_allclose(compiled, generic, atol=ATOL)

    def test_executed_circuits_counts_batch_columns(self):
        theta = Parameter("theta")
        circuit = QuantumCircuit(1).rx(theta, 0)
        sim = StatevectorSimulator()
        sim.run_batch(circuit, np.zeros((5, 1)))
        assert sim.executed_circuits == 5

    def test_generic_mode_run_batch_does_not_compile(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1)
        sim = StatevectorSimulator(compiled=False)
        sim.run_batch(circuit, np.zeros((2, 0)))
        assert len(sim._programs) == 0  # the seed baseline never compiles

    def test_unitary_enforces_max_qubits_in_both_modes(self):
        circuit = QuantumCircuit(3).h(0)
        for compiled in (True, False):
            sim = StatevectorSimulator(max_qubits=2, compiled=compiled)
            with pytest.raises(SimulationError):
                sim.unitary(circuit)


class TestBackendEquivalence:
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_fast_and_circuit_backends_agree(self, depth, rng):
        problem = MaxCutProblem(erdos_renyi_graph(8, 0.4, seed=depth))
        fast = ExpectationEvaluator(problem, depth, context="fast")
        circuit = ExpectationEvaluator(problem, depth, context="circuit")
        for _ in range(3):
            vector = random_parameters(depth, rng).to_vector()
            assert circuit.expectation(vector) == pytest.approx(
                fast.expectation(vector), abs=1e-9
            )

    def test_backends_agree_on_weighted_graph(self, rng):
        graph = Graph(5, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, -1.25), (3, 4, 0.75), (0, 4, 1.5)])
        problem = MaxCutProblem(graph)
        fast = ExpectationEvaluator(problem, 3, context="fast")
        circuit_ev = ExpectationEvaluator(problem, 3, context="circuit")
        for _ in range(3):
            parameters = random_parameters(3, rng)
            assert circuit_ev.expectation(parameters.to_vector()) == pytest.approx(
                fast.expectation(parameters), abs=1e-9
            )

    def test_batched_backends_agree(self, rng):
        problem = MaxCutProblem(erdos_renyi_graph(7, 0.5, seed=9))
        matrix = np.array([random_parameters(2, seed).to_vector() for seed in range(8)])
        fast = ExpectationEvaluator(problem, 2, context="fast")
        circuit = ExpectationEvaluator(problem, 2, context="circuit")
        np.testing.assert_allclose(
            circuit.expectation_batch(matrix), fast.expectation_batch(matrix), atol=1e-9
        )

    def test_statevectors_agree_up_to_global_phase(self, rng):
        problem = MaxCutProblem(erdos_renyi_graph(6, 0.5, seed=21))
        parameters = random_parameters(3, rng)
        circuit = build_maxcut_qaoa_circuit(problem, parameters)
        compiled_state = StatevectorSimulator().run(circuit)
        fast_state = ExpectationEvaluator(problem, 3).program.statevector(parameters)
        assert compiled_state.equiv(fast_state)


class TestPauliSumDiagonalCache:
    def test_diagonal_is_cached_and_copied(self):
        operator = PauliSum([(1.0, "ZZI"), (0.5, "IZZ"), (0.25, "III")])
        view = operator.z_diagonal_view()
        assert operator.z_diagonal_view() is view  # cached
        copy = operator.z_diagonal()
        assert copy is not view
        np.testing.assert_allclose(copy, view)
        copy[0] = 123.0  # mutating the copy must not poison the cache
        assert operator.z_diagonal_view()[0] != 123.0

    def test_add_term_invalidates_cache(self):
        operator = PauliSum([(1.0, "ZI")])
        before = operator.z_diagonal()
        operator.add_term(2.0, "IZ")
        after = operator.z_diagonal()
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, PauliSum([(1.0, "ZI"), (2.0, "IZ")]).z_diagonal()
        )

    def test_expectation_uses_cache_consistently(self, rng):
        problem = MaxCutProblem(erdos_renyi_graph(5, 0.6, seed=4))
        hamiltonian = problem.cost_hamiltonian()
        state = ExpectationEvaluator(problem, 1).program.statevector(
            random_parameters(1, rng)
        )
        first = hamiltonian.expectation(state)
        second = hamiltonian.expectation(state)
        assert first == pytest.approx(second, abs=0)
        assert first == pytest.approx(
            float(np.dot(state.probabilities(), hamiltonian.z_diagonal())), abs=1e-12
        )
