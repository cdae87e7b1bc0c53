"""Differential and concurrency tests of the fast backend's compiled program.

The ``fast`` backend lowers MaxCut QAOA straight onto the engine kernels
(distinct-angle diagonal phases, Kronecker-power mixer passes).  These tests
pin it to the seed per-gate oracle, ``StatevectorSimulator(compiled=False)``,
at 1e-12 across register sizes, depths, weights and batch widths; pin the
distinct-angle diagonal kernel to the per-element phase it replaces; pin
the Kronecker-power mixer bind bit for bit to its earlier implementation;
and check that one program shared by several threads is race-free.
"""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.generators import erdos_renyi_graph, weighted_erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.graphs.model import Graph
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import QAOAParameters, random_parameters
from repro.quantum.engine import (
    _DiagonalOp,
    _kron2,
    _kron_power,
    _kron_power_tables,
    _KronPowerOp,
    _rx_entries,
    _ry_entries,
    _u3_entries,
)
from repro.quantum.simulator import StatevectorSimulator


def _problem(num_nodes: int, weighted: bool) -> MaxCutProblem:
    if weighted:
        graph = weighted_erdos_renyi_graph(
            num_nodes, 0.6, weight_low=0.25, weight_high=2.0, seed=num_nodes
        )
    else:
        graph = erdos_renyi_graph(num_nodes, 0.6, seed=num_nodes)
    if graph.num_edges == 0:
        graph = Graph(num_nodes, [(0, 1, 1.5 if weighted else 1.0)])
    return MaxCutProblem(graph)


def _oracle_expectations(problem: MaxCutProblem, matrix: np.ndarray) -> np.ndarray:
    """Per-row expectations from the uncompiled per-gate simulator."""
    depth = matrix.shape[1] // 2
    circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
    flat_index = {g: i for i, g in enumerate(gammas)}
    flat_index.update({b: depth + i for i, b in enumerate(betas)})
    order = [flat_index[p] for p in circuit.parameters]
    return StatevectorSimulator(compiled=False).expectation_batch(
        circuit, problem.cost_hamiltonian(), matrix[:, order]
    )


class TestAgainstUncompiledOracle:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("num_nodes", range(2, 13))
    def test_expectations_match_oracle(self, num_nodes, weighted):
        problem = _problem(num_nodes, weighted)
        rng = np.random.default_rng(100 * num_nodes + weighted)
        for depth in range(1, 5):
            evaluator = ExpectationEvaluator(problem, depth, context="fast")
            # Every (n, p) pair sees one batch width; the grid covers all three.
            batch = (1, 16, 64)[(num_nodes + depth) % 3]
            matrix = np.array(
                [random_parameters(depth, rng).to_vector() for _ in range(batch)]
            )
            expected = _oracle_expectations(problem, matrix)
            np.testing.assert_allclose(
                evaluator.expectation_batch(matrix), expected, rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                evaluator.expectation(matrix[0]), expected[0], rtol=0, atol=1e-12
            )


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        num_bits=st.integers(min_value=1, max_value=7),
        num_slots=st.integers(min_value=0, max_value=3),
        batch=st.sampled_from([None, 1, 5]),
        pool=st.lists(
            st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
            min_size=1,
            max_size=5,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_distinct_angle_diagonal_matches_per_element_phase(
        self, num_bits, num_slots, batch, pool, seed
    ):
        rng = np.random.default_rng(seed)
        dim = 1 << num_bits
        # Angle rows drawn from a small pool, so distinct columns repeat.
        rows = rng.choice(np.asarray(pool), size=(1 + num_slots, dim))
        total_slots = num_slots + 2
        slots = np.sort(rng.choice(total_slots, size=num_slots, replace=False))
        op = _DiagonalOp.from_angles(rows[0], slots.astype(np.intp), rows[1:])
        assert op.const_angle.size <= len(pool) ** (1 + num_slots)
        assert op.index.dtype == np.uint8
        shape = (dim,) if batch is None else (batch, dim)
        values = rng.uniform(-3, 3, size=shape[:-1] + (total_slots,))
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        angle = values[..., slots] @ rows[1:] + rows[0]
        expected = state * np.exp(1j * angle)
        result, _ = op.apply(state.copy(), values, np.empty_like(state))
        np.testing.assert_allclose(result, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("num_qubits", [1, 3, 5, 9])
    def test_kron_power_op_handles_non_symmetric_gates(self, num_qubits, rng):
        # RY is not symmetric, so this pins the transposed-block convention.
        theta = rng.uniform(-3, 3, size=4)
        op = _KronPowerOp(num_qubits, (None, None, _ry_entries, ((0, 1.0, 0.0),)))
        dim = 1 << num_qubits
        state = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
        result, _ = op.apply(state.copy(), theta[:, None], np.empty_like(state))
        for row in range(4):
            gate = np.asarray(_ry_entries(theta[row]), dtype=complex)
            dense = functools.reduce(np.kron, [gate] * num_qubits)
            np.testing.assert_allclose(result[row], dense @ state[row], atol=1e-12)

    @pytest.mark.parametrize("num_bits", [1, 2, 4, 5])
    def test_one_gather_block_matches_chained_kron(self, num_bits, rng):
        angles = rng.uniform(-3, 3, size=(3, 6))
        entries = _u3_entries(*angles)
        chained = np.eye(1, dtype=complex)
        for _ in range(num_bits):
            gate = np.empty((6, 2, 2), dtype=complex)
            for r in range(2):
                for c in range(2):
                    gate[:, r, c] = entries[r][c]
            chained = _kron2(chained, gate)
        np.testing.assert_allclose(_kron_power(entries, num_bits), chained, atol=1e-13)


def _kron_power_reference(entries, num_bits: int) -> np.ndarray:
    """The earlier ``_kron_power``: same tables, power loop and gather order."""
    gather, index = _kron_power_tables(num_bits)
    flat = np.stack(
        np.broadcast_arrays(*(entry for row in entries for entry in row)), axis=-1
    )
    powers = np.empty(flat.shape[:-1] + (num_bits + 1, 4), dtype=np.complex128)
    powers[..., 0, :] = 1.0
    for exponent in range(num_bits):
        np.multiply(powers[..., exponent, :], flat, out=powers[..., exponent + 1, :])
    powers = powers.reshape(flat.shape[:-1] + (-1,))
    return np.prod(powers[..., gather], axis=-1)[..., index]


class TestKronPowerBind:
    """The mixer bind is pinned bit for bit, not to a tolerance."""

    @pytest.mark.parametrize("num_bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("batch", [None, 1, 4])
    @pytest.mark.parametrize("gate", ["rx", "u3"])
    def test_matches_earlier_implementation_bitwise(self, num_bits, batch, gate, rng):
        shape = () if batch is None else (batch,)
        if gate == "rx":
            entries = _rx_entries(rng.uniform(-3, 3, size=shape))
        else:  # not symmetric; a constant theta mixes 0-d and per-row entries
            entries = _u3_entries(0.7, *rng.uniform(-3, 3, size=(2,) + shape))
        block = _kron_power(entries, num_bits)
        assert np.array_equal(block, _kron_power_reference(entries, num_bits))
        assert block.flags.c_contiguous

    @pytest.mark.parametrize("num_bits", [1, 2, 3, 4])
    def test_batched_rx_rows_equal_scalar_binds(self, num_bits, rng):
        # The QAOA mixer: a batched bind reproduces each scalar bind exactly.
        # (For a general complex gate numpy's reduction may round rows of a
        # stack differently; only RX's real/imaginary split makes it exact.)
        theta = rng.uniform(-3, 3, size=5)
        stacked = _kron_power(_rx_entries(theta), num_bits)
        for row in range(5):
            assert np.array_equal(stacked[row], _kron_power(_rx_entries(theta[row]), num_bits))


class TestSharedProgramThreads:
    def test_four_threads_return_identical_values(self):
        problem = _problem(10, weighted=True)
        program = ExpectationEvaluator(problem, 3, context="fast").program
        rng = np.random.default_rng(5)
        matrix = np.array([random_parameters(3, rng).to_vector() for _ in range(24)])
        points = [QAOAParameters.from_vector(row) for row in matrix]
        serial_scalar = [program.expectation(point) for point in points]
        serial_batch = program.expectation_batch(matrix)

        barrier = threading.Barrier(4)
        outcomes = [None] * 4

        def worker(index: int) -> None:
            barrier.wait()
            scalar, batches = [], []
            for repeat in range(5):
                order = np.roll(np.arange(len(points)), index + repeat)
                values = [None] * len(points)
                for position in order:
                    values[position] = program.expectation(points[position])
                scalar.append(values)
                batches.append(program.expectation_batch(matrix))
            outcomes[index] = (scalar, batches)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        for scalar, batches in outcomes:
            for values in scalar:
                assert values == serial_scalar
            for values in batches:
                assert np.array_equal(values, serial_batch)
