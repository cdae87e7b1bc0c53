"""Benchmarks of the ``fast`` backend against the compiled ``circuit`` backend.

``fast`` lowers MaxCut QAOA straight onto the compiled engine kernels: a
uniform fill instead of the circuit's H wall, one distinct-angle diagonal
phase per cost layer, and the RX mixer as a few transposing Kronecker-power
GEMM passes.  ``circuit`` runs the gate-level circuit of Fig. 1(a) through
the same engine.  This module sweeps both over register size, depth and
batch width, checks the memory footprint of one large evaluation, and pins
``fast`` to the seed per-gate oracle (``StatevectorSimulator(compiled=False)``).
The headline ratio gate at n = 14, p = 3 lives in
``test_bench_circuit_backend.py``.

Every measurement is written to ``BENCH_fast_backend.json`` in the
repository root, next to ``fwht_reference``: the retired FWHT backend's
timings on the same sweep points, measured once before its deletion on the
same 2-core box (kept in ``benchmarks/fwht_reference.json``).
"""

import json
import os
import platform
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.circuit_builder import build_maxcut_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.parameters import random_parameters
from repro.quantum.simulator import StatevectorSimulator

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_fast_backend.json"
_FWHT_REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "fwht_reference.json").read_text()
)
_RESULTS = {}

#: Sweep grid.  Batched points are kept to at most 2^20 amplitudes per
#: batch, and n = 20, 22 run at p = 1 only: there the circuit backend's
#: compile (per-edge diagonal accumulation over 2^n amplitudes) takes
#: several seconds per layer.  This keeps the full sweep near half a minute
#: on a 2-core box.
_SWEEP_QUBITS = (4, 6, 8, 10, 12, 14, 16, 18, 20, 22)
_SWEEP_DEPTHS = (1, 3, 6)
_SWEEP_BATCHES = (1, 16, 64)
_SWEEP_MAX_BATCH_AMPLITUDES = 2**20
_SWEEP_MAX_DEEP_QUBITS = 18


@pytest.fixture(scope="module", autouse=True)
def _emit_results_json(bench_smoke):
    """Write every recorded measurement to ``BENCH_fast_backend.json``."""
    yield
    payload = {
        "benchmark": "fast_backend",
        "smoke": bool(bench_smoke),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "repeat_policy": "one warm-up call, then interleaved fast/circuit "
        "repeats; times are per-call medians",
        "results": _RESULTS,
        "fwht_reference": _FWHT_REFERENCE,
    }
    _RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _problem(num_nodes: int) -> MaxCutProblem:
    return MaxCutProblem(erdos_renyi_graph(num_nodes, 0.3, seed=num_nodes))


def _sweep_points(bench_smoke: bool):
    for num_nodes in _SWEEP_QUBITS:
        if bench_smoke and num_nodes > 14:
            continue
        for depth in _SWEEP_DEPTHS:
            if depth > 1 and num_nodes > _SWEEP_MAX_DEEP_QUBITS:
                continue
            for batch in _SWEEP_BATCHES:
                if batch > 1 and batch << num_nodes > _SWEEP_MAX_BATCH_AMPLITUDES:
                    continue
                yield num_nodes, depth, batch


def _interleaved(first, second, repeats: int, warm_up: bool = True):
    """Per-call wall-clock lists of two callables, measured alternately.

    Alternating the two arms keeps a machine-wide speed swing from landing
    on one arm only.
    """
    if warm_up:
        first(), second()  # buffers, BLAS threads, kron tables
    times = ([], [])
    for _ in range(repeats):
        for arm, function in enumerate((first, second)):
            start = time.perf_counter()
            function()
            times[arm].append(time.perf_counter() - start)
    return times


def _median_ms(times) -> float:
    return 1e3 * statistics.median(times)


def _arms(problem: MaxCutProblem, depth: int, batch: int):
    """``(fast_call, circuit_call, values)`` for one sweep point."""
    fast = ExpectationEvaluator(problem, depth, context="fast")
    circuit = ExpectationEvaluator(problem, depth, context="circuit")
    rng = np.random.default_rng(problem.num_qubits * 100 + depth)
    matrix = np.array([random_parameters(depth, rng).to_vector() for _ in range(batch)])
    if batch == 1:
        vector = matrix[0]
        return (
            lambda: fast.expectation(vector),
            lambda: circuit.expectation(vector),
            (fast.expectation(vector), circuit.expectation(vector)),
        )
    return (
        lambda: fast.expectation_batch(matrix),
        lambda: circuit.expectation_batch(matrix),
        (fast.expectation_batch(matrix), circuit.expectation_batch(matrix)),
    )


def test_fast_vs_circuit_sweep(bench_smoke):
    """``fast`` against ``circuit`` over n, p and batch width.

    ``fast`` does less work at every point — no H wall, fewer GEMM passes
    per mixer, no per-gate circuit bookkeeping — but at n = 4 both backends
    apply one 16 x 16 block per layer and tie within noise.  Gates: no point
    may be slower than 0.8x ``circuit``, and the backends agree to 1e-9
    (relative).  Rows also carry the retired FWHT backend's time on the
    same point (``fwht_reference``; a different run, so only indicative).
    """
    reference = {
        (row["num_nodes"], row["depth"], row["batch"]): row["fwht_ms"]
        for row in _FWHT_REFERENCE["sweep"]
    }
    rows = []
    for num_nodes, depth, batch in _sweep_points(bench_smoke):
        # The agreement check doubles as the warm-up call of both arms.
        fast_call, circuit_call, (fast_value, circuit_value) = _arms(
            _problem(num_nodes), depth, batch
        )
        scale = max(1.0, float(np.max(np.abs(circuit_value))))
        difference = float(np.max(np.abs(np.asarray(fast_value) - circuit_value)))
        assert difference <= 1e-9 * scale, (num_nodes, depth, batch, difference)
        amplitudes = (batch << num_nodes) * depth
        repeats = 5 if amplitudes <= 2**16 else 3 if amplitudes <= 2**20 else 1
        fast_times, circuit_times = _interleaved(
            fast_call, circuit_call, repeats, warm_up=False
        )
        fast_ms = _median_ms(fast_times)
        fwht_ms = reference.get((num_nodes, depth, batch))
        rows.append(
            {
                "num_nodes": num_nodes,
                "depth": depth,
                "batch": batch,
                "repeats": repeats,
                "fast_ms": fast_ms,
                "circuit_ms": _median_ms(circuit_times),
                "circuit_over_fast": statistics.median(circuit_times)
                / statistics.median(fast_times),
                "fwht_over_fast": None if fwht_ms is None else fwht_ms / fast_ms,
                "max_abs_diff": difference,
            }
        )
    _RESULTS["sweep"] = rows
    slowest = min(rows, key=lambda row: row["circuit_over_fast"])
    _RESULTS["sweep_min_circuit_over_fast"] = slowest["circuit_over_fast"]
    assert slowest["circuit_over_fast"] >= 0.8, (
        f"fast should not be slower than circuit; worst point {slowest}"
    )


def test_fast_memory_footprint(bench_smoke):
    """Retained program plus one expectation's transients <= 3.5x the state.

    Counted by tracemalloc from a problem with no cached cut table: the cut
    diagonal (0.5x), the compact phase index, and the state plus one
    ping-pong buffer (2x) during evolution.
    """
    num_nodes = 16 if bench_smoke else 20
    problem = _problem(num_nodes)
    vector = random_parameters(3, 0).to_vector()
    state_bytes = 16 << num_nodes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluator = ExpectationEvaluator(problem, 3, context="fast")
        retained = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        evaluator.expectation(vector)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    _RESULTS["memory"] = {
        "num_nodes": num_nodes,
        "depth": 3,
        "state_bytes": state_bytes,
        "retained_over_state": retained / state_bytes,
        "peak_over_state": peak / state_bytes,
        "floor": 3.5,
    }
    assert peak <= 3.5 * state_bytes, _RESULTS["memory"]


def test_bench_fast_expectation_n16(benchmark):
    """One expectation at n = 16."""
    evaluator = ExpectationEvaluator(_problem(16), 2, context="fast")
    vector = random_parameters(2, 0).to_vector()
    value = benchmark(evaluator.expectation, vector)
    assert 0.0 <= value <= evaluator.problem.max_cut_value() + 1e-9


def test_bench_expectation_batch_n12(benchmark, bench_smoke):
    """A whole batch of angle sets through one vectorized sweep."""
    evaluator = ExpectationEvaluator(_problem(10 if bench_smoke else 12), 2, context="fast")
    matrix = np.array(
        [random_parameters(2, seed).to_vector() for seed in range(32)]
    )
    values = benchmark(evaluator.expectation_batch, matrix)
    assert values.shape == (32,)


def test_batch_faster_than_scalar_loop(bench_smoke):
    """Batched evaluation amortises per-call overhead over the whole matrix."""
    evaluator = ExpectationEvaluator(_problem(8 if bench_smoke else 10), 2, context="fast")
    matrix = np.array([random_parameters(2, seed).to_vector() for seed in range(64)])

    def run_batch():
        evaluator.expectation_batch(matrix)

    def run_loop():
        for row in matrix:
            evaluator.expectation(row)

    batch_times, loop_times = _interleaved(run_batch, run_loop, 5)
    batch_time = statistics.median(batch_times)
    loop_time = statistics.median(loop_times)
    _RESULTS["batch_vs_scalar_loop"] = {
        "batch_ms": batch_time * 1e3,
        "loop_ms": loop_time * 1e3,
        "ratio": loop_time / batch_time,
    }
    # Smoke mode tolerates scheduler noise on shared runners; the full
    # harness demands an outright win.
    slack = 1.5 if bench_smoke else 1.0
    assert batch_time < loop_time * slack, (
        f"batched evaluation should beat the scalar loop, got "
        f"{batch_time*1e3:.2f} ms vs {loop_time*1e3:.2f} ms"
    )


def test_fast_and_dense_agree(bench_smoke):
    """``fast`` equals the seed per-gate dense dispatch to 1e-12."""
    problem = _problem(8)
    hamiltonian = problem.cost_hamiltonian()
    oracle = StatevectorSimulator(compiled=False)
    rng = np.random.default_rng(3)
    for depth in (1, 3):
        parameters = random_parameters(depth, rng)
        fast = ExpectationEvaluator(problem, depth, context="fast")
        expected = oracle.expectation(
            build_maxcut_qaoa_circuit(problem, parameters), hamiltonian
        )
        assert fast.expectation(parameters) == pytest.approx(expected, abs=1e-12)
