"""The four benchmark workloads.

Each workload builds its inputs from the ``--seed`` alone, drives only the
library's public entry points (``repro.solve``, ``compare_on_problem``,
``AnnealingSolver.solve``, ``SolverService.submit*``), and checks every op's
output after the timed phase.  See ``README.md`` for why each one exists.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.acceleration import compare_on_problem
from repro.dynamics import AnnealingSolver
from repro.execution import ExecutionContext
from repro.frontend.evaluator import CircuitExpectationEvaluator
from repro.frontend.library import circuit_source
from repro.graphs import MaxCutProblem, erdos_renyi_graph
from repro.prediction.pipeline import PredictorPipelineConfig, train_default_predictor
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.cost import ExpectationEvaluator
from repro.qaoa.solver import QAOASolver
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.noise import NoiseModel
from repro.quantum.operators import PauliSum
from repro.service import SolverService

#: Tolerances of the output checks.
REEVALUATION_ATOL = 1e-9
DENSITY_ORACLE_ATOL = 1e-10
PROBABILITY_ATOL = 1e-9


@dataclass
class OpRecord:
    """One op of a timed phase: what ran, how long it took, what it returned."""

    op_id: int
    kind: str
    latency_s: float
    output: Any = None
    error: Optional[str] = None
    inputs: Dict[str, Any] = field(default_factory=dict)
    failure: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.failure is None


def _rng(seed: int, op_id: int, stream: int) -> np.random.Generator:
    """The generator of op *op_id*'s inputs; warm-up ops use ids -2 and -1."""
    return np.random.default_rng([seed, stream, op_id + 2])


def _mean(values) -> float:
    """Mean of *values*, 0 when every op failed (the run reports ``correct: false``)."""
    return float(np.mean(values)) if len(values) else 0.0


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


def _check_solve(problem: MaxCutProblem, depth: int, result, context="circuit") -> Optional[str]:
    """A solve's optimum, re-evaluated on *context*, must match; AR in (0, 1]."""
    ratio = result.approximation_ratio
    if not 0.0 < ratio <= 1.0 + 1e-12:
        return f"approximation ratio {ratio} outside (0, 1]"
    value = ExpectationEvaluator(problem, depth, context=context).expectation(
        result.optimal_parameters.to_vector()
    )
    if abs(value - result.optimal_expectation) > REEVALUATION_ATOL:
        return (
            f"optimum {result.optimal_expectation!r} re-evaluates to {value!r} "
            f"on {context}"
        )
    return None


@contextmanager
def recorded_solves(sink: list):
    """Append ``(problem, depth, context, result)`` for every ``QAOASolver.solve``.

    Lets the checks see the solves inside ``compare_on_problem``, whose
    record keeps only their summary numbers.  Costs one list append per
    solve.
    """
    solve = QAOASolver.__dict__["solve"]

    def recording(self, problem, depth, **kwargs):
        result = solve(self, problem, depth, **kwargs)
        sink.append((problem, depth, self.context, result))
        return result

    QAOASolver.solve = recording
    try:
        yield
    finally:
        QAOASolver.solve = solve


class Workload:
    """A sequence of seeded ops run back to back for a fixed time."""

    name = ""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def setup(self) -> None:
        """Build the inputs and long-lived objects, then run one warm-up op."""

    def teardown(self) -> None:
        """Release what :meth:`setup` started."""

    def op(self, op_id: int) -> Tuple[str, Callable[[], Any], Dict[str, Any]]:
        """``(kind, call, inputs)`` of op *op_id*; *call* is what gets timed."""
        raise NotImplementedError

    def run_phase(self, seconds: float, tracer) -> Tuple[List[OpRecord], float]:
        """Run ops one after another until *seconds* have passed."""
        records: List[OpRecord] = []
        started = time.perf_counter()
        op_id = 0
        while time.perf_counter() - started < seconds:
            kind, call, inputs = self.op(op_id)
            began = time.perf_counter()
            output, error = None, None
            try:
                output = tracer.op(op_id, call)
            except Exception as exc:  # an op failure is a measured outcome
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - began
            records.append(OpRecord(op_id, kind, latency, output, error, inputs))
            op_id += 1
        return records, time.perf_counter() - started

    def begin_checks(self) -> None:
        """Prepare the references the checks compare against."""

    def check(self, record: OpRecord) -> Optional[str]:
        """Why *record*'s output is wrong, or ``None``; runs after the phase."""
        return None

    def quality(self, records: List[OpRecord]) -> Dict[str, float]:
        """Solution-quality metrics over the successful ops."""
        raise NotImplementedError


# ----------------------------------------------------------------------
class Table1Rows(Workload):
    """One Table-I comparison (naive vs two-level) per op, n=8."""

    name = "table1-rows"
    #: One kind of op, so the latency median lies inside one distribution.
    #: COBYLA is left out: one comparison takes 0.5-10 s (per-op CV ~0.9),
    #: which made a run unsteady.  p=2 rather than p=3: a p=2 comparison
    #: takes ~0.1 s, so a run averages about three times as many graphs.
    OPTIMIZER = "L-BFGS-B"
    DEPTH = 2
    NUM_NODES = 8
    NAIVE_RESTARTS = 2
    #: Predictor training is fixed (not the workload seed): the held-out
    #: graphs change with the seed, the one-time cost does not.
    TRAINING_SEED = 2020
    TRAINING = PredictorPipelineConfig(num_graphs=6, depths=(1, 2, 3), num_restarts=2)

    def setup(self) -> None:
        self.predictor, _ = train_default_predictor(self.TRAINING, seed=self.TRAINING_SEED)
        _kind, call, _inputs = self.op(-1)
        call()

    def op(self, op_id: int):
        rng = _rng(self.seed, op_id, 1)
        graph = erdos_renyi_graph(self.NUM_NODES, 0.5, seed=_draw_seed(rng))
        seed = _draw_seed(rng)
        inputs = {"graph": graph, "solves": []}

        def call():
            with recorded_solves(inputs["solves"]):
                return compare_on_problem(
                    MaxCutProblem(graph),
                    self.DEPTH,
                    self.predictor,
                    optimizer=self.OPTIMIZER,
                    num_restarts=self.NAIVE_RESTARTS,
                    seed=seed,
                )

        return f"{self.OPTIMIZER}/p{self.DEPTH}", call, inputs

    def check(self, record: OpRecord) -> Optional[str]:
        solves = record.inputs["solves"]
        if not solves:
            return "no solves recorded"
        for problem, depth, _context, result in solves:
            reason = _check_solve(problem, depth, result)
            if reason is not None:
                return reason
        comparison = record.output
        level2 = solves[-1][3]
        if comparison.two_level_ar != level2.approximation_ratio:
            return "two-level AR differs from its level-2 solve"
        return None

    def quality(self, records):
        ok = [r.output for r in records if r.ok]
        return {
            "approx_ratio_mean": _mean([c.two_level_ar for c in ok]),
            "function_calls_mean": _mean([c.two_level_fc for c in ok]),
            "fc_reduction_pct": _mean([c.fc_reduction_percent for c in ok]),
        }


# ----------------------------------------------------------------------
class LargeNSolve(Workload):
    """One default-context ``repro.solve`` per op on a large register."""

    name = "large-n-solve"
    NUM_NODES = 14
    DEPTH = 3
    CANDIDATE_POOL = 16
    #: An iteration budget every op exhausts (converging takes 9-29 here),
    #: so each op does near-constant work: an uncapped solve's cost varies
    #: ~45% between graphs, and a run holds too few ops to average it.
    MAX_ITERATIONS = 8

    def setup(self) -> None:
        _kind, call, _inputs = self.op(-1)
        call()

    def op(self, op_id: int):
        rng = _rng(self.seed, op_id, 2)
        graph = erdos_renyi_graph(self.NUM_NODES, 0.5, seed=_draw_seed(rng))
        seed = _draw_seed(rng)

        def call():
            return repro.solve(
                graph,
                self.DEPTH,
                optimizer="L-BFGS-B",
                candidate_pool=self.CANDIDATE_POOL,
                max_iterations=self.MAX_ITERATIONS,
                seed=seed,
            )

        return f"n{self.NUM_NODES}/p{self.DEPTH}", call, {"graph": graph}

    def check(self, record):
        return _check_solve(MaxCutProblem(record.inputs["graph"]), self.DEPTH, record.output)

    def quality(self, records):
        ok = [r.output for r in records if r.ok]
        return {
            "approx_ratio_mean": _mean([r.approximation_ratio for r in ok]),
            "function_calls_mean": _mean([r.num_function_calls for r in ok]),
        }


# ----------------------------------------------------------------------
class OpenSystem(Workload):
    """Exact noisy paths: one density-matrix solve and one Lindblad anneal per op.

    Pairing the two keeps one latency distribution: alternating them put the
    latency median between the solves' (~0.8 s) and the anneals' (~1.5 s).
    """

    name = "open-system"
    KIND = "density-solve+anneal"
    DENSITY_NODES = 6
    DENSITY_DEPTH = 2
    #: Iteration budget of the density solves, for the reason given at
    #: :attr:`LargeNSolve.MAX_ITERATIONS` (converging takes 11-23 here).
    DENSITY_MAX_ITERATIONS = 8
    ANNEAL_NODES = 5
    ANNEAL_TIME = 10.0
    DISSIPATION = 0.01
    #: Every this-many op's solve is also checked against the uncompiled oracle.
    ORACLE_EVERY = 3

    def setup(self) -> None:
        self.noise = NoiseModel.uniform_depolarizing(0.01)
        self.context = ExecutionContext(backend="circuit", density=True, noise_model=self.noise)
        self.annealer = AnnealingSolver(dissipation=self.DISSIPATION)
        self.max_invariant_drift = 0.0
        _kind, call, _inputs = self.op(-1)
        call()

    def op(self, op_id: int):
        rng = _rng(self.seed, op_id, 3)
        solve_graph = erdos_renyi_graph(self.DENSITY_NODES, 0.5, seed=_draw_seed(rng))
        solve_seed = _draw_seed(rng)
        anneal_graph = erdos_renyi_graph(self.ANNEAL_NODES, 0.5, seed=_draw_seed(rng))

        def call():
            solve = repro.solve(
                solve_graph,
                self.DENSITY_DEPTH,
                self.context,
                max_iterations=self.DENSITY_MAX_ITERATIONS,
                seed=solve_seed,
            )
            anneal = self.annealer.solve(MaxCutProblem(anneal_graph), anneal_time=self.ANNEAL_TIME)
            return solve, anneal

        return self.KIND, call, {"solve_graph": solve_graph}

    def check(self, record):
        solve, anneal = record.output
        self.max_invariant_drift = max(self.max_invariant_drift, anneal.invariant_drift)
        total = sum(probability for _value, probability in anneal.cut_distribution)
        if abs(total - 1.0) > PROBABILITY_ATOL:
            return f"anneal probabilities sum to {total!r}"
        if not 0.0 < anneal.approximation_ratio <= 1.0 + 1e-12:
            return f"anneal approximation ratio {anneal.approximation_ratio} outside (0, 1]"
        problem = MaxCutProblem(record.inputs["solve_graph"])
        reason = _check_solve(problem, self.DENSITY_DEPTH, solve, self.context)
        if reason is not None or record.op_id % self.ORACLE_EVERY:
            return reason
        circuit, gammas, betas = build_parametric_qaoa_circuit(problem, self.DENSITY_DEPTH)
        angles = solve.optimal_parameters
        binding = dict(zip(gammas, angles.gammas))
        binding.update(zip(betas, angles.betas))
        rho = DensityMatrixSimulator(compiled=False).run(
            circuit, binding, noise_model=self.noise
        )
        value = float(rho.probabilities() @ problem.cut_values_table())
        if abs(value - solve.optimal_expectation) > DENSITY_ORACLE_ATOL:
            return f"density optimum {solve.optimal_expectation!r} vs oracle {value!r}"
        return None

    def quality(self, records):
        pairs = [r.output for r in records if r.ok]
        return {
            "approx_ratio_mean": _mean(
                [result.approximation_ratio for pair in pairs for result in pair]
            ),
            "function_calls_mean": _mean([solve.num_function_calls for solve, _ in pairs]),
        }


# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """An op in flight in the service closed loop."""

    record: OpRecord
    submitted: float
    began: float
    handles: list

    def done(self) -> bool:
        return all(handle.done for handle in self.handles)

    def wait(self, timeout: float) -> None:
        """Block until the first unfinished handle ends, at most *timeout* s."""
        for handle in self.handles:
            if not handle.done:
                waiter = getattr(handle, "wait", None)
                if waiter is None:  # expectation futures offer no wait()
                    time.sleep(timeout)
                else:
                    waiter(timeout)
                return


class ServiceMix(Workload):
    """A closed loop of mixed jobs against ``SolverService(max_workers=2)``."""

    name = "service-mix"
    MAX_WORKERS = 2
    OUTSTANDING = 4
    NUM_NODES = 8
    BURST = 16
    BURST_DEPTH = 2
    #: Op mix per block of 20 consecutive ops, shuffled by the seed: 10
    #: distinct solves (5 at p=1, 5 at p=2), 5 repeats of fixed configs, 4
    #: bursts, 1 circuit job.  Exact shares keep the latency median from
    #: drifting across the kinds' boundaries from run to run.
    BLOCK = ("solve1",) * 5 + ("solve2",) * 5 + ("repeat",) * 5 + ("burst",) * 4 + ("circuit",)
    #: Every this-many distinct solve is re-solved directly and compared.
    DIRECT_EVERY = 25
    #: Every this-many burst is re-evaluated on the circuit backend.
    BURST_EVERY = 10
    CIRCUIT = "hwe_ansatz"
    OBSERVABLE = ((1.0, "ZZII"), (1.0, "IIZZ"), (0.5, "XIIX"))

    def setup(self) -> None:
        rng = _rng(self.seed, -1, 4)
        self.fixed = []
        for _ in range(4):
            graph = erdos_renyi_graph(self.NUM_NODES, 0.5, seed=_draw_seed(rng))
            self.fixed.append((MaxCutProblem(graph), int(rng.integers(1, 3)), _draw_seed(rng)))
        self.qasm = circuit_source(self.CIRCUIT)
        self.observable = PauliSum(list(self.OBSERVABLE))
        self.service = SolverService(max_workers=self.MAX_WORKERS)
        self.metrics_snapshot: Optional[dict] = None
        warm = MaxCutProblem(erdos_renyi_graph(self.NUM_NODES, 0.5, seed=_draw_seed(rng)))
        self.service.submit(warm, 2, seed=_draw_seed(rng)).result(timeout=60)

    def teardown(self) -> None:
        self.service.shutdown(wait=True)

    def _submit(self, op_id: int) -> _Pending:
        block, position = divmod(op_id, len(self.BLOCK))
        kind = _rng(self.seed, block, 6).permutation(self.BLOCK)[position]
        rng = _rng(self.seed, op_id, 5)
        inputs: Dict[str, Any] = {}
        if kind.startswith("solve"):
            graph = erdos_renyi_graph(self.NUM_NODES, 0.5, seed=_draw_seed(rng))
            depth, kind = int(kind[-1]), "solve"
            inputs = {"problem": MaxCutProblem(graph), "depth": depth, "seed": _draw_seed(rng)}
        elif kind == "repeat":
            index = int(rng.integers(len(self.fixed)))
            problem, depth, seed = self.fixed[index]
            inputs = {"problem": problem, "depth": depth, "seed": seed, "config": index}
        elif kind == "burst":
            problem = self.fixed[int(rng.integers(len(self.fixed)))][0]
            points = rng.uniform(0.0, np.pi, size=(self.BURST, 2 * self.BURST_DEPTH))
            inputs = {"problem": problem, "points": points}
        else:
            inputs = {"parameters": rng.uniform(0.0, 2 * np.pi, size=24)}
        submitted, began = time.monotonic(), time.perf_counter()
        if kind in ("solve", "repeat"):
            handles = [
                self.service.submit(inputs["problem"], inputs["depth"], seed=inputs["seed"])
            ]
        elif kind == "burst":
            handles = [
                self.service.submit_expectation(inputs["problem"], self.BURST_DEPTH, point)
                for point in inputs["points"]
            ]
        else:
            handles = [
                self.service.submit_circuit(
                    self.qasm, self.observable, parameters=inputs["parameters"], name=self.CIRCUIT
                )
            ]
        return _Pending(OpRecord(op_id, kind, 0.0, inputs=inputs), submitted, began, handles)

    @staticmethod
    def _finish(pending: _Pending, observed: float) -> OpRecord:
        """Complete *pending*'s record; job latency uses the handle's own stamps."""
        record = pending.record
        try:
            values = [handle.result(timeout=0) for handle in pending.handles]
        except Exception as exc:  # a failed job is a measured outcome
            record.error = f"{type(exc).__name__}: {exc}"
            values = None
        if record.kind == "burst":
            # BatchFuture keeps no timestamps: the burst ends when observed.
            finished = observed
            record.output = values
        else:
            handle = pending.handles[0]
            finished = handle.finished_at if handle.finished_at is not None else observed
            record.output = None if values is None else values[0]
        record.latency_s = finished - pending.submitted
        return record

    def run_phase(self, seconds, tracer):
        records: List[OpRecord] = []
        outstanding: List[_Pending] = []
        started = time.monotonic()
        op_id = 0
        while True:
            while len(outstanding) < self.OUTSTANDING and time.monotonic() - started < seconds:
                outstanding.append(self._submit(op_id))
                op_id += 1
            if not outstanding:
                break
            finished = [pending for pending in outstanding if pending.done()]
            if not finished:
                outstanding[0].wait(0.001)
                continue
            observed = time.monotonic()
            for pending in finished:
                outstanding.remove(pending)
                record = self._finish(pending, observed)
                records.append(record)
                tracer.record_op(record.op_id, pending.began, pending.began + record.latency_s)
        wall = time.monotonic() - started
        self.metrics_snapshot = self.service.metrics.to_dict()
        return records, wall

    def check(self, record):
        inputs = record.inputs
        if record.kind in ("solve", "repeat"):
            result = record.output
            ratio = result.approximation_ratio
            if not 0.0 < ratio <= 1.0 + 1e-12:
                return f"approximation ratio {ratio} outside (0, 1]"
            if record.kind == "solve" and record.op_id % self.DIRECT_EVERY:
                return None
            key = (record.kind, inputs.get("config", record.op_id))
            direct = self._direct.get(key)
            if direct is None:
                direct = repro.solve(inputs["problem"], inputs["depth"], seed=inputs["seed"])
                self._direct[key] = direct
                reason = _check_solve(inputs["problem"], inputs["depth"], direct)
                if reason is not None:
                    return reason
            same = (
                result.optimal_expectation == direct.optimal_expectation
                and np.array_equal(
                    result.optimal_parameters.to_vector(), direct.optimal_parameters.to_vector()
                )
                and result.num_function_calls == direct.num_function_calls
            )
            return None if same else "service result differs from a direct repro.solve"
        if record.kind == "burst":
            if record.op_id % self.BURST_EVERY:
                return None
            expected = ExpectationEvaluator(
                inputs["problem"], self.BURST_DEPTH, context="circuit"
            ).expectation_batch(inputs["points"])
            if np.max(np.abs(np.asarray(record.output) - expected)) > REEVALUATION_ATOL:
                return "burst expectations differ from the circuit backend"
            return None
        expected = self._oracle.expectation(inputs["parameters"])
        if abs(record.output - expected) > REEVALUATION_ATOL:
            return f"circuit job {record.output!r} vs uncompiled oracle {expected!r}"
        return None

    def begin_checks(self) -> None:
        self._direct: Dict[tuple, Any] = {}
        self._oracle = CircuitExpectationEvaluator(self.qasm, self.observable, compiled=False)

    def quality(self, records):
        # Distinct solves only: a repeat returns a cached result, not new work.
        solves = [r.output for r in records if r.ok and r.kind == "solve"]
        return {
            "approx_ratio_mean": _mean([s.approximation_ratio for s in solves]),
            "function_calls_mean": _mean([s.num_function_calls for s in solves]),
        }


WORKLOADS = {
    workload.name: workload for workload in (Table1Rows, LargeNSolve, OpenSystem, ServiceMix)
}
