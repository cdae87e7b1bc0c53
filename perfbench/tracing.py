"""Spans around the library's public calls, recorded from outside ``src/``.

:class:`Tracer` replaces public functions and methods of each layer with
wrappers that record a span — name, start, end, parent span, op id — in
memory, and restores the originals afterwards.  No code under ``src/`` is
changed; the untraced run never installs the wrappers, so it pays nothing.

Layers are named after the modules they live in.  A layer's self time is
its span time minus the part covered by its child spans (see
:func:`benchlib.self_times`).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from benchlib import covered_length, intersection_length, ratio, self_times

OP_SPAN = "op"
#: Span names whose self time is kernel work, per statevector engine.
KERNEL_LAYERS = {
    "fast": "qaoa.fast_backend",
    "circuit": "quantum.engine",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_record, op_id]`` list per span.
        self.spans: List[list] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._patches: List[tuple] = []
        self._counter_lock = threading.Lock()
        self.enabled = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function: Callable, args, kwargs, on_result=None):
        """Run ``function(*args, **kwargs)`` inside a span called *name*."""
        if not self.enabled:
            return function(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent, -1 if parent is None else parent[4]]
        self.spans.append(record)
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()
        if on_result is not None:
            on_result(args, kwargs, result)
        return result

    def op(self, op_id: int, function: Callable, *args):
        """Run one benchmark op as a root span carrying *op_id*."""
        if not self.enabled:
            return function(*args)
        record = [OP_SPAN, 0.0, 0.0, None, op_id]
        self.spans.append(record)
        stack = self._stack()
        stack.append(record)
        record[1] = time.perf_counter()
        try:
            return function(*args)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def record_op(self, op_id: int, start: float, end: float) -> None:
        """Record an op that ran asynchronously, from its ``perf_counter`` bounds."""
        if self.enabled:
            self.spans.append([OP_SPAN, start, end, None, op_id])

    def add(self, counter: str, amount: float = 1) -> None:
        with self._counter_lock:  # service workers count concurrently
            self.counters[counter] += amount

    def wrap(self, function: Callable, name: str, on_result=None) -> Callable:
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.call(name, function, args, kwargs, on_result)

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by a traced wrapper (undone by :meth:`unpatch`)."""
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(self.wrap(original.__func__, name, on_result))
        else:
            wrapped = self.wrap(original, name, on_result)
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def install(self) -> None:
        """Patch the public entry points of every layer the benchmark reports."""
        import repro.dynamics.annealing as annealing
        import repro.frontend.evaluator as frontend_evaluator
        import repro.frontend.parser as frontend_parser
        from repro.acceleration import NaiveQAOARunner, TwoLevelQAOARunner
        from repro.dynamics import Lindbladian
        from repro.execution import available_backends
        from repro.optimizers.base import Optimizer
        from repro.prediction.dataset import TrainingDataset
        from repro.prediction.predictor import ParameterPredictor
        from repro.qaoa.cost import ExpectationEvaluator
        from repro.qaoa.solver import QAOASolver
        from repro.quantum.density import DensityMatrixSimulator

        self.patch(NaiveQAOARunner, "run", "acceleration.naive")
        self.patch(TwoLevelQAOARunner, "run", "acceleration.two_level")
        self.patch(TrainingDataset, "generate", "prediction.dataset_generate")
        self.patch(ParameterPredictor, "fit", "prediction.fit")
        self.patch(ParameterPredictor, "predict", "prediction.predict")
        self.patch(Optimizer, "maximize", "optimizers.maximize", self._on_optimizer)
        self.patch(QAOASolver, "solve", "qaoa.solver.solve")
        self.patch(ExpectationEvaluator, "expectation", "qaoa.cost.expectation")
        self.patch(
            ExpectationEvaluator, "expectation_batch", "qaoa.cost.batch", self._on_cost_batch
        )
        for backend in available_backends().values():
            if "compile" in type(backend).__dict__:
                self.patch(type(backend), "compile", "execution.compile", self._on_compile)
        self.patch(DensityMatrixSimulator, "run", "quantum.density.run", self._on_density)
        self.patch(annealing, "evolve", "dynamics.evolve", self._on_evolve)
        self.patch(Lindbladian, "rhs", "dynamics.rhs")
        self.patch(frontend_parser, "parse_qasm", "frontend.ingest")
        self.patch(frontend_evaluator, "ingest", "frontend.ingest")

    # ------------------------------------------------------------------
    # Result hooks: counts measured where the work happens
    # ------------------------------------------------------------------
    def _on_optimizer(self, args, _kwargs, result) -> None:
        optimizer = args[0]
        self.add("optimizers.runs")
        cap = optimizer.max_iterations
        if result.num_iterations > 0:
            # Gradient optimizers report iterations; scipy's COBYLA does not,
            # and its maxiter bounds evaluations instead.
            self.add("optimizers.iterations", result.num_iterations)
            self.add("optimizers.iterated_evals", result.num_function_calls)
            capped = result.num_iterations >= cap
        else:
            capped = result.num_function_calls >= cap
        if capped:
            self.add("optimizers.cap_hits")

    def _on_cost_batch(self, _args, _kwargs, result) -> None:
        self.add("qaoa.cost.batch_columns", len(result))

    def _on_compile(self, args, _kwargs, program) -> None:
        backend, problem = args[0], args[1]
        layer = KERNEL_LAYERS.get(backend.name)
        if layer is None:
            return
        amplitudes = 1 << problem.num_qubits
        counter = f"{layer}.amplitudes"

        def scalar_done(_a, _k, _r) -> None:
            self.add(counter, amplitudes)

        def batch_done(a, _k, _r) -> None:
            self.add(counter, amplitudes * len(a[0]))

        # The program object is what Backend.compile returns; its methods
        # are the kernel entry points the evaluator dispatches to.
        program.expectation = self.wrap(
            program.expectation, f"{layer}.expectation", scalar_done
        )
        program.expectation_batch = self.wrap(
            program.expectation_batch, f"{layer}.batch", batch_done
        )

    def _on_density(self, args, _kwargs, _result) -> None:
        self.add("quantum.density.vec_elements", 4 ** args[1].num_qubits)

    def _on_evolve(self, _args, _kwargs, result) -> None:
        self.add("dynamics.steps", result.num_steps)
        self.add("dynamics.rhs_evals", result.num_rhs_evaluations)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> List[list]:
        """Spans as ``[name, start, end, parent_index, op_id]`` rows."""
        index = {id(record): position for position, record in enumerate(self.spans)}
        return [
            [name, start, end, -1 if parent is None else index[id(parent)], op_id]
            for name, start, end, parent, op_id in self.spans
        ]


def layer_table(rows: List[list], first: int = 0) -> Dict[str, Dict[str, float]]:
    """Count, total and self seconds per span name over ``rows[first:]``."""
    times = self_times([(start, end, parent) for _n, start, end, parent, _o in rows])
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for position in range(first, len(rows)):
        name, start, end = rows[position][:3]
        entry = table[name]
        entry["count"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += times[position]
    return dict(table)


def unattributed_pct(rows: List[list], first: int = 0) -> float:
    """Share of the ops' wall-clock during which no layer span was open.

    Layer spans on every thread count, so work a service worker does while
    the client waits on it is attributed.
    """
    ops = [(row[1], row[2]) for row in rows[first:] if row[0] == OP_SPAN]
    layers = [(row[1], row[2]) for row in rows[first:] if row[0] != OP_SPAN]
    op_time = covered_length(ops)
    covered = intersection_length(ops, layers)
    return 100.0 * ratio(op_time - covered, op_time)


def layer_metrics(
    table: Dict[str, Dict[str, float]],
    counters: Counter,
    ops: int,
    setup_table: Dict[str, Dict[str, float]],
) -> Dict[str, float]:
    """The per-layer metrics: per-op means of the traced phase.

    ``*_calls`` and counts are per op, ``*_s`` are seconds per op, except the
    predictor-training layers, which run once per set-up.
    """

    def get(name: str, field: str) -> float:
        return table.get(name, {}).get(field, 0.0)

    def per_op(value: float) -> float:
        return ratio(value, ops)

    metrics = {
        "acceleration.naive_s": per_op(get("acceleration.naive", "total_s")),
        "acceleration.two_level_s": per_op(get("acceleration.two_level", "total_s")),
        "prediction.dataset_generate_s": setup_table.get(
            "prediction.dataset_generate", {}
        ).get("total_s", 0.0),
        "prediction.fit_s": setup_table.get("prediction.fit", {}).get("total_s", 0.0),
        "prediction.predict_calls": per_op(get("prediction.predict", "count")),
        "prediction.predict_s": per_op(get("prediction.predict", "total_s")),
        "optimizers.self_s": per_op(get("optimizers.maximize", "self_s")),
        "optimizers.iterations": per_op(counters["optimizers.iterations"]),
        "optimizers.evals_per_iteration": ratio(
            counters["optimizers.iterated_evals"], counters["optimizers.iterations"]
        ),
        "optimizers.cap_hit_share": ratio(
            counters["optimizers.cap_hits"], counters["optimizers.runs"]
        ),
        "qaoa.solver.solve_calls": per_op(get("qaoa.solver.solve", "count")),
        "qaoa.solver.self_s": per_op(get("qaoa.solver.solve", "self_s")),
        "execution.compile_calls": per_op(get("execution.compile", "count")),
        "execution.compile_s": per_op(get("execution.compile", "total_s")),
        "qaoa.cost.expectation_calls": per_op(get("qaoa.cost.expectation", "count")),
        "qaoa.cost.batch_calls": per_op(get("qaoa.cost.batch", "count")),
        "qaoa.cost.batch_columns": per_op(counters["qaoa.cost.batch_columns"]),
        "qaoa.cost.self_s": per_op(
            get("qaoa.cost.expectation", "self_s") + get("qaoa.cost.batch", "self_s")
        ),
    }
    for layer in KERNEL_LAYERS.values():
        scalar = get(f"{layer}.expectation", "total_s")
        batch = get(f"{layer}.batch", "total_s")
        metrics[f"{layer}.expectation_s"] = per_op(scalar)
        metrics[f"{layer}.batch_s"] = per_op(batch)
        metrics[f"{layer}.amplitudes_per_s"] = ratio(
            counters[f"{layer}.amplitudes"], scalar + batch
        )
    density_s = get("quantum.density.run", "total_s")
    steps = counters["dynamics.steps"]
    rhs_evals = counters["dynamics.rhs_evals"]
    metrics.update(
        {
            "quantum.density.run_calls": per_op(get("quantum.density.run", "count")),
            "quantum.density.run_s": per_op(density_s),
            "quantum.density.vec_elements_per_s": ratio(
                counters["quantum.density.vec_elements"], density_s
            ),
            "dynamics.evolve_s": per_op(get("dynamics.evolve", "total_s")),
            "dynamics.steps": per_op(steps),
            "dynamics.rhs_evals": per_op(rhs_evals),
            "dynamics.rhs_us": 1e6
            * ratio(get("dynamics.rhs", "total_s"), get("dynamics.rhs", "count")),
            "dynamics.rhs_per_step": ratio(rhs_evals, steps),
            "frontend.ingest_calls": per_op(get("frontend.ingest", "count")),
            "frontend.ingest_s": per_op(get("frontend.ingest", "total_s")),
        }
    )
    return metrics


def service_metrics(snapshot: Optional[dict]) -> Dict[str, float]:
    """Service and resilience layer metrics from ``ServiceMetrics.to_dict()``."""
    if snapshot is None:
        snapshot = {}
    jobs = snapshot.get("jobs", {})
    latency = snapshot.get("latency", {})
    caches = snapshot.get("caches", {})

    def p50_ms(name: str) -> float:
        value = latency.get(name, {}).get("p50")
        return 0.0 if value is None else 1000.0 * value

    def value(section: dict, *path: str) -> float:
        for key in path:
            section = section.get(key) if isinstance(section, dict) else None
        return 0.0 if section is None else float(section)

    return {
        "service.queue_wait_p50_ms": p50_ms("queue_wait_seconds"),
        "service.run_p50_ms": p50_ms("run_seconds"),
        "service.result_cache_hit_rate": value(caches, "result", "hit_rate"),
        "service.program_cache_hit_rate": value(caches, "program", "hit_rate"),
        "service.dedup_share": ratio(
            value(jobs, "deduplicated"), value(jobs, "submitted")
        ),
        "service.coalescer_mean_batch": value(snapshot, "coalescer", "mean_batch_size"),
        "service.coalescer_flush_wait_p50_ms": p50_ms("batch_flush_wait_seconds"),
        "service.queue_max_depth": value(snapshot, "queue", "max_depth"),
        "resilience.retries": value(jobs, "retries"),
        "resilience.breaker_rejections": value(
            snapshot, "resilience", "breaker", "rejections"
        ),
    }
