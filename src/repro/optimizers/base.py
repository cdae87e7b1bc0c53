"""Optimizer interface, result container and function-call accounting.

The paper's key run-time metric is the number of optimization-loop iterations
("function calls" / "QC calls"): every objective evaluation corresponds to one
execution of the quantum circuit.  :class:`CountingObjective` makes that
number an explicit, optimizer-independent measurement.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import OptimizationError

Objective = Callable[[np.ndarray], float]

#: A batched objective: ``(k, d)`` points in, ``(k,)`` values out, row ``i``
#: bit-identical to the scalar objective at ``points[i]``.
BatchObjective = Callable[[np.ndarray], np.ndarray]
Bounds = Optional[Sequence[Tuple[float, float]]]


#: Progress callback fired after every objective evaluation with
#: ``(num_evaluations, value)``.  Observers are observational only — they
#: must not mutate the point — but they *may* raise to abort the run (the
#: solver's fault-injection and checkpoint machinery rely on both halves).
Observer = Callable[[int, float], None]


class CountingObjective:
    """Wrap an objective function and count / record its evaluations.

    An optional *observer* receives ``(num_evaluations, value)`` after each
    evaluation — the hook the solver uses for periodic checkpoint progress
    snapshots without optimizer-specific plumbing.

    *batch* evaluates a stack of points in one call (see
    :meth:`evaluate_batch`); without one, a batch is a loop over *function*.
    Every column of a batch counts as one evaluation, exactly as if it had
    been a scalar call.
    """

    def __init__(
        self,
        function: Objective,
        *,
        batch: Optional[BatchObjective] = None,
        record_history: bool = False,
        observer: Optional[Observer] = None,
    ):
        if not callable(function):
            raise OptimizationError("objective must be callable")
        if batch is not None and not callable(batch):
            raise OptimizationError("batch objective must be callable")
        if observer is not None and not callable(observer):
            raise OptimizationError("observer must be callable")
        self._function = function
        self._batch = batch if batch is not None else self._loop
        self._num_evaluations = 0
        self._num_batches = 0
        self._record_history = record_history
        self._observer = observer
        self._history: List[float] = []
        self._best_value: Optional[float] = None
        self._best_point: Optional[np.ndarray] = None
        self._last: Optional[Tuple[np.ndarray, float]] = None

    def _loop(self, points: np.ndarray) -> np.ndarray:
        return np.array([float(self._function(point)) for point in points])

    def __call__(self, point: Sequence[float]) -> float:
        point = np.asarray(point, dtype=float)
        value = float(self._function(point))
        self._last = (point.copy(), value)
        self._record(point, value)
        return value

    def value_at(self, point: np.ndarray) -> float:
        """The objective at *point*, reusing the latest scalar evaluation.

        A gradient helper calls this for ``f(x)`` right after the optimizer
        evaluated ``x`` itself, so no evaluation is repeated.
        """
        if self._last is not None and np.array_equal(self._last[0], point):
            return self._last[1]
        return self(point)

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the rows of a ``(k, d)`` matrix in one batched call.

        The columns are counted, recorded and observed in row order, after
        the batch returns.
        """
        points = np.asarray(points, dtype=float)
        values = np.asarray(self._batch(points), dtype=float)
        if values.shape != points.shape[:1]:
            raise OptimizationError(
                f"batch objective returned shape {values.shape} for "
                f"{points.shape[0]} points"
            )
        self._num_batches += 1
        for point, value in zip(points, values):
            self._record(point, float(value))
        return values

    def _record(self, point: np.ndarray, value: float) -> None:
        self._num_evaluations += 1
        if self._record_history:
            self._history.append(value)
        if self._best_value is None or value < self._best_value:
            self._best_value = value
            self._best_point = point.copy()
        if self._observer is not None:
            self._observer(self._num_evaluations, value)

    @property
    def num_evaluations(self) -> int:
        """Number of objective evaluations performed so far."""
        return self._num_evaluations

    @property
    def num_batches(self) -> int:
        """Number of :meth:`evaluate_batch` calls (finite-difference sweeps)."""
        return self._num_batches

    @property
    def history(self) -> List[float]:
        """Recorded objective values (empty unless ``record_history=True``)."""
        return list(self._history)

    @property
    def best_value(self) -> Optional[float]:
        """Lowest value seen so far, or ``None`` before the first call."""
        return self._best_value

    @property
    def best_point(self) -> Optional[np.ndarray]:
        """Point achieving :attr:`best_value`."""
        return None if self._best_point is None else self._best_point.copy()

    def reset(self) -> None:
        """Forget all counters and history."""
        self._num_evaluations = 0
        self._num_batches = 0
        self._history = []
        self._best_value = None
        self._best_point = None
        self._last = None


@dataclass
class OptimizationResult:
    """Outcome of one local-optimizer run.

    ``num_function_calls`` counts every objective evaluation, gradient
    probes included (the paper's "FC").  ``num_gradient_calls`` counts the
    finite-difference gradient sweeps among them (0 for gradient-free
    methods).
    """

    optimal_parameters: np.ndarray
    optimal_value: float
    num_function_calls: int
    num_iterations: int
    converged: bool
    optimizer_name: str
    message: str = ""
    history: List[float] = field(default_factory=list)
    num_gradient_calls: int = 0

    def __post_init__(self) -> None:
        self.optimal_parameters = np.asarray(self.optimal_parameters, dtype=float)

    @property
    def num_parameters(self) -> int:
        """Dimensionality of the optimized parameter vector."""
        return int(self.optimal_parameters.size)

    def __repr__(self) -> str:
        return (
            f"OptimizationResult(optimizer={self.optimizer_name!r}, "
            f"value={self.optimal_value:.6f}, calls={self.num_function_calls}, "
            f"converged={self.converged})"
        )


class Optimizer(ABC):
    """Base class for local minimizers.

    Subclasses implement :meth:`_minimize`, receiving a
    :class:`CountingObjective` so that function-call accounting is uniform
    across SciPy-backed and native optimizers.
    """

    def __init__(
        self,
        name: str,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 10000,
        record_history: bool = False,
    ):
        if tolerance <= 0:
            raise OptimizationError(f"tolerance must be positive, got {tolerance}")
        if max_iterations <= 0:
            raise OptimizationError(
                f"max_iterations must be positive, got {max_iterations}"
            )
        self._name = name
        self._tolerance = float(tolerance)
        self._max_iterations = int(max_iterations)
        self._record_history = bool(record_history)

    @property
    def name(self) -> str:
        """The optimizer's display name (e.g. ``"L-BFGS-B"``)."""
        return self._name

    @property
    def tolerance(self) -> float:
        """Functional tolerance used as the convergence criterion."""
        return self._tolerance

    @property
    def max_iterations(self) -> int:
        """Upper bound on optimizer iterations."""
        return self._max_iterations

    def minimize(
        self,
        objective: Objective,
        initial_point: Sequence[float],
        bounds: Bounds = None,
        observer: Optional[Observer] = None,
        batch: Optional[BatchObjective] = None,
    ) -> OptimizationResult:
        """Minimize *objective* starting from *initial_point*.

        *observer*, when given, is called with ``(num_evaluations, value)``
        after every objective evaluation (see :class:`CountingObjective`).
        *batch*, when given, evaluates ``(k, d)`` stacks of points with rows
        bit-identical to *objective*; finite-difference gradients send all
        their probes through it in one call.  Without it a batch is a loop
        over *objective*, so results do not depend on whether it is given.
        """
        initial_point = np.asarray(initial_point, dtype=float)
        if initial_point.ndim != 1 or initial_point.size == 0:
            raise OptimizationError(
                f"initial_point must be a non-empty 1-D array, got shape "
                f"{initial_point.shape}"
            )
        if bounds is not None:
            bounds = [(float(low), float(high)) for low, high in bounds]
            if len(bounds) != initial_point.size:
                raise OptimizationError(
                    f"bounds length {len(bounds)} does not match the "
                    f"{initial_point.size}-dimensional initial point"
                )
            for low, high in bounds:
                if low > high:
                    raise OptimizationError(f"invalid bound ({low}, {high})")
        counting = CountingObjective(
            objective,
            batch=batch,
            record_history=self._record_history,
            observer=observer,
        )
        result = self._minimize(counting, initial_point, bounds)
        result.history = counting.history
        result.num_gradient_calls = counting.num_batches
        return result

    def maximize(
        self,
        objective: Objective,
        initial_point: Sequence[float],
        bounds: Bounds = None,
        observer: Optional[Observer] = None,
        batch: Optional[BatchObjective] = None,
    ) -> OptimizationResult:
        """Maximize *objective* (minimizes its negation and flips the value).

        An *observer* sees the values in the caller's (maximization)
        orientation; *batch* is negated like *objective*.
        """
        flipped = None
        if observer is not None:
            def flipped(count: int, value: float) -> None:
                observer(count, -value)
        negated_batch = None
        if batch is not None:
            def negated_batch(points: np.ndarray) -> np.ndarray:
                return -np.asarray(batch(points), dtype=float)
        result = self.minimize(
            lambda x: -float(objective(x)),
            initial_point,
            bounds,
            observer=flipped,
            batch=negated_batch,
        )
        result.optimal_value = -result.optimal_value
        result.history = [-value for value in result.history]
        return result

    @abstractmethod
    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        """Optimizer-specific minimization."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self._name!r}, tol={self._tolerance:g}, "
            f"max_iterations={self._max_iterations})"
        )
