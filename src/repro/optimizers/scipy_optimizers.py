"""SciPy-backed local optimizers.

These are the four optimizers evaluated in Table I of the paper: the
gradient-based L-BFGS-B and SLSQP and the gradient-free Nelder-Mead and
COBYLA.  The gradient methods receive ``jac=`` from :func:`forward_difference`,
a forward-difference gradient that applies SciPy's own step rule (its
``approx_derivative(method="2-point", abs_step=eps)``) and evaluates the
``d`` probes of one gradient as one batch.  Every probe still counts as one
function call — exactly as it would on a real quantum processor — and the
points, values and results are bit-identical to letting SciPy difference the
objective itself.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
from scipy import optimize as scipy_optimize

from repro.exceptions import OptimizationError, ReproError
from repro.optimizers.base import Bounds, CountingObjective, OptimizationResult, Optimizer


def forward_difference(
    objective: CountingObjective,
    point: np.ndarray,
    step,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Forward-difference gradient of *objective* at *point*, SciPy's way.

    Reproduces ``approx_derivative(method="2-point", abs_step=step,
    bounds=(lower, upper))`` bit for bit: a step whose ``(x + h) - x`` is
    zero falls back to ``sqrt(eps) * sign(x) * max(1, |x|)``, a step that
    would leave the bounds flips sign or, if neither side fits, shrinks to
    the distance to the farther bound.  ``f(x)`` is the evaluation the
    optimizer just made at *point* (see
    :meth:`~repro.optimizers.base.CountingObjective.value_at`); the ``d``
    probes run as one :meth:`~repro.optimizers.base.CountingObjective.evaluate_batch`
    call, in coordinate order.
    """
    point = np.asarray(point, dtype=float)
    f0 = objective.value_at(point)
    sign = (point >= 0).astype(float) * 2 - 1
    fallback = np.finfo(np.float64).eps ** 0.5 * sign * np.maximum(1.0, np.abs(point))
    h = np.where((point + step) - point == 0, fallback, step)
    if not np.all((lower == -np.inf) & (upper == np.inf)):
        lower_dist = point - lower
        upper_dist = upper - point
        probe = point + h
        violated = (probe < lower) | (probe > upper)
        fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
        h = np.where(violated & fitting, -h, h)
        h = np.where(fitting, h, np.where(upper_dist >= lower_dist, upper_dist, -lower_dist))
    probes = np.repeat(point[None, :], point.size, axis=0)
    diagonal = np.arange(point.size)
    probes[diagonal, diagonal] = point + h
    return (objective.evaluate_batch(probes) - f0) / ((point + h) - point)


class ScipyOptimizer(Optimizer):
    """Adapter from :func:`scipy.optimize.minimize` to :class:`Optimizer`."""

    #: SciPy method name; subclasses override.
    method: str = None

    #: SciPy's default absolute finite-difference step (its ``eps`` option)
    #: for gradient methods; ``None`` marks a gradient-free method.
    gradient_step: Optional[float] = None

    def __init__(
        self,
        *,
        tolerance: float = 1e-6,
        max_iterations: int = 10000,
        record_history: bool = False,
        options: Dict = None,
    ):
        if self.method is None:
            raise OptimizationError(
                "ScipyOptimizer must be subclassed with a concrete method"
            )
        super().__init__(
            self.method,
            tolerance=tolerance,
            max_iterations=max_iterations,
            record_history=record_history,
        )
        self._extra_options = dict(options or {})

    def _scipy_options(self) -> Dict:
        """Method-specific options implementing the functional tolerance."""
        options: Dict = {"maxiter": self._max_iterations}
        if self.method in ("L-BFGS-B", "SLSQP"):
            options["ftol"] = self._tolerance
        elif self.method == "Nelder-Mead":
            options["fatol"] = self._tolerance
            options["xatol"] = self._tolerance
        elif self.method == "COBYLA":
            # COBYLA's final trust-region radius plays the tolerance role.
            options["tol"] = self._tolerance
            options["maxiter"] = self._max_iterations
        options.update(self._extra_options)
        return options

    def _supports_bounds(self) -> bool:
        return self.method in ("L-BFGS-B", "SLSQP", "Nelder-Mead")

    def _gradient_problem(self, objective, initial_point, bounds, options):
        """What SciPy minimizes when handed ``jac=``: objective, start, bounds, jac.

        The ``jac`` is :func:`forward_difference` at the method's step.  Two
        SciPy behaviours without ``jac=`` are kept.  Variables fixed by
        ``low == high`` bounds are dropped from the problem before
        differencing (returned ``restore`` maps a reduced point back).
        L-BFGS-B compares ``maxfun`` with a count that includes its probes,
        ``1 + d`` per evaluation, so the limit is rescaled to evaluations.
        """
        size = initial_point.size
        lower, upper = np.full(size, -np.inf), np.full(size, np.inf)
        if bounds is not None:
            lower, upper = np.array(bounds, dtype=float).T
        fixed = lower == upper
        restore = None
        if fixed.any() and not fixed.all():
            objective = _FreeVariables(objective, lower, fixed)
            restore = objective.embed
            initial_point, lower, upper = initial_point[~fixed], lower[~fixed], upper[~fixed]
            bounds = list(zip(lower, upper))
        if self.method == "L-BFGS-B":
            # 15000 is SciPy's default maxfun.
            options["maxfun"] = options.get("maxfun", 15000) // (1 + initial_point.size)
        step = options.get("eps", self.gradient_step)

        def jacobian(point: np.ndarray) -> np.ndarray:
            return forward_difference(objective, point, step, lower, upper)

        return objective, initial_point, bounds, jacobian, restore

    def _minimize(
        self,
        objective: CountingObjective,
        initial_point: np.ndarray,
        bounds: Bounds,
    ) -> OptimizationResult:
        options = self._scipy_options()
        function, start, restore, kwargs = objective, initial_point, None, {}
        if self.gradient_step is not None:
            function, start, bounds, kwargs["jac"], restore = self._gradient_problem(
                objective, initial_point, bounds, options
            )
        if bounds is not None and self._supports_bounds():
            kwargs["bounds"] = bounds
        tol = self._tolerance if self.method == "COBYLA" else None
        try:
            scipy_result = scipy_optimize.minimize(
                function,
                start,
                method=self.method,
                tol=tol,
                options={k: v for k, v in options.items() if k != "tol"},
                **kwargs,
            )
        except ReproError:
            # The objective's own errors (an injected transient fault, a
            # simulation error) keep their type, so callers can retry them.
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise OptimizationError(
                f"scipy optimizer {self.method!r} failed: {exc}"
            ) from exc

        # Prefer the best point actually evaluated: some methods report the
        # last iterate, which for a noisy / flat landscape can be slightly
        # worse than the best sample seen.
        best_value = objective.best_value
        best_point = objective.best_point
        reported_value = float(scipy_result.fun)
        if best_value is not None and best_value < reported_value:
            optimal_value, optimal_parameters = best_value, best_point
        else:
            optimal_value, optimal_parameters = reported_value, np.asarray(
                scipy_result.x, dtype=float
            )
            if restore is not None:
                optimal_parameters = restore(optimal_parameters)

        num_iterations = int(getattr(scipy_result, "nit", 0) or 0)
        return OptimizationResult(
            optimal_parameters=optimal_parameters,
            optimal_value=optimal_value,
            num_function_calls=objective.num_evaluations,
            num_iterations=num_iterations,
            converged=bool(scipy_result.success),
            optimizer_name=self.name,
            message=str(scipy_result.message),
        )


class _FreeVariables:
    """An objective over the free variables, the fixed ones held at their bound.

    SciPy's own reduction of a problem with fixed variables, applied to the
    scalar and the batched side of a
    :class:`~repro.optimizers.base.CountingObjective`.
    """

    def __init__(self, objective: CountingObjective, lower: np.ndarray, fixed: np.ndarray):
        self._objective = objective
        self._template = np.where(fixed, lower, 0.0)
        self._free = ~fixed

    def embed(self, points: np.ndarray) -> np.ndarray:
        full = np.tile(self._template, np.shape(points)[:-1] + (1,))
        full[..., self._free] = points
        return full

    def __call__(self, point: np.ndarray) -> float:
        return self._objective(self.embed(point))

    def value_at(self, point: np.ndarray) -> float:
        return self._objective.value_at(self.embed(point))

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        return self._objective.evaluate_batch(self.embed(points))


class LBFGSBOptimizer(ScipyOptimizer):
    """Quasi-Newton L-BFGS-B (gradient via finite differences)."""

    method = "L-BFGS-B"
    gradient_step = 1e-8


class NelderMeadOptimizer(ScipyOptimizer):
    """Derivative-free Nelder-Mead simplex method."""

    method = "Nelder-Mead"


class SLSQPOptimizer(ScipyOptimizer):
    """Sequential least-squares programming (gradient via finite differences)."""

    method = "SLSQP"
    gradient_step = float(np.sqrt(np.finfo(float).eps))


class CobylaOptimizer(ScipyOptimizer):
    """Constrained optimization by linear approximation (derivative-free)."""

    method = "COBYLA"
