"""Deterministic fault injection for chaos-testing the solver service.

The resilience machinery (retries, circuit breaker, checkpoint/resume,
persistent cache) is only trustworthy if every recovery path is *exercised*,
and chaos tests are only debuggable if the chaos is *replayable*.  This
module provides both halves:

* :class:`FaultPlan` — an immutable schedule mapping ``(site, operation
  index)`` to a fault.  Plans are either scripted explicitly
  (``FaultPlan([Fault("worker.run", 0, "transient")])``) or generated from a
  seed (:meth:`FaultPlan.from_seed`), so a failing chaos run reproduces
  exactly from its seed.
* :class:`FaultInjector` — the runtime half: instrumented boundaries call
  :meth:`FaultInjector.check` (raise / delay faults) or
  :meth:`FaultInjector.filter_bytes` (byte-corruption faults on cache I/O)
  with a site name; the injector counts operations per site and fires the
  planned fault when the count matches.

Instrumented sites in the library:

``worker.run``
    :meth:`~repro.service.service.SolverService` checks once per job
    attempt, before the solve runs (transient faults go through the retry
    policy and circuit breaker like real failures).
``backend.evaluate``
    :class:`~repro.qaoa.solver.QAOASolver` checks once per objective
    evaluation when built with ``fault_injector=`` (a batched gradient
    sweep checks once per column before it runs).
``cache.read`` / ``cache.write``
    :class:`~repro.service.persistence.PersistentResultCache` filters entry
    bytes through the injector, so ``corrupt`` faults produce real
    corrupted-file-on-disk scenarios.

Fault kinds:

``transient``
    Raises :class:`~repro.exceptions.TransientServiceError` (retryable).
``fatal``
    Raises :class:`~repro.exceptions.ServiceError` (not retryable).
``latency``
    Sleeps ``fault.latency`` seconds through the injectable sleep, then
    proceeds normally.
``corrupt``
    Only meaningful on byte-filtering sites: deterministically flips bytes
    of the payload passing through :meth:`FaultInjector.filter_bytes`.

Examples
--------
>>> plan = FaultPlan([Fault("worker.run", 0, "transient")])
>>> injector = FaultInjector(plan)
>>> try:
...     injector.check("worker.run")
... except Exception as error:
...     print(type(error).__name__)
TransientServiceError
>>> injector.check("worker.run")  # index 1: no fault planned
>>> injector.injected
[('worker.run', 0, 'transient')]
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, ServiceError, TransientServiceError

__all__ = ["FAULT_KINDS", "Fault", "FaultInjector", "FaultPlan"]

#: The supported fault kinds (see module docstring for semantics).
FAULT_KINDS = ("transient", "fatal", "latency", "corrupt")


@dataclass(frozen=True)
class Fault:
    """One planned fault: *kind* fired at operation *index* of *site*."""

    site: str
    index: int
    kind: str
    #: Injected delay in seconds (``latency`` faults only).
    latency: float = 0.0
    #: Free-form note carried into the raised error message.
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.index < 0:
            raise ConfigurationError(f"fault index must be >= 0, got {self.index}")
        if self.latency < 0:
            raise ConfigurationError(f"fault latency must be >= 0, got {self.latency}")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable schedule of :class:`Fault` entries.

    At most one fault is planned per ``(site, index)`` pair; scripting two
    faults for the same operation is a configuration error.
    """

    faults: Tuple[Fault, ...] = ()
    _by_site: Dict[str, Dict[int, Fault]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __init__(self, faults: Iterable[Fault] = ()):
        object.__setattr__(self, "faults", tuple(faults))
        by_site: Dict[str, Dict[int, Fault]] = {}
        for fault in self.faults:
            slot = by_site.setdefault(fault.site, {})
            if fault.index in slot:
                raise ConfigurationError(
                    f"duplicate fault planned for {fault.site!r} at index {fault.index}"
                )
            slot[fault.index] = fault
        object.__setattr__(self, "_by_site", by_site)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        *,
        rates: Mapping[str, float],
        horizon: int = 256,
        kinds: Tuple[str, ...] = ("transient",),
        latency: float = 0.0,
    ) -> "FaultPlan":
        """Generate a deterministic plan from *seed*.

        For each site in *rates*, every operation index below *horizon*
        faults independently with the site's probability; the fault kind is
        drawn uniformly from *kinds*.  The same seed always yields the same
        plan, so a chaos run is reproduced by its seed alone.
        """
        if horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
                )
        rng = np.random.default_rng(int(seed))
        faults: List[Fault] = []
        # Sites are visited in sorted order so dict ordering cannot change
        # the draw sequence.
        for site in sorted(rates):
            rate = float(rates[site])
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate}"
                )
            hits = rng.random(horizon) < rate
            choices = rng.integers(0, len(kinds), size=horizon)
            for index in np.flatnonzero(hits):
                kind = kinds[int(choices[index])]
                faults.append(
                    Fault(
                        site,
                        int(index),
                        kind,
                        latency=latency if kind == "latency" else 0.0,
                        detail=f"seeded(seed={seed})",
                    )
                )
        return cls(faults)

    def fault_at(self, site: str, index: int) -> Optional[Fault]:
        """The fault planned for operation *index* of *site*, if any."""
        return self._by_site.get(site, {}).get(index)

    @property
    def sites(self) -> Tuple[str, ...]:
        """The sites this plan touches, sorted."""
        return tuple(sorted(self._by_site))

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __repr__(self) -> str:
        return f"FaultPlan(faults={len(self.faults)}, sites={list(self.sites)})"


class FaultInjector:
    """Runtime fault firing against a :class:`FaultPlan`.

    Thread-safe: per-site operation counters are kept under a lock, so a
    plan replays exactly in single-threaded runs and remains a valid
    (deterministic-schedule, possibly interleaved) storm under concurrency.

    Parameters
    ----------
    plan:
        The fault schedule.
    metrics:
        Optional :class:`~repro.service.metrics.ServiceMetrics`; every fired
        fault is counted by kind.
    sleep:
        Injectable sleep for ``latency`` faults (tests pass a fake to keep
        chaos runs zero-wall-clock).
    """

    def __init__(
        self,
        plan: FaultPlan,
        metrics=None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not isinstance(plan, FaultPlan):
            plan = FaultPlan(plan)
        self._plan = plan
        self._metrics = metrics
        self._sleep = sleep
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._injected: List[Tuple[str, int, str]] = []

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    @property
    def injected(self) -> List[Tuple[str, int, str]]:
        """Every fault fired so far, as ``(site, index, kind)`` tuples."""
        with self._lock:
            return list(self._injected)

    def operations(self, site: str) -> int:
        """How many operations *site* has reported so far."""
        with self._lock:
            return self._counters.get(site, 0)

    def attach_metrics(self, metrics) -> None:
        """Report fired faults into *metrics* from now on."""
        self._metrics = metrics

    def reset(self) -> None:
        """Forget all counters and the fired-fault log (replay from zero)."""
        with self._lock:
            self._counters.clear()
            self._injected.clear()

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------
    def _next(self, site: str) -> Optional[Fault]:
        with self._lock:
            index = self._counters.get(site, 0)
            self._counters[site] = index + 1
            fault = self._plan.fault_at(site, index)
            if fault is not None:
                self._injected.append((site, index, fault.kind))
        if fault is not None and self._metrics is not None:
            self._metrics.fault_injected(fault.kind)
        return fault

    def check(self, site: str) -> None:
        """Count one operation at *site*; raise or delay if a fault is due.

        ``corrupt`` faults are ignored here (they only make sense on byte
        streams); use :meth:`filter_bytes` at I/O boundaries.
        """
        fault = self._next(site)
        if fault is None or fault.kind == "corrupt":
            return
        if fault.kind == "latency":
            self._sleep(fault.latency)
            return
        self._raise(fault)

    def filter_bytes(self, site: str, data: bytes) -> bytes:
        """Count one I/O operation at *site*; corrupt, raise or delay.

        ``corrupt`` faults deterministically flip a handful of bytes (the
        flip positions derive from the fault's site and index, not global
        state, so corruption is replayable byte-for-byte).
        """
        fault = self._next(site)
        if fault is None:
            return data
        if fault.kind == "latency":
            self._sleep(fault.latency)
            return data
        if fault.kind == "corrupt":
            return self._corrupt(fault, data)
        self._raise(fault)
        return data  # pragma: no cover - _raise always raises

    @staticmethod
    def _corrupt(fault: Fault, data: bytes) -> bytes:
        if not data:
            return data
        rng = np.random.default_rng(abs(hash((fault.site, fault.index))) % (2**63))
        corrupted = bytearray(data)
        flips = min(len(corrupted), 8)
        for position in rng.integers(0, len(corrupted), size=flips):
            corrupted[int(position)] ^= 0xFF
        return bytes(corrupted)

    @staticmethod
    def _raise(fault: Fault) -> None:
        message = (
            f"injected {fault.kind} fault at {fault.site!r} "
            f"(operation {fault.index}){': ' + fault.detail if fault.detail else ''}"
        )
        if fault.kind == "transient":
            raise TransientServiceError(message)
        raise ServiceError(message)

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------
    def wrap(self, site: str, function: Callable) -> Callable:
        """Return *function* guarded by :meth:`check` at *site*."""

        def guarded(*args, **kwargs):
            self.check(site)
            return function(*args, **kwargs)

        return guarded

    def wrap_batch(self, site: str, function: Callable) -> Callable:
        """Return a batch *function* guarded by one :meth:`check` per row.

        All rows are checked, in row order, before the batch runs, so a
        batch of ``k`` points consumes the same ``k`` operation indices as
        ``k`` scalar calls.
        """

        def guarded(points, *args, **kwargs):
            for _ in range(len(points)):
                self.check(site)
            return function(points, *args, **kwargs)

        return guarded

    def __repr__(self) -> str:
        with self._lock:
            fired = len(self._injected)
        return f"FaultInjector(plan={self._plan!r}, fired={fired})"
