"""Stable content hashing for execution configurations, graphs and solves.

The service tier (:mod:`repro.service`) keys its compiled-program and
solve-result caches on *content*, not object identity: two processes — or two
threads handed structurally equal objects — must derive the same key for the
same work.  This module provides the canonicalization and hashing primitives
behind those keys:

* :func:`canonical_payload` — recursively normalises a JSON-ish payload
  (sorted mapping keys, tuples to lists, NumPy scalars to Python numbers,
  floats through their shortest-``repr`` canonical form);
* :func:`stable_hash` — SHA-256 of the canonical JSON encoding, truncated to
  a 16-byte hex digest.  Unlike ``hash()``, it is stable across processes
  (no ``PYTHONHASHSEED`` dependence) and across runs;
* :func:`graph_cache_key` / :func:`problem_cache_key` — content hash of a
  graph / MaxCut problem (name excluded: two structurally identical graphs
  with different labels are the same work);
* :func:`compile_cache_key` — the key under which compiled backend programs
  are shared: ``(graph, depth, backend, density)``;
* :func:`solve_cache_key` — the key under which finished solve results are
  cached: ``(graph, depth, full context content, seed, solver options)``.

Examples
--------
>>> from repro.execution.keys import stable_hash
>>> stable_hash({"b": 1, "a": 2.0}) == stable_hash({"a": 2.0, "b": 1})
True
>>> stable_hash([1.0]) != stable_hash([1])
True
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any, Optional

#: Hex digest length of every stable key (16 bytes of SHA-256).
KEY_HEX_DIGITS = 32


def canonical_payload(value: Any) -> Any:
    """Recursively normalise *value* into a canonical JSON-encodable form.

    Mappings are re-ordered by (string) key, sequences become lists, NumPy
    scalars collapse to their Python equivalents, and every float passes
    through Python's shortest-round-trip ``repr`` so the encoded byte stream
    is identical wherever the payload was produced.  Non-finite floats are
    encoded symbolically (``"nan"``/``"inf"``) because JSON has no literal
    for them.
    """
    if isinstance(value, Mapping):
        return {
            str(key): canonical_payload(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple)):
        return [canonical_payload(item) for item in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        # bool checked before int: True must stay True, not become 1.
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return {"__float__": "nan"}
        if value in (float("inf"), float("-inf")):
            return {"__float__": "inf" if value > 0 else "-inf"}
        # float(repr(x)) == x in Python 3, so repr is the canonical form;
        # normalise -0.0 to 0.0 (they compare equal and denote the same
        # configuration) and collapse NumPy float subclasses to plain float.
        return float(value + 0.0)
    # NumPy scalars (and any other number-ish object) expose item()/float().
    item = getattr(value, "item", None)
    if callable(item):
        return canonical_payload(item())
    if isinstance(value, complex):
        return {"__complex__": [canonical_payload(value.real), canonical_payload(value.imag)]}
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for stable hashing"
    )


def canonical_json(value: Any) -> str:
    """The canonical JSON encoding of *value* (see :func:`canonical_payload`)."""
    return json.dumps(
        canonical_payload(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def stable_hash(value: Any) -> str:
    """A process-stable hex digest of *value*'s canonical JSON form."""
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:KEY_HEX_DIGITS]


def graph_cache_key(graph) -> str:
    """Content hash of a :class:`~repro.graphs.model.Graph`.

    Keyed on structure only — node count and the sorted weighted edge list —
    so relabelled copies of the same graph share a key.
    """
    return stable_hash(
        {"num_nodes": graph.num_nodes, "edges": [list(edge) for edge in graph.edges]}
    )


def problem_cache_key(problem) -> str:
    """Content hash of a MaxCut problem (delegates to its graph).

    Prefers the problem's own cached :meth:`~repro.graphs.maxcut.MaxCutProblem.cache_key`
    when available so repeated solves on one instance hash the edge list once.
    """
    cached = getattr(problem, "cache_key", None)
    if callable(cached):
        return cached()
    return graph_cache_key(problem.graph)


def compile_cache_key(problem, depth: int, context) -> str:
    """The key under which compiled backend programs are shared.

    Programs depend only on circuit structure and execution target:
    ``(graph content, depth, backend, density)``.  Shots, noise and readout
    models bind at evaluation time and deliberately do not fragment the
    program cache.
    """
    return stable_hash(
        {
            "graph": problem_cache_key(problem),
            "depth": int(depth),
            "backend": context.backend,
            "density": bool(context.density),
        }
    )


def circuit_cache_key(circuit) -> str:
    """Content hash of a :class:`~repro.quantum.circuit.QuantumCircuit`.

    Keyed on register size and the full instruction stream; symbolic
    parameters are encoded by their first-appearance index (plus affine
    coefficients), so two structurally identical circuits built from
    differently-named parameters share a key.  Frontend IRs carry their own
    :meth:`~repro.frontend.ir.CircuitIR.cache_key` with the same property.
    """
    from repro.quantum.parameter import Parameter, ParameterExpression

    order = {parameter: index for index, parameter in enumerate(circuit.parameters)}

    def encode(param):
        if isinstance(param, Parameter):
            return {"param": order[param], "coeff": 1.0, "const": 0.0}
        if isinstance(param, ParameterExpression):
            return {
                "param": order[param.parameter],
                "coeff": param.coefficient,
                "const": param.constant,
            }
        return float(param)

    return stable_hash(
        {
            "num_qubits": circuit.num_qubits,
            "gates": [
                [
                    instruction.name,
                    list(instruction.qubits),
                    [encode(param) for param in instruction.params],
                ]
                for instruction in circuit.instructions
            ],
        }
    )


def observable_cache_key(observable) -> str:
    """Content hash of a :class:`~repro.quantum.operators.PauliSum`.

    Terms are sorted by label so construction order does not fragment the
    key; coefficients of repeated labels are merged first.
    """
    merged: dict = {}
    for coefficient, pauli in observable.terms:
        label = pauli.label
        merged[label] = merged.get(label, 0.0) + float(coefficient)
    return stable_hash(
        {
            "num_qubits": observable.num_qubits,
            "terms": sorted(merged.items()),
        }
    )


def anneal_cache_key(problem, schedule_payload: Any, options: Any = None) -> str:
    """The key under which finished annealing results are cached.

    Continuous-time anneals (:class:`~repro.dynamics.AnnealingSolver`) are
    deterministic — no seed enters the key.  It covers the graph content,
    the canonical schedule payload (``AnnealingSchedule.payload()``: kind,
    total time, control points) and an opaque *options* payload for solver
    settings (method, tolerances, dissipation, context).
    """
    return stable_hash(
        {
            "kind": "anneal-result",
            "graph": problem_cache_key(problem),
            "schedule": canonical_payload(schedule_payload),
            "options": canonical_payload(options),
        }
    )


def solve_cache_key(
    problem,
    depth: int,
    context,
    seed: Optional[int],
    options: Any = None,
) -> str:
    """The key under which finished solve results are cached.

    Covers everything a deterministic solve depends on: the graph content,
    the depth, the **full** execution context (via
    :meth:`~repro.execution.context.ExecutionContext.cache_key`), the integer
    seed, and an opaque *options* payload for solver-level settings
    (optimizer, restarts, ...).
    """
    return stable_hash(
        {
            "graph": problem_cache_key(problem),
            "depth": int(depth),
            "context": context.cache_key(),
            "seed": None if seed is None else int(seed),
            "options": canonical_payload(options),
        }
    )
