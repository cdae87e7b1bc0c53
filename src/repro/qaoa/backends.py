"""The built-in execution backends: ``fast`` and ``circuit``.

Each backend is a :class:`~repro.execution.registry.Backend` — capability
flags plus a :meth:`compile` that lowers one ``(problem, depth)`` pair into
a *program* object with a uniform evaluation surface (exact scalar / batch
expectations, exact probability rows, one-trajectory noisy probabilities,
and — where supported — exact density-matrix probabilities).  The
:class:`~repro.qaoa.cost.ExpectationEvaluator` drives programs exclusively
through that surface, so adding an execution target (array-API/GPU kernels,
a remote device) is a :func:`~repro.execution.registry.register_backend`
call, not another wave of ``if backend == "fast"`` branches.

Both backends run on the kernels of :mod:`repro.quantum.engine`.  ``fast``
lowers MaxCut QAOA straight onto them from the cut-value vector;
``circuit`` compiles the gate-level circuit of Fig. 1(a).

Importing this module registers both backends; the registry also imports it
lazily on first lookup, so ``repro.execution`` works stand-alone.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.execution.registry import Backend, register_backend
from repro.graphs.maxcut import MaxCutProblem
from repro.qaoa.circuit_builder import build_parametric_qaoa_circuit
from repro.qaoa.parameters import QAOAParameters
from repro.quantum.density import DensityMatrixSimulator
from repro.quantum.engine import BATCH_ELEMENT_BUDGET, CompiledProgram
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.statevector import Statevector
from repro.utils.rng import RandomState

#: Qubit ceiling of the fast backend.  The limiting resource is memory: one
#: evaluation at n = 26 needs ~3.1 GiB (state and ping-pong buffer, cut
#: diagonal, phase index; see docs/backends.md), not compute.
FAST_BACKEND_MAX_QUBITS = 26


def _probabilities(amplitudes: np.ndarray) -> np.ndarray:
    return amplitudes.real**2 + amplitudes.imag**2


def row_dots(rows: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """``row @ diagonal`` per row: the scalar path's reduction, bit for bit.

    One ``(B, dim) @ (dim,)`` product sums in a different order and can
    differ from the scalar expectation in the last bits.
    """
    return np.array([row @ diagonal for row in rows], dtype=float)


def _expectation_batch(program, matrix: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Batched ``probabilities @ diagonal``, in memory-bounded row chunks."""
    values = np.empty(matrix.shape[0], dtype=float)
    chunk = max(1, BATCH_ELEMENT_BUDGET // diagonal.size)
    for start in range(0, matrix.shape[0], chunk):
        block = matrix[start : start + chunk]
        values[start : start + block.shape[0]] = row_dots(
            program.probability_rows(block), diagonal
        )
    return values


class _QAOAProgram:
    """MaxCut QAOA lowered straight onto the compiled engine kernels.

    :meth:`CompiledProgram.qaoa` builds one distinct-angle diagonal op per
    cost layer over the cut-value vector and RX(2β)^⊗n mixer blocks; every
    evolution starts from a uniform fill.  Each call allocates its own
    buffers, so one program serves concurrent threads.  Noisy trajectories
    run on the equivalent gate-level program (built on first use): its
    compiled noise anchors decide where sampled errors land, so a seeded
    trajectory is the same on both backends by construction.
    """

    def __init__(self, problem: MaxCutProblem, depth: int):
        if problem.num_qubits > FAST_BACKEND_MAX_QUBITS:
            raise SimulationError(
                f"problem has {problem.num_qubits} qubits, exceeding the fast-backend "
                f"limit of {FAST_BACKEND_MAX_QUBITS}"
            )
        self._problem = problem
        self._depth = depth
        self._diagonal = problem.cut_values_table()
        self._engine = CompiledProgram.qaoa(self._diagonal, depth)
        self._amplitude = 2.0 ** (-0.5 * problem.num_qubits)
        self._noisy_program: Optional[_CircuitProgram] = None
        self._noisy_lock = threading.Lock()

    def _evolve(self, values: np.ndarray) -> np.ndarray:
        """Final amplitudes for a flat ``(2p,)`` vector or ``(B, 2p)`` rows."""
        state = np.full(
            values.shape[:-1] + self._diagonal.shape, self._amplitude, dtype=np.complex128
        )
        return self._engine.apply(state, values)

    def statevector(self, parameters: QAOAParameters) -> Statevector:
        return Statevector(
            self._evolve(parameters.to_vector()), copy=False, validate=False
        )

    def expectation(self, parameters: QAOAParameters) -> float:
        return float(self.probabilities(parameters) @ self._diagonal)

    def expectation_batch(self, matrix: np.ndarray) -> np.ndarray:
        return _expectation_batch(self, matrix, self._diagonal)

    def probabilities(self, parameters: QAOAParameters) -> np.ndarray:
        return _probabilities(self._evolve(parameters.to_vector()))

    def probability_rows(self, block: np.ndarray) -> np.ndarray:
        return _probabilities(self._evolve(np.asarray(block, dtype=float)))

    def noisy_probabilities(
        self,
        parameters: QAOAParameters,
        noise_model: NoiseModel,
        rng: RandomState,
    ) -> np.ndarray:
        with self._noisy_lock:
            if self._noisy_program is None:
                self._noisy_program = _CircuitProgram(self._problem, self._depth)
        return self._noisy_program.noisy_probabilities(parameters, noise_model, rng)

    def density_probabilities(self, parameters, noise_model):
        raise SimulationError(
            "the fast backend has no density-matrix oracle; "
            "ExecutionContext validation should have rejected density=True"
        )


class _CircuitProgram:
    """The compiled gate-level circuit behind the program surface.

    The parametric QAOA circuit is built **once**; every evaluation re-binds
    the simulator's compiled program, and whole parameter batches run
    through vectorised ``(dim, batch)`` sweeps.  In density mode the same
    circuit also drives the exact :class:`DensityMatrixSimulator` oracle.
    """

    def __init__(
        self,
        problem: MaxCutProblem,
        depth: int,
        *,
        density: bool = False,
        ptm: bool = True,
    ):
        self._simulator = StatevectorSimulator()
        self._density_simulator: Optional[DensityMatrixSimulator] = None
        if density:
            # Raises for registers beyond the density ceiling (~12 qubits)
            # at construction instead of first evaluation.  ``ptm`` selects
            # the compiled superoperator tier for noisy runs (the backend's
            # ``supports_ptm`` capability); ``ptm=False`` keeps the
            # per-instruction Kraus oracle.
            self._density_simulator = DensityMatrixSimulator(compiled=ptm)
            if problem.num_qubits > self._density_simulator.max_qubits:
                raise ConfigurationError(
                    f"density=True is limited to "
                    f"{self._density_simulator.max_qubits} qubits "
                    f"(the density matrix costs 4^n memory), the problem "
                    f"has {problem.num_qubits}"
                )
        self._diagonal = problem.cut_values_table()
        circuit, gammas, betas = build_parametric_qaoa_circuit(problem, depth)
        self._circuit = circuit
        flat_index = {g: i for i, g in enumerate(gammas)}
        flat_index.update({b: depth + i for i, b in enumerate(betas)})
        # Column permutation mapping the flat [gammas..., betas...] vector
        # onto the circuit's first-appearance parameter order.
        self._column_order = np.array(
            [flat_index[p] for p in circuit.parameters], dtype=np.intp
        )

    def _values(self, parameters: QAOAParameters) -> np.ndarray:
        return parameters.to_vector()[self._column_order]

    def statevector(self, parameters: QAOAParameters) -> Statevector:
        return self._simulator.run(self._circuit, self._values(parameters))

    def expectation(self, parameters: QAOAParameters) -> float:
        return float(self.probabilities(parameters) @ self._diagonal)

    def expectation_batch(self, matrix: np.ndarray) -> np.ndarray:
        return _expectation_batch(self, matrix, self._diagonal)

    def probabilities(self, parameters: QAOAParameters) -> np.ndarray:
        return _probabilities(self.statevector(parameters).data)

    def probability_rows(self, block: np.ndarray) -> np.ndarray:
        # Stay in the engine's native row layout (skipping run_batch's full
        # complex-copy transpose).
        amplitude_rows = self._simulator._run_batch_rows(
            self._circuit, block[:, self._column_order]
        )
        return _probabilities(amplitude_rows)

    def noisy_probabilities(
        self,
        parameters: QAOAParameters,
        noise_model: NoiseModel,
        rng: RandomState,
    ) -> np.ndarray:
        state = self._simulator.run(
            self._circuit, self._values(parameters), noise_model=noise_model, rng=rng
        )
        return state.probabilities()

    def density_probabilities(
        self, parameters: QAOAParameters, noise_model: Optional[NoiseModel]
    ) -> np.ndarray:
        rho = self._density_simulator.run(
            self._circuit, self._values(parameters), noise_model=noise_model
        )
        return rho.probabilities()


class FastBackend(Backend):
    """MaxCut QAOA compiled straight from the cut-value vector (``"fast"``)."""

    name = "fast"
    supports_density = False
    supports_noise = True
    supports_batch = True
    max_qubits = FAST_BACKEND_MAX_QUBITS

    def compile(self, problem: MaxCutProblem, depth: int, *, density: bool = False):
        if density:
            raise ConfigurationError(
                "the fast backend cannot run the density-matrix oracle; "
                "use backend='circuit'"
            )
        return _QAOAProgram(problem, depth)


class CircuitBackend(Backend):
    """The compiled gate-level circuit backend (``"circuit"``)."""

    name = "circuit"
    supports_density = True
    supports_noise = True
    supports_ptm = True
    supports_batch = True
    supports_ingest = True  # runs arbitrary repro.frontend-imported circuits
    supports_continuous = True  # hosts repro.dynamics Schrödinger/Lindblad evolution
    max_qubits = None  # limited by memory (and ~12 qubits in density mode)

    def compile(self, problem: MaxCutProblem, depth: int, *, density: bool = False):
        return _CircuitProgram(problem, depth, density=density, ptm=self.supports_ptm)


register_backend(FastBackend())
register_backend(CircuitBackend())
