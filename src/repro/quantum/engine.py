"""Compiled gate-kernel execution engine.

The seed simulator pushed every gate through one generic
``reshape -> moveaxis -> matmul -> ascontiguousarray`` pipeline, copying the
full ``2^n`` state several times per gate.  :class:`CompiledProgram` analyses
a circuit **once** and lowers it to a short list of specialised operations:

* **Fused diagonal segments** — every maximal run of gates that are diagonal
  in the computational basis (RZ/Z/S/T/P/CZ/CRZ/RZZ, plus CX·RZ·CX sandwiches
  recognised by a peephole pass as RZZ) collapses into a *single* element-wise
  phase multiplication.  The phase is stored as an angle decomposition
  ``const + sum_k value_k * coeff_k`` over the circuit's free parameters,
  deduplicated to its distinct angle rows, so re-binding a parametric circuit
  costs cos/sin over those rows plus one gather and one multiply per segment —
  the whole QAOA cost layer is one multiply.
* **Fused single-qubit GEMM blocks** — a maximal run of single-qubit gates on
  distinct qubits is regrouped (the gates commute) into Kronecker-product
  blocks: low qubits become one contiguous right-hand GEMM, high qubits one
  left-hand GEMM, and adjacent middle qubits small batched matmuls.  Each
  block is a single contiguous memory pass into a ping-pong buffer, replacing
  several strided in-place passes per gate.
* **Kronecker-power passes** — one single-qubit gate on every qubit (the
  QAOA mixer of :meth:`CompiledProgram.qaoa`) runs as a few transposing GEMM
  passes against small Kronecker-power blocks.
* **Two-qubit kernels** — CX and SWAP are pure block swaps (no arithmetic);
  dense two-qubit gates (RXX) update strided quarter views in place.
* **Generic fallback** — the seed ``moveaxis`` path, kept only for k-qubit
  gates (k > 2) that no specialised kernel covers.

All operations accept a ``(dim,)`` amplitude vector or a **batch-major**
``(batch, dim)`` matrix of amplitude rows.  Row-major batching keeps each
state contiguous, turns per-row gate matrices into stacked BLAS matmuls, and
is what powers :meth:`~repro.quantum.simulator.StatevectorSimulator.run_batch`.

A program is bound by *value vector*, never by rebuilding circuits: gate
parameters are compiled to affine references ``coeff * values[slot] + const``
into a flat vector ordered like :attr:`QuantumCircuit.parameters`.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import CircuitError, ConfigurationError, SimulationError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.gates import GATE_REGISTRY, diagonal_angles, gate_matrix
from repro.quantum.noise import apply_pauli
from repro.quantum.parameter import Parameter, ParameterExpression

_SQRT1_2 = 1.0 / np.sqrt(2.0)

#: An affine parameter reference ``(slot, coeff, const)``: the bound value is
#: ``const`` when ``slot`` is None, else ``coeff * values[slot] + const``.
ParamRef = Tuple[Optional[int], float, float]

Bindings = Union[dict, Sequence[float], None]

#: Qubits at or below this index are applied through one contiguous
#: right-hand GEMM (``rows @ kron(..m..).T``); qubits within the same margin
#: of the top of the register go through one left-hand GEMM.  Both write into
#: a ping-pong buffer, avoiding the slow small-stride element accesses of an
#: in-place update, and fuse a whole run of single-qubit gates into a single
#: ``<= 32 x 32`` Kronecker-product matrix (one memory pass for the run).
_GEMM_EDGE_QUBITS = 5

#: Maximum bits fused into one batched-matmul block for middle qubits.
_BMM_MAX_BITS = 3

#: Maximum bits per transposing pass of :class:`_KronPowerOp`.  Measured on
#: a 2-core x86 box with OpenBLAS, 4-bit passes beat 3- and 5-bit ones from
#: n = 8 to n = 20, scalar and batched.
_KRON_PASS_BITS = 4

#: Widest source-qubit frame one fused PTM superoperator kernel may span.
#: Measured per warm noisy call at n = 6, p = 2 under uniform depolarizing
#: noise (2-core x86 box, OpenBLAS, median of 21): frame widths 1/2/3/4 ran
#: 58/17/8/5 kernels in 2.2 / 1.3 / 3.9 / 87 ms.  Two qubits cover every
#: CX-RZ-CX edge sandwich and pairs of the H and RX walls; wider frames fuse
#: more but lose to binding and applying 64x64 and larger superoperators.
_SUPEROP_FRAME_QUBITS = 2

#: Peak complex128 elements evolved per batched sweep (~256 MiB).  Shared by
#: every chunked batch consumer (the simulator's ``expectation_batch`` and
#: the fast backend) so their memory policies cannot silently diverge.
BATCH_ELEMENT_BUDGET = 2**24

_EYE2 = np.eye(2, dtype=np.complex128)


def _param_ref(param, slot_of) -> ParamRef:
    """Compile one gate parameter into an affine :data:`ParamRef`."""
    if isinstance(param, Parameter):
        return (slot_of[param], 1.0, 0.0)
    if isinstance(param, ParameterExpression):
        return (slot_of[param.parameter], param.coefficient, param.constant)
    return (None, 0.0, float(param))


def _resolve_ref(ref: ParamRef, values):
    """Evaluate *ref* against a ``(P,)`` vector or ``(B, P)`` matrix."""
    slot, coeff, const = ref
    if slot is None:
        return const
    return coeff * values[..., slot] + const


def _is_static_zero(entry) -> bool:
    """Whether a kernel matrix entry is a compile-time scalar zero."""
    return isinstance(entry, (int, float, complex)) and entry == 0


def _phase_from_angle(angle: np.ndarray) -> np.ndarray:
    """``exp(i * angle)`` via two real transcendental passes.

    ``np.exp`` of a complex array computes ``exp(re)`` as well; writing
    ``cos``/``sin`` straight into the interleaved real/imaginary layout is
    about twice as fast on the hot diagonal-segment path.
    """
    phase = np.empty(angle.shape, dtype=np.complex128)
    parts = phase.view(np.float64).reshape(angle.shape + (2,))
    np.cos(angle, out=parts[..., 0])
    np.sin(angle, out=parts[..., 1])
    return phase


# ---------------------------------------------------------------------------
# Kernel entry builders (vectorised: accept scalars or per-row arrays)
# ---------------------------------------------------------------------------

def _x_entries():
    return ((0.0, 1.0), (1.0, 0.0))


def _y_entries():
    return ((0.0, -1.0j), (1.0j, 0.0))


def _h_entries():
    return ((_SQRT1_2, _SQRT1_2), (_SQRT1_2, -_SQRT1_2))


def _rx_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half)
    sin = -1.0j * np.sin(half)
    return ((cos, sin), (sin, cos))


def _ry_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half)
    sin = np.sin(half)
    return ((cos, -sin), (sin, cos))


def _u3_entries(theta, phi, lam):
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    cos = np.cos(0.5 * theta)
    sin = np.sin(0.5 * theta)
    return (
        (cos + 0.0j, -np.exp(1.0j * lam) * sin),
        (np.exp(1.0j * phi) * sin, np.exp(1.0j * (phi + lam)) * cos),
    )


def _rxx_entries(theta):
    half = 0.5 * np.asarray(theta, dtype=float)
    cos = np.cos(half) + 0.0j
    sin = -1.0j * np.sin(half)
    return (
        (cos, 0.0, 0.0, sin),
        (0.0, cos, sin, 0.0),
        (0.0, sin, cos, 0.0),
        (sin, 0.0, 0.0, cos),
    )


_BUILDERS_1Q = {
    "x": _x_entries,
    "y": _y_entries,
    "h": _h_entries,
    "rx": _rx_entries,
    "ry": _ry_entries,
    "u3": _u3_entries,
}

_BUILDERS_2Q = {
    "rxx": _rxx_entries,
}


def _entries_to_matrix(entries, batch: Optional[int]) -> np.ndarray:
    """Nested entry tuples as a ``(k, k)`` or batched ``(batch, k, k)`` array."""
    if batch is None:
        return np.asarray(entries, dtype=np.complex128)
    size = len(entries)
    matrix = np.empty((batch, size, size), dtype=np.complex128)
    for row_index, row in enumerate(entries):
        for col_index, entry in enumerate(row):
            matrix[:, row_index, col_index] = entry
    return matrix


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product on the trailing two axes (fast, batch-aware)."""
    rows_a, cols_a = a.shape[-2:]
    rows_b, cols_b = b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (rows_a * rows_b, cols_a * cols_b))


# ---------------------------------------------------------------------------
# Strided views
# ---------------------------------------------------------------------------

def _split_views_2q(state: np.ndarray, first: int, second: int):
    """Quarter-register views ordered by the 2-qubit matrix basis.

    *state* has shape ``(dim,)`` or ``(batch, dim)``.  Index ``k`` of the
    result holds the sub-space with ``first`` (the MSB of the matrix basis)
    at bit ``k >> 1`` and ``second`` at bit ``k & 1``; every view keeps the
    leading batch axis.
    """
    dim = state.shape[-1]
    hi, lo = (first, second) if first > second else (second, first)
    shape = state.shape[:-1] + (
        dim >> (hi + 1),
        2,
        1 << (hi - lo - 1),
        2,
        1 << lo,
    )
    view = state.reshape(shape)
    if first == hi:
        return (
            view[..., 0, :, 0, :],
            view[..., 0, :, 1, :],
            view[..., 1, :, 0, :],
            view[..., 1, :, 1, :],
        )
    return (
        view[..., 0, :, 0, :],
        view[..., 1, :, 0, :],
        view[..., 0, :, 1, :],
        view[..., 1, :, 1, :],
    )


# ---------------------------------------------------------------------------
# Compiled operations
# ---------------------------------------------------------------------------

def _compact_index_dtype(size: int):
    """The smallest unsigned integer dtype indexing *size* entries."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if size <= np.iinfo(dtype).max + 1:
            return dtype
    return np.uint64


def _distinct_columns(rows: np.ndarray):
    """Distinct columns of a ``(R, dim)`` array plus a compact column index.

    Returns ``(distinct, index)`` with ``distinct[:, index] == rows``; *index*
    uses :func:`_compact_index_dtype`.  Columns are ranked one row at a time
    (``np.unique`` on 1-D data), which is much faster than
    ``np.unique(axis=1)`` on wide arrays.
    """
    codes = np.zeros(rows.shape[1], dtype=np.int64)
    for row in rows:
        values, inverse = np.unique(row, return_inverse=True)
        # codes < dim and inverse < dim, so the combined code fits in int64.
        _, codes = np.unique(codes * values.size + inverse, return_inverse=True)
    representative = np.empty(int(codes.max()) + 1, dtype=np.intp)
    representative[codes] = np.arange(codes.size)
    distinct = np.ascontiguousarray(rows[:, representative])
    return distinct, codes.astype(_compact_index_dtype(representative.size))


class _DiagonalOp:
    """A fused run of diagonal gates applied as one phase multiplication.

    The combined phase is ``exp(i * (const + values[slots] . coeffs))`` with
    the angle decomposition accumulated at compile time, so the cost per bind
    is independent of how many gates were fused.  Basis states that share an
    angle row share their phase, and there are few distinct rows (an
    ER(14, 0.5) cut diagonal has ~30 values over 16384 amplitudes): the
    ``(const, coeffs)`` columns hold one entry per distinct row, each bind
    evaluates cos/sin only over those, and the phases reach the amplitudes
    through one gather along the compact *index*.
    """

    __slots__ = ("const_angle", "slots", "coeffs", "index", "static_phase")

    def __init__(
        self,
        const_angle: np.ndarray,
        slots: np.ndarray,
        coeffs: np.ndarray,
        index: np.ndarray,
    ):
        self.const_angle = const_angle  # (distinct,)
        self.slots = slots
        self.coeffs = coeffs  # (num_slots, distinct)
        self.index = index  # (dim,) into the distinct axis
        self.static_phase = (
            _phase_from_angle(const_angle) if slots.size == 0 else None
        )

    @classmethod
    def from_angles(cls, const_angle: np.ndarray, slots: np.ndarray, coeffs: np.ndarray):
        """Build the op from per-amplitude ``(dim,)`` / ``(S, dim)`` angle rows."""
        distinct, index = _distinct_columns(np.vstack([const_angle[None, :], coeffs]))
        return cls(distinct[0], slots, distinct[1:], index)

    def apply(self, state: np.ndarray, values, scratch):
        if self.static_phase is not None:
            phase = self.static_phase
        else:
            theta = values[..., self.slots]
            # (B, S) @ (S, distinct) -> per-row angles; trailing-axis
            # broadcast handles the scalar (S,) case and batched states alike.
            phase = _phase_from_angle(theta @ self.coeffs + self.const_angle)
        # The ping-pong scratch holds the gathered phases; one row of it
        # suffices when a single phase vector broadcasts over a batch.
        out = scratch if phase.ndim == state.ndim else scratch.reshape(-1)[: self.index.size]
        np.take(phase, self.index, axis=-1, out=out, mode="clip")
        state *= out
        return state, scratch


@functools.lru_cache(maxsize=None)
def _kron_power_tables(num_bits: int):
    """Bit-pattern count tables of a ``num_bits``-fold Kronecker power.

    Entry ``(r, c)`` of ``G^{(x) k}`` for a 2x2 gate ``G`` is
    ``prod_ab G[a, b] ** n_ab(r, c)``, where ``n_ab`` counts the bit positions
    with row bit ``a`` and column bit ``b``.  Returns ``(gather, index)``:
    row ``q`` of *gather* ``(patterns, 4)`` locates ``G[a, b] ** n_ab`` of
    the ``q``-th distinct count pattern in a flattened ``(k + 1, 4)`` power
    table, and *index* ``(W, W)`` maps each block entry to its pattern.
    The tables are read-only and shared by every block of that width.
    """
    width = 1 << num_bits
    rows = np.arange(width)[:, None]
    cols = np.arange(width)[None, :]

    def popcount(bits: np.ndarray) -> np.ndarray:
        return sum((bits >> shift) & 1 for shift in range(num_bits))

    counts = np.stack(
        [
            popcount(~rows & ~cols & (width - 1)),
            popcount(~rows & cols),
            popcount(rows & ~cols),
            popcount(rows & cols),
        ],
        axis=-1,
    ).reshape(width * width, 4)
    patterns, index = np.unique(counts, axis=0, return_inverse=True)
    gather = patterns * 4 + np.arange(4)
    index = index.reshape(width, width).astype(_compact_index_dtype(len(patterns)))
    gather.setflags(write=False)
    index.setflags(write=False)
    return gather, index


def _kron_power(entries, num_bits: int) -> np.ndarray:
    """``G^{(x) num_bits}`` from *G*'s nested entries, by one gather.

    Entries may be per-row ``(B,)`` arrays, giving a C-contiguous
    ``(B, W, W)`` stack whose rows are bit-identical to scalar binds.
    """
    gather, index = _kron_power_tables(num_bits)
    flat = [entry for row in entries for entry in row]
    if len({np.shape(entry) for entry in flat}) > 1:
        flat = np.broadcast_arrays(*flat)
    flat = np.array(flat, dtype=np.complex128).T
    powers = np.empty(flat.shape[:-1] + (num_bits + 1, 4), dtype=np.complex128)
    powers[..., 0, :] = 1.0
    for exponent in range(num_bits):
        np.multiply(powers[..., exponent, :], flat, out=powers[..., exponent + 1, :])
    powers = powers.reshape(flat.shape[:-1] + (-1,))
    return np.take(np.prod(powers[..., gather], axis=-1), index, axis=-1)


class _FusedKronOp:
    """A run of single-qubit gates on distinct qubits, lowered to one GEMM.

    *bits* are the covered bit positions in descending order; *factors* is
    the aligned list of gates (``None`` marks an identity filler), each a
    ``(qubit, static_entries, builder, refs)`` tuple.  The combined
    ``2^k x 2^k`` matrix is the Kronecker product of the factor matrices —
    stacked per row for batched bindings — and is precomputed when every
    factor is parameter-free.  When every factor is the same parametric
    gate (a QAOA mixer layer), the block is a Kronecker power and is built
    by one gather from :func:`_kron_power_tables` instead of ``k`` chained
    products.

    Sub-classes choose how the block is contracted against the state; all of
    them write into the ping-pong scratch buffer, which replaces several
    strided in-place passes per gate with a single contiguous memory pass for
    the whole run.
    """

    __slots__ = ("bits", "factors", "static_matrix", "is_power")

    def __init__(self, bits, factors):
        self.bits = tuple(bits)
        self.factors = list(factors)
        self.static_matrix = None
        first = self.factors[0]
        self.is_power = first is not None and first[1] is None and all(
            factor is not None and factor[2] is first[2] and factor[3] == first[3]
            for factor in self.factors
        )
        if all(factor is None or factor[1] is not None for factor in factors):
            self.static_matrix = self._finalize(self._combine(None, None))

    def _combine(self, values, batch: Optional[int]) -> np.ndarray:
        if self.is_power:
            entries = _factor_entries(self.factors[0], values)
            return _kron_power(entries, len(self.factors))
        matrix = np.eye(1, dtype=np.complex128)
        for factor in self.factors:
            if factor is None:
                term = _EYE2
            else:
                term = _entries_to_matrix(_factor_entries(factor, values), batch)
            matrix = _kron2(matrix, term)
        return matrix

    def _finalize(self, matrix: np.ndarray) -> np.ndarray:
        return matrix

    def _matrix(self, values) -> np.ndarray:
        if self.static_matrix is not None:
            return self.static_matrix
        batch = values.shape[0] if values.ndim == 2 else None
        return self._finalize(self._combine(values, batch))


def _factor_entries(factor, values):
    _, entries, builder, refs = factor
    if entries is not None:
        return entries
    return builder(*[_resolve_ref(ref, values) for ref in refs])


class _RightGemmOp(_FusedKronOp):
    """Low-qubit block: one right-hand GEMM over the contiguous low bits."""

    __slots__ = ()

    def _finalize(self, matrix: np.ndarray) -> np.ndarray:
        # Rows of the (.., dim / W, W) view hold the low-qubit blocks, so the
        # block matrix acts from the right (transposed, and contiguous: static
        # binds hit the fast GEMM path, and a batched bind makes the same
        # BLAS call per row as a scalar one, so its rows are bit-identical).
        return np.ascontiguousarray(np.swapaxes(matrix, -1, -2))

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (-1, width))
        out = scratch.reshape(view.shape)
        np.matmul(view, self._matrix(values), out=out)
        return scratch, state


class _LeftGemmOp(_FusedKronOp):
    """High-qubit block: one left-hand GEMM over the leading bits."""

    __slots__ = ()

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (width, -1))
        out = scratch.reshape(view.shape)
        np.matmul(self._matrix(values), view, out=out)
        return scratch, state


class _BmmOp(_FusedKronOp):
    """Middle-qubit block: batched matmul over adjacent bits."""

    __slots__ = ("low_bit",)

    def __init__(self, bits, factors, low_bit: int):
        super().__init__(bits, factors)
        self.low_bit = low_bit

    def apply(self, state: np.ndarray, values, scratch):
        width = 1 << len(self.bits)
        view = state.reshape(state.shape[:-1] + (-1, width, 1 << self.low_bit))
        out = scratch.reshape(view.shape)
        matrix = self._matrix(values)
        if matrix.ndim == 3:  # per-row matrices broadcast over the view's
            matrix = matrix[:, None]  # outer-block axis
        np.matmul(matrix, view, out=out)
        return scratch, state


class _KronPowerOp:
    """One single-qubit gate on every qubit, as transposing GEMM passes.

    ``G^{(x) n}`` factorises into Kronecker powers ``G^{(x) k}`` over groups
    of at most :data:`_KRON_PASS_BITS` bits.  Each pass views the state as
    ``(2^k, rest)`` with the top ``k`` bits leading, contracts them against
    the block and writes the result as ``(rest, 2^k)``: the processed bits
    land at the bottom, so once the passes have covered all ``n`` bits the
    register is back in order.  Every pass is one BLAS GEMM against a
    ``<= 16 x 16`` block with a transposed (not strided) operand — about
    twice as fast as the right/left/batched blocks, whose middle-qubit
    matmuls run on strided sub-blocks.  *factor* is a parametric
    ``(qubit, None, builder, refs)`` tuple; each distinct block width is
    built once per bind by :func:`_kron_power`.
    """

    __slots__ = ("widths", "factor")

    def __init__(self, num_qubits: int, factor):
        passes = -(-num_qubits // _KRON_PASS_BITS)
        base, extra = divmod(num_qubits, passes)
        self.widths = (base + 1,) * extra + (base,) * (passes - extra)
        self.factor = factor

    def apply(self, state: np.ndarray, values, scratch):
        entries = _factor_entries(self.factor, values)
        # The pass contracts the leading bits from the left: it needs the
        # transposed block, which is the Kronecker power of G^T.
        transposed = ((entries[0][0], entries[1][0]), (entries[0][1], entries[1][1]))
        blocks = {width: _kron_power(transposed, width) for width in set(self.widths)}
        prefix = state.shape[:-1]
        for width in self.widths:
            size = 1 << width
            view = np.swapaxes(state.reshape(prefix + (size, -1)), -1, -2)
            np.matmul(view, blocks[width], out=scratch.reshape(prefix + (-1, size)))
            state, scratch = scratch, state
        return state, scratch


class _TwoQubitOp:
    """In-place strided update for one two-qubit gate (dense 4x4 entries)."""

    __slots__ = ("first", "second", "entries", "builder", "refs")

    def __init__(self, first: int, second: int, entries=None, builder=None, refs=()):
        self.first = first
        self.second = second
        self.entries = entries
        self.builder = builder
        self.refs = refs

    def apply(self, state: np.ndarray, values, scratch):
        entries = self.entries
        if entries is None:
            entries = self.builder(*[_resolve_ref(ref, values) for ref in self.refs])
        blocks = _split_views_2q(state, self.first, self.second)
        old = scratch.reshape(-1)[: state.size].reshape((4,) + blocks[0].shape)
        for k in range(4):
            np.copyto(old[k], blocks[k])
        reshape = (
            (lambda e: e if np.ndim(e) == 0 else e.reshape(-1, 1, 1, 1))
            if state.ndim == 2
            else (lambda e: e)
        )
        for k in range(4):
            row = entries[k]
            block = blocks[k]
            np.multiply(old[0], reshape(row[0]), out=block)
            for col in (1, 2, 3):
                if not _is_static_zero(row[col]):
                    block += reshape(row[col]) * old[col]
        return state, scratch


class _CXOp:
    """CNOT as a block swap of the two control=1 quarters (no arithmetic)."""

    __slots__ = ("control", "target")

    def __init__(self, control: int, target: int):
        self.control = control
        self.target = target

    def apply(self, state: np.ndarray, values, scratch):
        blocks = _split_views_2q(state, self.control, self.target)
        b10, b11 = blocks[2], blocks[3]
        tmp = scratch.reshape(-1)[: b10.size].reshape(b10.shape)
        np.copyto(tmp, b10)
        np.copyto(b10, b11)
        np.copyto(b11, tmp)
        return state, scratch


class _SwapOp:
    """SWAP as a block swap of the |01> and |10> quarters."""

    __slots__ = ("first", "second")

    def __init__(self, first: int, second: int):
        self.first = first
        self.second = second

    def apply(self, state: np.ndarray, values, scratch):
        blocks = _split_views_2q(state, self.first, self.second)
        b01, b10 = blocks[1], blocks[2]
        tmp = scratch.reshape(-1)[: b01.size].reshape(b01.shape)
        np.copyto(tmp, b01)
        np.copyto(b01, b10)
        np.copyto(b10, tmp)
        return state, scratch


class _GenericOp:
    """Seed-style dense dispatch, kept for gates with no specialised kernel."""

    __slots__ = ("name", "qubits", "num_qubits", "matrix", "refs")

    def __init__(self, name: str, qubits, num_qubits: int, matrix=None, refs=()):
        self.name = name
        self.qubits = tuple(qubits)
        self.num_qubits = num_qubits
        self.matrix = matrix
        self.refs = refs

    def _apply_matrix(self, state: np.ndarray, matrix: np.ndarray) -> None:
        k = len(self.qubits)
        prefix = state.ndim - 1
        axes = [prefix + self.num_qubits - 1 - q for q in self.qubits]
        tensor = state.reshape(state.shape[:-1] + (2,) * self.num_qubits)
        tensor = np.moveaxis(tensor, axes, range(prefix, prefix + k))
        shape = tensor.shape
        if prefix:
            flat = np.matmul(matrix, tensor.reshape(state.shape[0], 2**k, -1))
        else:
            flat = matrix @ tensor.reshape(2**k, -1)
        tensor = np.moveaxis(flat.reshape(shape), range(prefix, prefix + k), axes)
        np.copyto(state, np.ascontiguousarray(tensor).reshape(state.shape))

    def apply(self, state: np.ndarray, values, scratch):
        if self.matrix is not None:
            self._apply_matrix(state, self.matrix)
            return state, scratch
        resolved = [_resolve_ref(ref, values) for ref in self.refs]
        if state.ndim == 1 or all(np.ndim(p) == 0 for p in resolved):
            self._apply_matrix(state, gate_matrix(self.name, *map(float, resolved)))
            return state, scratch
        # Per-row parameters on a batch: no vectorised builder exists for
        # this gate, so fall back to one dense application per (contiguous)
        # state row.
        for row in range(state.shape[0]):
            params = [float(p) if np.ndim(p) == 0 else float(p[row]) for p in resolved]
            self._apply_matrix(state[row], gate_matrix(self.name, *params))
        return state, scratch


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

def _expand_sub_index(indices: np.ndarray, qubits: Tuple[int, ...]) -> np.ndarray:
    """Sub-space basis index of every register basis state for *qubits*.

    The first listed qubit is the most-significant bit, matching the gate
    matrix basis of :mod:`repro.quantum.gates`.
    """
    sub = np.zeros(indices.size, dtype=np.intp)
    for qubit in qubits:
        sub = (sub << 1) | ((indices >> qubit) & 1)
    return sub


class CompiledProgram:
    """A circuit lowered to fused diagonal segments and GEMM-block kernels.

    Compile once, then :meth:`apply` many times with fresh parameter values —
    the analysis (peephole fusion, diagonal-angle accumulation, single-qubit
    run regrouping, kernel selection) is never repeated, and binding never
    rebuilds :class:`~repro.quantum.circuit.QuantumCircuit` objects.
    """

    def __init__(self, circuit: QuantumCircuit):
        self._init_register(circuit.num_qubits, circuit.parameters)
        slot_of = {p: slot for slot, p in enumerate(self._parameters)}
        self._ops = self._compile(list(circuit), slot_of)

    def _init_register(self, num_qubits: int, parameters) -> None:
        self._num_qubits = num_qubits
        self._dim = 1 << num_qubits
        self._parameters: List[Parameter] = list(parameters)
        # Original instruction index -> index of the compiled op *after*
        # which a Pauli error attached to that instruction is inserted
        # (-1 = before the first op).  Fusion never reorders across segment
        # boundaries, so this anchor is the tightest noise slot that does not
        # break any fused kernel (see repro.quantum.noise for the semantics).
        self._noise_anchor: dict = {}

    @classmethod
    def qaoa(cls, cost_diagonal: np.ndarray, depth: int) -> "CompiledProgram":
        """Alternating cost/mixer layers lowered straight onto the kernels.

        Layer ``l`` multiplies by ``exp(-i gamma_l C)`` — one distinct-angle
        :class:`_DiagonalOp` over the real diagonal ``C`` (*cost_diagonal*),
        deduplicated once and shared by every layer — then applies
        ``RX(2 beta_l) = exp(-i beta_l X)`` on every qubit as one
        :class:`_KronPowerOp`.  Values bind as the flat
        ``[gamma_0..gamma_{p-1}, beta_0..beta_{p-1}]`` vector.  The program
        has no state-preparation op: QAOA callers start from the uniform
        superposition directly instead of an H wall.
        """
        num_qubits = int(cost_diagonal.size).bit_length() - 1
        if cost_diagonal.ndim != 1 or cost_diagonal.size != 1 << num_qubits:
            raise SimulationError(
                f"cost diagonal must be a (2^n,) vector, got shape {cost_diagonal.shape}"
            )
        program = cls.__new__(cls)
        program._init_register(
            num_qubits,
            [Parameter(f"gamma_{layer}") for layer in range(depth)]
            + [Parameter(f"beta_{layer}") for layer in range(depth)],
        )
        distinct, index = _distinct_columns(np.asarray(cost_diagonal, dtype=float)[None, :])
        no_offset = np.zeros(distinct.shape[1])
        ops: list = []
        for layer in range(depth):
            slots = np.array([layer], dtype=np.intp)
            ops.append(_DiagonalOp(no_offset, slots, -distinct, index))
            mixer = (None, None, _rx_entries, ((depth + layer, 2.0, 0.0),))
            ops.append(_KronPowerOp(num_qubits, mixer))
        program._ops = ops
        return program

    # -- introspection ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size of the compiled circuit."""
        return self._num_qubits

    @property
    def parameters(self) -> List[Parameter]:
        """Free parameters, in :attr:`QuantumCircuit.parameters` order."""
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        """Number of free parameters (the length of a value vector)."""
        return len(self._parameters)

    @property
    def num_operations(self) -> int:
        """Number of compiled operations (after fusion)."""
        return len(self._ops)

    def operation_summary(self) -> dict:
        """Compiled-op counts per kind (diagnostic; used by benchmarks)."""
        counts: dict = {}
        for op in self._ops:
            kind = type(op).__name__.lstrip("_")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- compilation -----------------------------------------------------
    def _compile(self, instructions, slot_of) -> list:
        # Pass 1: peephole-rewrite CX(a,b) RZ(t, b) CX(a,b) sandwiches (the
        # textbook RZZ decomposition emitted by the QAOA circuit builder)
        # into diagonal RZZ items, and tag every diagonal gate.  Each item
        # carries the original instruction indices it covers so noise
        # insertions can be anchored after the compiled op that absorbs it.
        items = []  # ("diag", qubits, const, coeff, ref, indices) | ("gate", inst, index)
        index = 0
        while index < len(instructions):
            inst = instructions[index]
            if inst.name == "cx" and index + 2 < len(instructions):
                middle = instructions[index + 1]
                closing = instructions[index + 2]
                if (
                    middle.name == "rz"
                    and middle.qubits[0] == inst.qubits[1]
                    and closing.name == "cx"
                    and closing.qubits == inst.qubits
                ):
                    const, coeff = diagonal_angles("rzz")
                    ref = _param_ref(middle.params[0], slot_of)
                    items.append(
                        ("diag", inst.qubits, const, coeff, ref,
                         (index, index + 1, index + 2))
                    )
                    index += 3
                    continue
            definition = GATE_REGISTRY[inst.name]
            if definition.diagonal:
                const, coeff = diagonal_angles(inst.name)
                ref = (
                    _param_ref(inst.params[0], slot_of)
                    if definition.num_params
                    else None
                )
                items.append(("diag", inst.qubits, const, coeff, ref, (index,)))
            else:
                items.append(("gate", inst, index))
            index += 1

        # Pass 2: fuse maximal diagonal runs and maximal runs of single-qubit
        # gates on distinct qubits; lower everything else to kernels.  A
        # diagonal item flushes the pending single-qubit run (and vice versa)
        # because the two kinds need not commute on shared qubits.
        ops: list = []
        diag_run: list = []
        oneq_run: list = []  # (factor, instruction_index) pairs

        def flush_diag() -> None:
            self._flush_diagonal_run(ops, diag_run)
            # Whether or not the run emitted an op (a run of identities
            # compiles to nothing), errors attached inside it belong at this
            # point of the stream: after the op just emitted, or after the
            # previous op when the run vanished.
            anchor = len(ops) - 1
            for item in diag_run:
                for covered in item[5]:
                    self._noise_anchor[covered] = anchor
            diag_run.clear()

        def flush_oneq() -> None:
            if not oneq_run:
                return
            produced = self._lower_single_qubit_run([f for f, _ in oneq_run])
            base = len(ops)
            ops.extend(produced)
            qubit_anchor = {}
            for offset, op in enumerate(produced):
                for bit, factor in zip(op.bits, op.factors):
                    if factor is not None:
                        qubit_anchor[bit] = base + offset
            for factor, covered in oneq_run:
                self._noise_anchor[covered] = qubit_anchor[factor[0]]
            oneq_run.clear()

        for item in items:
            if item[0] == "diag":
                flush_oneq()
                diag_run.append(item)
                continue
            inst, inst_index = item[1], item[2]
            flush_diag()
            factor = self._single_qubit_factor(inst, slot_of)
            if factor is not None:
                if any(f[0] == factor[0] for f, _ in oneq_run):
                    flush_oneq()
                oneq_run.append((factor, inst_index))
            else:
                flush_oneq()
                ops.append(self._build_kernel(inst, slot_of))
                self._noise_anchor[inst_index] = len(ops) - 1
        flush_diag()
        flush_oneq()
        return ops

    def _single_qubit_factor(self, inst, slot_of):
        """The gate as a fusable ``(qubit, entries, builder, refs)`` factor."""
        definition = GATE_REGISTRY[inst.name]
        if definition.num_qubits != 1 or inst.name not in _BUILDERS_1Q:
            return None
        builder = _BUILDERS_1Q[inst.name]
        refs = tuple(_param_ref(p, slot_of) for p in inst.params)
        if all(ref[0] is None for ref in refs):
            return (inst.qubits[0], builder(*(ref[2] for ref in refs)), None, ())
        return (inst.qubits[0], None, builder, refs)

    def _lower_single_qubit_run(self, run) -> list:
        """Partition a distinct-qubit run into fused GEMM blocks.

        Low qubits merge into one right-hand GEMM and high qubits into one
        left-hand GEMM (identity fillers bridge gaps); middle qubits are
        chunked greedily into batched matmuls over adjacent bits.  Gates on
        distinct qubits commute, so the regrouping is exact.
        """
        n = self._num_qubits
        by_qubit = {factor[0]: factor for factor in run}
        low_cut = min(_GEMM_EDGE_QUBITS - 1, n - 1)
        ops: list = []
        low = [q for q in by_qubit if q <= low_cut]
        if low:
            bits = range(max(low), -1, -1)
            ops.append(_RightGemmOp(bits, [by_qubit.get(b) for b in bits]))
        high_floor = max(n - _GEMM_EDGE_QUBITS, low_cut + 1)
        high = [q for q in by_qubit if q >= high_floor]
        if high:
            bits = range(n - 1, min(high) - 1, -1)
            ops.append(_LeftGemmOp(bits, [by_qubit.get(b) for b in bits]))
        middle = sorted((q for q in by_qubit if low_cut < q < high_floor), reverse=True)
        index = 0
        while index < len(middle):
            chunk = [middle[index]]
            index += 1
            while (
                index < len(middle)
                and len(chunk) < _BMM_MAX_BITS
                and middle[index] == chunk[-1] - 1
            ):
                chunk.append(middle[index])
                index += 1
            ops.append(_BmmOp(chunk, [by_qubit[b] for b in chunk], chunk[-1]))
        return ops

    def _flush_diagonal_run(self, ops: list, run: list) -> None:
        if not run:
            return
        indices = np.arange(self._dim)
        const_angle = np.zeros(self._dim, dtype=float)
        coeff_by_slot: dict = {}
        for _, qubits, const, coeff, ref, _indices in run:
            sub = _expand_sub_index(indices, qubits)
            const_angle += const[sub]
            if coeff is None or ref is None:
                continue
            slot, ref_coeff, ref_const = ref
            coeff_full = coeff[sub]
            if ref_const != 0.0:
                const_angle += ref_const * coeff_full
            if slot is not None and ref_coeff != 0.0:
                accum = coeff_by_slot.get(slot)
                if accum is None:
                    accum = coeff_by_slot.setdefault(slot, np.zeros(self._dim))
                accum += ref_coeff * coeff_full
        slots = np.array(sorted(coeff_by_slot), dtype=np.intp)
        coeffs = (
            np.stack([coeff_by_slot[s] for s in slots])
            if slots.size
            else np.zeros((0, self._dim))
        )
        if slots.size == 0 and not const_angle.any():
            return  # a run of identities — compiles to nothing
        ops.append(_DiagonalOp.from_angles(const_angle, slots, coeffs))

    def _build_kernel(self, inst, slot_of):
        if inst.name == "cx":
            return _CXOp(inst.qubits[0], inst.qubits[1])
        if inst.name == "swap":
            return _SwapOp(inst.qubits[0], inst.qubits[1])
        definition = GATE_REGISTRY[inst.name]
        refs = tuple(_param_ref(p, slot_of) for p in inst.params)
        static = all(ref[0] is None for ref in refs)
        if definition.num_qubits == 2 and inst.name in _BUILDERS_2Q:
            builder = _BUILDERS_2Q[inst.name]
            if static:
                return _TwoQubitOp(
                    inst.qubits[0], inst.qubits[1],
                    entries=builder(*(ref[2] for ref in refs)),
                )
            return _TwoQubitOp(inst.qubits[0], inst.qubits[1], builder=builder, refs=refs)
        matrix = (
            gate_matrix(inst.name, *(ref[2] for ref in refs)) if static else None
        )
        return _GenericOp(inst.name, inst.qubits, self._num_qubits, matrix=matrix, refs=refs)

    # -- binding ---------------------------------------------------------
    def resolve_bindings(self, parameter_values: Bindings) -> Optional[np.ndarray]:
        """Normalise bindings to a flat ``(P,)`` value vector.

        Accepts a ``{Parameter: value}`` mapping or a flat sequence in
        :attr:`parameters` order, mirroring :meth:`QuantumCircuit.bind`
        (including its error behaviour); returns ``None`` for a circuit with
        no free parameters.
        """
        if not self._parameters:
            return None
        if parameter_values is None:
            raise CircuitError(
                f"missing bindings for parameters {[p.name for p in self._parameters]}"
            )
        if isinstance(parameter_values, dict):
            missing = [p.name for p in self._parameters if p not in parameter_values]
            if missing:
                raise CircuitError(f"missing bindings for parameters {missing}")
            return np.array(
                [float(parameter_values[p]) for p in self._parameters], dtype=float
            )
        values = np.asarray(parameter_values, dtype=float).reshape(-1)
        if values.size != len(self._parameters):
            raise CircuitError(
                f"expected {len(self._parameters)} parameter values, got {values.size}"
            )
        return values

    def resolve_bindings_batch(self, parameter_values_batch) -> np.ndarray:
        """Normalise a batch of bindings to a ``(batch, P)`` float matrix."""
        return normalize_bindings_batch(len(self._parameters), parameter_values_batch)

    # -- noise -----------------------------------------------------------
    def noise_anchor(self, instruction_index: int) -> int:
        """The op index after which errors of *instruction_index* insert.

        ``-1`` means before the first compiled op.  Raises
        :class:`SimulationError` for indices outside the compiled circuit.
        """
        try:
            return self._noise_anchor[instruction_index]
        except KeyError:
            raise SimulationError(
                f"instruction index {instruction_index} is not part of the "
                f"compiled circuit"
            ) from None

    def _group_errors(self, errors) -> dict:
        """Group sampled ``(index, qubit, pauli)`` errors by anchor op."""
        boundary: dict = {}
        for instruction_index, qubit, pauli in errors:
            anchor = self.noise_anchor(instruction_index)
            boundary.setdefault(anchor, []).append((qubit, pauli))
        return boundary

    # -- execution -------------------------------------------------------
    def apply(
        self,
        state: np.ndarray,
        values: Optional[np.ndarray] = None,
        *,
        errors=None,
    ) -> np.ndarray:
        """Run the program on *state* and return the final amplitude array.

        *state* is a C-contiguous ``complex128`` array of shape ``(dim,)`` or
        batch-major ``(batch, dim)`` (one state per row).  *values* is
        ``None`` (no free parameters), a ``(P,)`` vector applied to every
        row, or a ``(batch, P)`` matrix of per-row values.

        *errors* is an optional sampled Pauli error pattern (a sequence of
        ``(instruction_index, qubit, pauli)`` triples, see
        :meth:`~repro.quantum.noise.NoiseModel.sample_errors`); each error is
        inserted at the boundary of the fused op containing its instruction,
        leaving the compiled program — and therefore the simulator's program
        cache — untouched.  With a batched *state*, every row receives the
        same error pattern (one trajectory fanned over many bindings).

        The kernels ping-pong between *state* and an internal scratch buffer
        of the same shape, so the returned array is not always the object
        passed in — callers must use the return value (the input buffer may
        hold intermediate garbage afterwards).
        """
        if state.shape[-1] != self._dim:
            raise SimulationError(
                f"state dimension {state.shape[-1]} does not match the "
                f"{self._num_qubits}-qubit program"
            )
        if self._parameters and values is None:
            raise CircuitError(
                f"missing bindings for parameters {[p.name for p in self._parameters]}"
            )
        if (
            values is not None
            and values.ndim == 2
            and (state.ndim != 2 or values.shape[0] != state.shape[0])
        ):
            raise SimulationError(
                f"batched values for {values.shape[0]} rows do not match "
                f"state shape {state.shape}"
            )
        scratch = np.empty_like(state)
        if not errors:
            for op in self._ops:
                state, scratch = op.apply(state, values, scratch)
            return state
        boundary = self._group_errors(errors)
        for qubit, pauli in boundary.get(-1, ()):
            apply_pauli(state, qubit, pauli)
        for op_index, op in enumerate(self._ops):
            state, scratch = op.apply(state, values, scratch)
            for qubit, pauli in boundary.get(op_index, ()):
                apply_pauli(state, qubit, pauli)
        return state


def normalize_bindings_batch(num_parameters: int, parameter_values_batch) -> np.ndarray:
    """Normalise a batch of bindings to a ``(batch, P)`` float matrix.

    Shared by :class:`CompiledProgram` and callers that need batch-binding
    validation without compiling anything (the simulator's seed-oracle mode).
    """
    matrix = np.asarray(parameter_values_batch, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2 or matrix.shape[1] != num_parameters:
        raise CircuitError(
            f"expected a (batch, {num_parameters}) parameter matrix, "
            f"got shape {matrix.shape}"
        )
    return matrix


def compile_circuit(circuit: QuantumCircuit) -> CompiledProgram:
    """Compile *circuit* into a reusable :class:`CompiledProgram`."""
    return CompiledProgram(circuit)


# ---------------------------------------------------------------------------
# PTM / superoperator compilation (exact noisy execution on vec(rho))
# ---------------------------------------------------------------------------
#
# The density matrix of an n-qubit register, flattened row-major, is a 4^n
# vector — formally a statevector on a *doubled* register of 2n qubits whose
# high n bits index rows of rho and whose low n bits index columns.  Unitary
# evolution becomes ``vec(U rho U^dag) = (U ⊗ conj(U)) vec(rho)``: the gate
# applied to the row qubits and its complex conjugate to the column qubits.
# That observation lets the *existing* statevector compiler do almost all of
# the work: every noise-free stretch of a circuit is re-emitted on the
# doubled register (gates on row qubits first, conjugate gates on column
# qubits — the two halves act on disjoint qubits, so the grouping is exact
# and keeps the diagonal/GEMM fusion passes effective) and lowered through
# CompiledProgram unchanged.  Consecutive *noisy* instructions whose operands
# span at most _SUPEROP_FRAME_QUBITS source qubits (a CX-RZ-CX edge
# sandwich, two gates of an H or RX wall) fuse into one _SuperOp on that
# frame: the product ``S_k ... S_1`` with ``S_i = C_i (U_i ⊗ conj(U_i))``,
# where ``C_i`` composes the instruction's channel superoperators
# ``sum_k K ⊗ conj(K)`` in rule-major order (matching the per-instruction
# Kraus oracle).  "Consecutive" is up to exact commutation: an instruction
# may join an earlier run across runs on disjoint qubits, never across one
# sharing a qubit or a noise-free instruction.  Static runs of factors are
# multiplied out at compile time; only parametric unitaries are rebuilt per
# call, once per distinct fused map.  Placement stays exactly
# per-instruction, so the compiled path agrees with the oracle to machine
# precision while each fused frame costs one transpose and one GEMM over the
# 4^n vector, instead of one contraction per Kraus term per channel per
# instruction.

#: Gates whose matrix is real: the conjugate instruction is the gate itself.
_REAL_GATES = frozenset({"id", "x", "z", "h", "ry", "cx", "cz", "swap"})

#: Gates whose conjugate is the same gate at negated parameters.
_NEGATED_GATES = frozenset({"rx", "rz", "p", "crz", "rzz", "rxx"})

#: Static gates whose conjugate is a different registry gate.
_CONJUGATE_NAMES = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}


def _negate_param(param):
    """``-param`` for numbers, Parameters and ParameterExpressions alike."""
    if isinstance(param, (Parameter, ParameterExpression)):
        return -param
    return -float(param)


def _conjugate_instruction(inst: Instruction, offset: int) -> Instruction:
    """The instruction applying ``conj(U)`` on the qubits shifted by *offset*.

    Used to build the column half of a doubled-register segment.  ``y`` is
    rewritten as ``u3(pi, -pi/2, -pi/2)`` (exactly ``[[0, i], [-i, 0]]``)
    rather than ``y`` up to a global phase: on the doubled register a
    "global" phase of the column half is a *relative* phase against the row
    half and would flip the sign of rho.
    """
    qubits = tuple(q + offset for q in inst.qubits)
    if inst.name in _REAL_GATES:
        return Instruction(inst.name, qubits, inst.params)
    if inst.name in _NEGATED_GATES:
        return Instruction(
            inst.name, qubits, tuple(_negate_param(p) for p in inst.params)
        )
    if inst.name in _CONJUGATE_NAMES:
        return Instruction(_CONJUGATE_NAMES[inst.name], qubits)
    if inst.name == "y":
        return Instruction("u3", qubits, (np.pi, -np.pi / 2.0, -np.pi / 2.0))
    if inst.name == "u3":
        theta, phi, lam = inst.params
        return Instruction(
            "u3", qubits, (theta, _negate_param(phi), _negate_param(lam))
        )
    raise SimulationError(
        f"gate {inst.name!r} has no conjugation rule for the doubled-register "
        f"(PTM) compiler"
    )


#: The zero appended to a flattened operator before an :func:`_embed_gather`.
_ZERO_SLOT = np.zeros(1, dtype=np.complex128)
_ZERO_SLOT.setflags(write=False)


@functools.lru_cache(maxsize=None)
def _embed_gather(positions: Tuple[int, ...], width: int) -> np.ndarray:
    """Gather index embedding a k-qubit operator into a *width*-qubit frame.

    Entry ``(row, col)`` indexes the operator's flattened entries, or the
    one-past-the-end slot (the zero :func:`_embed_operator` appends) where
    *row* and *col* differ on a frame bit the operator does not act on.
    Read-only: every caller shares the cached array.
    """
    basis = np.arange(1 << width)
    bits = tuple(width - 1 - p for p in positions)
    sub = _expand_sub_index(basis, bits)
    rest = basis & ~sum(1 << bit for bit in bits)
    index = sub[:, None] * (1 << len(bits)) + sub[None, :]
    index[rest[:, None] != rest[None, :]] = 1 << (2 * len(bits))
    index.setflags(write=False)
    return index


def _embed_operator(operator: np.ndarray, positions, width: int) -> np.ndarray:
    """Embed a k-qubit operator acting on *positions* of a *width*-qubit frame.

    Frame position 0 is the most-significant bit of the frame basis (the
    gate-registry convention); *positions* lists the operator's qubits from
    its own most-significant bit downwards.  One gather, no arithmetic.
    """
    positions = tuple(positions)
    operator = np.asarray(operator, dtype=np.complex128)
    if positions == tuple(range(width)):
        return operator
    padded = np.concatenate((operator.reshape(-1), _ZERO_SLOT))
    return padded[_embed_gather(positions, width)]


def _doubled(positions, width: int) -> Tuple[int, ...]:
    """Positions of a ``(row) ⊗ (column)`` operator in a doubled frame.

    A frame of *width* source qubits is a ``2 * width``-qubit frame on
    ``vec(rho)``: row copies at positions ``0..width-1``, then the column
    copies in the same order.
    """
    return tuple(positions) + tuple(width + p for p in positions)


def _frame_channel_superoperator(channel, targets, operands, frame, memo: dict) -> np.ndarray:
    """A channel's superoperator embedded into a fused kernel's frame.

    *targets* is the operand tuple the channel fires on (a subset of
    *operands*, the qubits of the instruction it is attached to, which lie
    in *frame*, the kernel's source qubits); the result acts on
    ``vec(rho_frame)`` in the ``(row sub-space) ⊗ (column sub-space)``
    basis used by :class:`_SuperOp`.  *memo* caches results within one
    compile, keyed on the channel's identity (the noise model keeps every
    channel alive while it compiles), the target positions and the frame
    width.
    """
    for qubit in targets:
        if qubit not in operands:
            raise ConfigurationError(
                f"channel {channel.name!r} targets qubit {qubit}, which is "
                f"not an operand of the instruction it is attached to "
                f"(operands {tuple(operands)})"
            )
    positions = tuple(frame.index(qubit) for qubit in targets)
    width = len(frame)
    key = (id(channel), positions, width)
    matrix = memo.get(key)
    if matrix is None:
        matrix = memo[key] = _embed_operator(
            channel.superoperator(), _doubled(positions, width), 2 * width
        )
    return matrix


def _relayout(source: Sequence[int], target: Sequence[int]):
    """``(shape, axes)`` re-ordering a register tensor's bits.

    *source* and *target* list the same register bits, most-significant
    axis first.  ``x.reshape(shape).transpose(axes)`` views an array laid
    out in *source* order in *target* order; bits adjacent in both orders
    share one axis, which keeps the transpose low-rank.
    """
    position = {bit: index for index, bit in enumerate(source)}
    runs: list = []  # maximal target-order runs contiguous in source order
    for bit in target:
        if runs and runs[-1][-1] == position[bit] - 1:
            runs[-1].append(position[bit])
        else:
            runs.append([position[bit]])
    order = sorted(range(len(runs)), key=lambda run: runs[run][0])
    shape = tuple(1 << len(runs[run]) for run in order)
    axis_of = {run: axis for axis, run in enumerate(order)}
    return shape, tuple(axis_of[run] for run in range(len(runs)))


class _FrameContraction:
    """One matrix applied to a frame of register bits by transpose + GEMM.

    *bits* lists the frame's register bits, the first being the
    most-significant bit of the matrix basis.  The state arrives with its
    bits in *layout* order (most-significant axis first; ``None`` is the
    canonical descending order).  One transpose brings the frame bits to the
    front for a single ``(2^k, rest)`` GEMM, which leaves the product in that
    frame-first order, :attr:`layout`.  With *restore*, a second transpose
    returns it to canonical order.  Letting consecutive kernels hand over a
    frame-first layout saves one full transpose per kernel.  Holds no
    buffers, so one plan is safe to share between threads.  Used by the PTM
    :class:`_SuperOp` and by the Lindblad dissipator blocks of
    :mod:`repro.dynamics.lindblad`, which contract on the same doubled
    register.
    """

    __slots__ = ("layout", "_shape", "_axes", "_rows", "_restore")

    def __init__(self, bits: Sequence[int], num_bits: int, layout=None, restore=True):
        canonical = tuple(range(num_bits - 1, -1, -1))
        source = canonical if layout is None else tuple(layout)
        frame_first = tuple(bits) + tuple(bit for bit in source if bit not in bits)
        self._shape, self._axes = _relayout(source, frame_first)
        self._rows = 1 << len(bits)
        self._restore = _relayout(frame_first, canonical) if restore else None
        self.layout = None if restore else frame_first

    def _moved(self, state: np.ndarray) -> np.ndarray:
        return state.reshape(self._shape).transpose(self._axes)

    def apply(self, matrix: np.ndarray, state: np.ndarray, scratch: np.ndarray):
        """Ping-pong application; returns ``(result, spare)``.

        *state* and *scratch* are distinct contiguous buffers of one size;
        both are overwritten, and the result is in :attr:`layout` order.
        """
        moved = self._moved(state)
        np.copyto(scratch.reshape(moved.shape), moved)
        np.matmul(
            matrix, scratch.reshape(self._rows, -1), out=state.reshape(self._rows, -1)
        )
        if self._restore is None:
            return state, scratch
        shape, axes = self._restore
        back = state.reshape(shape).transpose(axes)
        np.copyto(scratch.reshape(back.shape), back)
        return scratch, state

    def apply_add(self, matrix: np.ndarray, state: np.ndarray, out: np.ndarray) -> None:
        """``out += matrix @ state`` in canonical order; *state* is not modified.

        Needs a plan built with the canonical *layout* and *restore*.
        """
        product = matrix @ self._moved(state).reshape(self._rows, -1)
        shape, axes = self._restore
        back = product.reshape(shape).transpose(axes)
        target = out.reshape(back.shape)
        target += back


class _ParametricUnitary:
    """A parametric gate's ``U ⊗ conj(U)`` on a fused kernel's doubled frame."""

    __slots__ = ("name", "refs", "positions", "width")

    def __init__(self, name: str, refs, positions: Tuple[int, ...], width: int):
        self.name = name
        self.refs = refs
        self.positions = positions
        self.width = width

    @property
    def key(self) -> tuple:
        return (self.name, self.refs, self.positions, self.width)

    def bind(self, values) -> np.ndarray:
        unitary = gate_matrix(
            self.name, *[float(_resolve_ref(ref, values)) for ref in self.refs]
        )
        return _embed_operator(_kron2(unitary, unitary.conj()), self.positions, self.width)


class _FusedMap:
    """The superoperator ``S_k ... S_1`` of one fused run, in its frame basis.

    *factors* is the product in application order: static matrices (each
    run of static gates and channels multiplied out at compile time) and
    :class:`_ParametricUnitary` factors rebuilt per bind.  A fully static
    run is a single precomputed matrix.  Kernels whose runs have identical
    factors share one map (the edge sandwiches of a QAOA layer, say), so a
    call binds it once.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: list):
        self.factors = factors

    def bind(self, values) -> np.ndarray:
        matrix = None
        for factor in self.factors:
            step = factor if isinstance(factor, np.ndarray) else factor.bind(values)
            matrix = step if matrix is None else step @ matrix
        return matrix


class _SuperOp:
    """A fused run of noisy instructions as one superoperator kernel on vec(rho).

    *bits* lists the frame's row (shifted) qubits first, then its column
    qubits, so the kernel's matrix basis is ``(row sub-space) ⊗ (column
    sub-space)`` — the ordering of both ``kron(U, conj(U))`` and the
    embedded channel superoperators of its :class:`_FusedMap`.  The
    enclosing program sets :attr:`contraction` once the layouts of its
    neighbouring kernels are known.
    """

    __slots__ = ("bits", "map", "contraction")

    def __init__(self, bits: Tuple[int, ...], fused: _FusedMap):
        self.bits = bits
        self.map = fused
        self.contraction: Optional[_FrameContraction] = None

    def apply(self, state, values, scratch, bound: dict):
        """Apply the kernel; *bound* caches this call's bound maps."""
        matrix = bound.get(self.map)
        if matrix is None:
            matrix = bound[self.map] = self.map.bind(values)
        return self.contraction.apply(matrix, state, scratch)


class _SegmentOp:
    """A noise-free stretch of the doubled register, as a compiled program.

    Wraps the stretch's :class:`CompiledProgram` plus the index array
    mapping the enclosing program's master value vector onto the stretch's
    own parameter order.
    """

    __slots__ = ("program", "slots")

    def __init__(self, program: CompiledProgram, slots: Optional[np.ndarray]):
        self.program = program
        self.slots = slots

    def apply(self, state, values, scratch, bound: dict):
        sub_values = None
        if self.slots is not None:
            sub_values = values[self.slots]
        return self.program.apply(state, sub_values), scratch


class NoisyCompiledProgram:
    """A ``(circuit, noise model)`` pair lowered to kernels on ``vec(rho)``.

    Compile once per pair, then :meth:`apply` many times with fresh
    parameter values — mirroring :class:`CompiledProgram` for statevectors.
    Noise-free stretches run through the standard fused kernels on the
    doubled ``2n``-qubit register; each run of consecutive noisy
    instructions spanning at most ``_SUPEROP_FRAME_QUBITS`` source qubits is
    one :class:`_SuperOp` contraction carrying every attached channel at
    exactly the per-instruction anchor the Kraus oracle uses (see the
    section comment above for the vectorisation convention).
    """

    def __init__(self, circuit: QuantumCircuit, noise_model=None):
        n = circuit.num_qubits
        self._num_qubits = n
        self._dim = 1 << (2 * n)
        self._parameters: List[Parameter] = list(circuit.parameters)
        slot_of = {p: slot for slot, p in enumerate(self._parameters)}
        self._ops: list = []
        self._num_superops = 0
        memo: dict = {}  # embedded channel superoperators
        maps: dict = {}  # fused maps by factor signature
        pending: List[Instruction] = []
        # Open fused runs in program order, each ``(frame, members)``: the
        # frame's source qubits in first-seen order and its (instruction,
        # attached channels) pairs.
        groups: list = []

        def flush_segment() -> None:
            if not pending:
                return
            doubled = QuantumCircuit(2 * n)
            for inst in pending:
                doubled.append(
                    Instruction(
                        inst.name, tuple(q + n for q in inst.qubits), inst.params
                    )
                )
            for inst in pending:
                doubled.append(_conjugate_instruction(inst, 0))
            program = CompiledProgram(doubled)
            slots = np.array(
                [slot_of[p] for p in program.parameters], dtype=np.intp
            )
            self._ops.append(_SegmentOp(program, slots if slots.size else None))
            pending.clear()

        def flush_groups() -> None:
            for frame, members in groups:
                self._ops.append(
                    self._build_superop(members, tuple(frame), slot_of, memo, maps)
                )
            self._num_superops += len(groups)
            groups.clear()

        for inst in circuit:
            attached = (
                list(noise_model.exact_channels_for(inst.name, inst.qubits))
                if noise_model is not None
                else []
            )
            if not attached:
                flush_groups()
                pending.append(inst)
                continue
            flush_segment()
            # Join the latest run whose frame can absorb the operands.  An
            # instruction (channels included) commutes exactly with runs on
            # disjoint qubits, so it may move back past those, but never
            # past a run sharing one of its qubits.
            qubits = set(inst.qubits)
            target = None
            for frame, members in reversed(groups):
                if len(qubits.union(frame)) <= _SUPEROP_FRAME_QUBITS:
                    target = (frame, members)
                    break
                if not qubits.isdisjoint(frame):
                    break
            if target is None:
                target = ([], [])
                groups.append(target)
            target[0].extend(q for q in inst.qubits if q not in target[0])
            target[1].append((inst, attached))
        flush_groups()
        flush_segment()
        # A kernel followed by another hands over its frame-first layout;
        # the last of a run restores canonical order for the segment (or
        # the caller) after it.
        layout = None
        for index, op in enumerate(self._ops):
            if isinstance(op, _SuperOp):
                following = self._ops[index + 1] if index + 1 < len(self._ops) else None
                op.contraction = _FrameContraction(
                    op.bits, 2 * n, layout, restore=not isinstance(following, _SuperOp)
                )
                layout = op.contraction.layout

    def _build_superop(self, group, frame, slot_of, memo, maps) -> _SuperOp:
        n = self._num_qubits
        width = len(frame)
        factors: list = []
        static = None  # product of the static factors since the last parametric one

        def push(matrix) -> None:
            nonlocal static
            static = matrix if static is None else matrix @ static

        for inst, attached in group:
            positions = _doubled([frame.index(q) for q in inst.qubits], width)
            refs = tuple(_param_ref(p, slot_of) for p in inst.params)
            if all(ref[0] is None for ref in refs):
                unitary = gate_matrix(inst.name, *(ref[2] for ref in refs))
                push(_embed_operator(_kron2(unitary, unitary.conj()), positions, 2 * width))
            else:
                if static is not None:
                    factors.append(static)
                    static = None
                factors.append(_ParametricUnitary(inst.name, refs, positions, 2 * width))
            # Channels fire after the gate, in rule-major order: each later
            # channel multiplies from the left of the accumulated map.
            for channel, targets in attached:
                push(
                    _frame_channel_superoperator(channel, targets, inst.qubits, frame, memo)
                )
        if static is not None:
            factors.append(static)
        signature = tuple(
            f.tobytes() if isinstance(f, np.ndarray) else f.key for f in factors
        )
        fused = maps.setdefault(signature, _FusedMap(factors))
        return _SuperOp(tuple(q + n for q in frame) + tuple(frame), fused)

    # -- introspection ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Register size of the source circuit (``vec(rho)`` has ``4^n``)."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Length of the flattened density matrix (``4^n``)."""
        return self._dim

    @property
    def parameters(self) -> List[Parameter]:
        """Free parameters, in :attr:`QuantumCircuit.parameters` order."""
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        """Number of free parameters (the length of a value vector)."""
        return len(self._parameters)

    @property
    def num_operations(self) -> int:
        """Top-level operation count (segments + superoperator kernels)."""
        return len(self._ops)

    @property
    def num_superops(self) -> int:
        """Number of superoperator kernels (fused runs of noisy instructions)."""
        return self._num_superops

    def operation_summary(self) -> dict:
        """Compiled-op counts per kind, segments flattened (diagnostic)."""
        counts: dict = {}
        for op in self._ops:
            if isinstance(op, _SegmentOp):
                for kind, count in op.program.operation_summary().items():
                    counts[kind] = counts.get(kind, 0) + count
            else:
                counts["SuperOp"] = counts.get("SuperOp", 0) + 1
        return counts

    # -- binding ---------------------------------------------------------
    resolve_bindings = CompiledProgram.resolve_bindings

    # -- execution -------------------------------------------------------
    def apply(
        self, state: np.ndarray, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run the program on a flattened density matrix.

        *state* is a C-contiguous ``complex128`` vector of length ``4^n`` —
        the row-major flattening of rho.  *values* is ``None`` (no free
        parameters) or a ``(P,)`` vector; batched bindings are not supported
        on the density path.  As with :meth:`CompiledProgram.apply`, the
        kernels ping-pong through scratch buffers, so callers must use the
        returned array.
        """
        if state.shape != (self._dim,):
            raise SimulationError(
                f"state shape {state.shape} does not match the flattened "
                f"{self._num_qubits}-qubit density matrix ({self._dim},)"
            )
        if self._parameters and values is None:
            raise CircuitError(
                f"missing bindings for parameters "
                f"{[p.name for p in self._parameters]}"
            )
        if values is not None and np.ndim(values) == 2:
            raise SimulationError(
                "batched parameter values are not supported on the "
                "PTM-compiled density path; bind one value vector at a time"
            )
        # The kernels GEMM into reshaped views of these buffers, which must
        # therefore be contiguous.
        state = np.ascontiguousarray(state, dtype=np.complex128)
        scratch = np.empty_like(state)
        bound: dict = {}
        for op in self._ops:
            state, scratch = op.apply(state, values, scratch, bound)
        return state


def compile_noisy_circuit(
    circuit: QuantumCircuit, noise_model=None
) -> NoisyCompiledProgram:
    """Compile a ``(circuit, noise model)`` pair for exact noisy execution."""
    return NoisyCompiledProgram(circuit, noise_model)
