"""Operator algebra on the composite Hilbert space (Fock modes + qubits).

Operators are dense: the largest space used anywhere in the package is a few
hundred dimensions, where dense eigensolves are cheap. Only the
superoperator, whose side is the square of that, is assembled sparse (in
``dynamics``). ``model`` assembles the dimensionless Hamiltonian straight
from the per-factor matrices (``_ladder``, the Pauli matrices) as a real
array, without the full-space complex products of the ``QOperator`` algebra.

The tensor-factor ordering is fixed at construction time: Fock modes first
(in the order given), qubits last. All operators carry the ``SpaceSpec`` they
were built on, and binary operations refuse to mix spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

__all__ = [
    "SpaceSpec",
    "QOperator",
    "DensityMatrix",
    "identity",
    "annihilation",
    "number_operator",
    "pauli",
    "qubit_lowering",
    "commutator",
    "eigen_lowest",
    "eigen_lowest_states",
    "basis_ket",
    "expectation",
]

# Relative tolerance of the Hermiticity test on operators.
HERMITIAN_RTOL = 1e-12

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# Qubit basis convention: index 0 is the excited state (+1 eigenvalue of the
# z Pauli operator), index 1 is the ground state.
QUBIT_EXCITED = 0
QUBIT_GROUND = 1


@dataclass(frozen=True)
class SpaceSpec:
    """Tensor-factor layout: truncated Fock modes followed by qubits.

    Parameters
    ----------
    fock_dims:
        Per-mode truncation dimension, each at least 2. May be empty for a
        qubit-only space.
    qubit_count:
        Number of two-level factors appended after the modes.
    """

    fock_dims: tuple[int, ...]
    qubit_count: int = 1

    def __post_init__(self):
        dims = tuple(int(d) for d in self.fock_dims)
        object.__setattr__(self, "fock_dims", dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every Fock truncation must be >= 2, got {dims}")
        if self.qubit_count < 0:
            raise ValueError("qubit_count must be nonnegative")
        if not dims and self.qubit_count == 0:
            raise ValueError("space must contain at least one factor")

    @property
    def n_modes(self) -> int:
        return len(self.fock_dims)

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.fock_dims + (2,) * self.qubit_count

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.factor_dims))


def _embed(space: SpaceSpec, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker-embed per-factor matrices, identity on unmentioned factors."""
    out = np.array([[1.0 + 0.0j]])
    for idx, dim in enumerate(space.factor_dims):
        block = factors.get(idx)
        if block is None:
            block = np.eye(dim, dtype=complex)
        out = np.kron(out, block)
    return out


def _ladder(dim: int) -> np.ndarray:
    """Real truncated ladder matrix of one Fock factor, <n-1|a|n> = sqrt(n)."""
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


class QOperator:
    """A dense complex matrix tagged with the space it acts on."""

    __slots__ = ("space", "matrix")

    # keep numpy scalars from broadcasting over the matrix; scalar products
    # must go through __rmul__ and preserve the QOperator wrapper
    __array_ufunc__ = None

    def __init__(self, space: SpaceSpec, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        n = space.total_dim
        if matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dimension {n}"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("QOperator is immutable")

    def dag(self) -> "QOperator":
        """Adjoint (conjugate transpose)."""
        return QOperator(self.space, self.matrix.conj().T)

    def is_hermitian(self) -> bool:
        """True iff max|M - M^dag| <= 1e-12 * max|M| (zero matrix counts)."""
        scale = np.abs(self.matrix).max()
        if scale == 0.0:
            return True
        return np.abs(self.matrix - self.matrix.conj().T).max() <= HERMITIAN_RTOL * scale

    def _check_space(self, other: "QOperator"):
        if self.space != other.space:
            raise ValueError("operators live on different spaces")

    def __add__(self, other: "QOperator") -> "QOperator":
        self._check_space(other)
        return QOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "QOperator") -> "QOperator":
        self._check_space(other)
        return QOperator(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "QOperator":
        return QOperator(self.space, -self.matrix)

    def __mul__(self, scalar) -> "QOperator":
        return QOperator(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "QOperator") -> "QOperator":
        self._check_space(other)
        return QOperator(self.space, self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"QOperator(dim={self.space.total_dim}, hermitian={self.is_hermitian()})"


def identity(space: SpaceSpec) -> QOperator:
    return QOperator(space, np.eye(space.total_dim, dtype=complex))


def annihilation(space: SpaceSpec, mode_index: int) -> QOperator:
    """Embedded truncated ladder operator with <n-1|a|n> = sqrt(n)."""
    if not 0 <= mode_index < space.n_modes:
        raise ValueError(f"mode index {mode_index} out of range for {space.n_modes} modes")
    return QOperator(space, _embed(space, {mode_index: _ladder(space.fock_dims[mode_index])}))


def number_operator(space: SpaceSpec, mode_index: int) -> QOperator:
    a = annihilation(space, mode_index)
    return a.dag() @ a


def pauli(space: SpaceSpec, axis: str, qubit_index: int = 0) -> QOperator:
    """Embedded Pauli matrix for the given qubit factor; axis in {x, y, z}."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    if not 0 <= qubit_index < space.qubit_count:
        raise ValueError(
            f"qubit index {qubit_index} out of range for {space.qubit_count} qubits"
        )
    factor = space.n_modes + qubit_index
    return QOperator(space, _embed(space, {factor: _PAULI[axis]}))


def qubit_lowering(space: SpaceSpec, qubit_index: int = 0) -> QOperator:
    """Embedded qubit lowering operator (sigma_x - i sigma_y)/2.

    Maps the excited state (index 0) to the ground state (index 1); its only
    nonzero element is <g|sigma|e> = 1.
    """
    if not 0 <= qubit_index < space.qubit_count:
        raise ValueError(
            f"qubit index {qubit_index} out of range for {space.qubit_count} qubits"
        )
    sigma = (_PAULI["x"] - 1j * _PAULI["y"]) / 2.0
    factor = space.n_modes + qubit_index
    return QOperator(space, _embed(space, {factor: sigma}))


def commutator(a: QOperator, b: QOperator) -> QOperator:
    return a @ b - b @ a


def eigen_lowest(op: QOperator, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a Hermitian operator, ascending.

    Degenerate values are repeated. The result is deterministic for identical
    input: the full dense symmetric eigensolve is used and the values sliced.
    """
    values, _ = eigen_lowest_states(op, count)
    return values


def eigen_lowest_states(op: QOperator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Like :func:`eigen_lowest` but also returns the eigenvectors as columns."""
    if not op.is_hermitian():
        raise ValidationError("eigen decomposition requires a Hermitian operator")
    n = op.space.total_dim
    if not 0 < count <= n:
        raise ValueError(f"count must be in [1, {n}], got {count}")
    values, vectors = np.linalg.eigh(op.matrix)
    return values[:count].copy(), vectors[:, :count].copy()


def basis_ket(
    space: SpaceSpec,
    fock_levels: Sequence[int],
    qubit_levels: Iterable[str | int] = (),
) -> np.ndarray:
    """Product basis ket |n_1, n_2, ..., q_1, ...> as a dense vector.

    Qubit levels may be given as 'e'/'g' or as raw indices (0 = excited,
    1 = ground).
    """
    fock_levels = list(fock_levels)
    qubit_levels = list(qubit_levels)
    if len(fock_levels) != space.n_modes:
        raise ValueError(f"expected {space.n_modes} Fock levels, got {len(fock_levels)}")
    if len(qubit_levels) != space.qubit_count:
        raise ValueError(f"expected {space.qubit_count} qubit levels, got {len(qubit_levels)}")
    indices = []
    for n, d in zip(fock_levels, space.fock_dims):
        if not 0 <= n < d:
            raise ValueError(f"Fock level {n} outside truncation {d}")
        indices.append(int(n))
    for q in qubit_levels:
        if isinstance(q, str):
            if q not in ("e", "g"):
                raise ValueError(f"qubit level must be 'e' or 'g', got {q!r}")
            indices.append(QUBIT_EXCITED if q == "e" else QUBIT_GROUND)
        else:
            if q not in (0, 1):
                raise ValueError(f"qubit level index must be 0 or 1, got {q}")
            indices.append(int(q))
    ket = np.array([1.0 + 0.0j])
    for idx, dim in zip(indices, space.factor_dims):
        block = np.zeros(dim, dtype=complex)
        block[idx] = 1.0
        ket = np.kron(ket, block)
    return ket


class DensityMatrix:
    """A validated density matrix: unit trace, Hermitian, positive to slack.

    Validation thresholds (trace within 1e-9 of one, Hermitian to 1e-10,
    minimum eigenvalue >= -1e-8) leave room for rounding while catching
    genuinely broken states; propagated states are held to the same floor.
    """

    __slots__ = ("space", "matrix")

    TRACE_ATOL = 1e-9
    HERMITIAN_ATOL = 1e-10
    MIN_EIG = -1e-8

    def __init__(self, space: SpaceSpec, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=complex)
        n = space.total_dim
        if matrix.shape != (n, n):
            raise ValidationError(
                f"matrix shape {matrix.shape} does not match space dimension {n}"
            )
        tr = np.trace(matrix)
        if abs(tr - 1.0) > self.TRACE_ATOL:
            raise ValidationError(f"trace {tr} deviates from 1 beyond {self.TRACE_ATOL}")
        herm_defect = np.abs(matrix - matrix.conj().T).max()
        if herm_defect > self.HERMITIAN_ATOL:
            raise ValidationError(f"Hermiticity defect {herm_defect:.3e} beyond tolerance")
        min_eig = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0).min()
        if min_eig < self.MIN_EIG:
            raise ValidationError(f"minimum eigenvalue {min_eig:.3e} below {self.MIN_EIG}")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "matrix", matrix)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    @classmethod
    def from_pure(cls, space: SpaceSpec, ket: np.ndarray) -> "DensityMatrix":
        ket = np.asarray(ket, dtype=complex)
        norm = np.linalg.norm(ket)
        if norm == 0.0:
            raise ValidationError("cannot build a state from the zero vector")
        ket = ket / norm
        return cls(space, np.outer(ket, ket.conj()))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.space.total_dim}, purity={self.purity():.6f})"


def expectation(op: QOperator, state: DensityMatrix | np.ndarray) -> complex:
    """Trace of op @ rho."""
    rho = state.matrix if isinstance(state, DensityMatrix) else np.asarray(state)
    if isinstance(state, DensityMatrix) and op.space != state.space:
        raise ValueError("operator and state live on different spaces")
    return complex(np.sum(op.matrix.T * rho))
