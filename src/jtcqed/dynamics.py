"""Lindblad open-system engine.

The Liouvillian has one form: a sparse superoperator of side
``total_dim**2`` in column-major vectorization, assembled once and lazily
from the Hamiltonian and the scaled collapse operators. Its pattern splits
into weakly connected components; L has no entry between two of them, so
each spans a subspace that L and its transpose leave invariant (symmetry
sectors such as parity or a conserved coherence order, found from the
operators, not assumed). Only the stationarity residual applies the complex
superoperator as it is, one CSR mat-vec.

Everything else works on a union of blocks closed under rho_ij <-> rho_ji,
in one real frame. L maps Hermitian matrices to Hermitian matrices, so its
matrix L_r there in an orthonormal Hermitian operator basis U (rho_ii,
sqrt(2) Re rho_ij and sqrt(2) Im rho_ij for i < j) is real. Propagation
takes the union that holds the initial vector: the seed goes in once as
y0 = U^dag x0 (real for a Hermitian x0), the weight rows as W U, and states
come back as U y. The exponential kernel steps y by P_r = expm(L_r dt),
kept in real arithmetic (within about 1e-12 relative of a complex
exponential), a complex y as its real and imaginary parts. One loop steps
baby states y <- P_r y; a long values-only scan (correlations, observable
records) stops it at m states and steps the few weight rows by the real
power P_r^m instead, and every other scan runs it to the end, the plain
chain. The adaptive kernel integrates dy/dt = L_r y by DOP853 with the real
CSR of L_r, a complex y as it is, so its rtol and atol act component by
component on those coordinates. The steady state is one real LU solve of
the trace-bordered block that holds the populations; every other block is
checked by a real LU on its union with its transposed image, and the
condition estimates of these LUs are the uniqueness check.

All dense work on a block of side up to ``ONE_THREAD_MAX_SIDE`` (the
propagator's expm, the squarings, the baby and giant steps and weight-row
products of a scan, and the LU) runs on one BLAS thread; larger blocks run
at the default count. Measured on 2 cores, one thread against two: expm
plus a 16384-delay scan took 12 against 16 ms at side 128, 35 against 49 ms
at 256, 146 against 176 ms at 512 and 459 against 473 ms at 784, but 1.00
against 0.72 s at 1024; an LU took 43 against 35 ms at side 1024 and 0.35
against 0.25 s at 2500, while on two threads a side-256 LU took about 1 ms
or 20-150 ms from one call to the next. Below the limit the second thread
also keeps OpenBLAS threads spinning beside the rest of the run: a spectrum
run used about twice its wall time in CPU time.

Both propagation kernels read the same real generator; they are
cross-checked against each other in the test suite.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import _blas
from .errors import (
    DegenerateSteadyStateError,
    NonStationaryStateError,
    StiffnessError,
    ValidationError,
)
from .hilbert import DensityMatrix, QOperator, SpaceSpec, pauli, qubit_lowering, annihilation
from .series import CorrelationSeries

__all__ = [
    "DissipationParams",
    "Liouvillian",
    "Trajectory",
    "build_liouvillian",
    "liouvillian_from_operators",
    "check_time_grid",
    "evolve",
    "steady_state",
    "correlation",
]

# Adaptive-integration contract: relative / absolute tolerances.
RTOL = 1e-8
ATOL = 1e-10

# Largest superoperator side at which ``evolve(method="auto")`` steps states
# by a dense propagator; larger systems integrate adaptively, the only path
# whose memory fits there. Delay scans and the steady state do not consult it.
DENSE_MAX_SIDE = 2704

STEADY_RESIDUAL_TOL = 1e-10
STATIONARITY_TOL = 1e-8

# Largest block side whose dense work runs on one BLAS thread.
ONE_THREAD_MAX_SIDE = 512

# Positivity slack allowed for propagated states: integration at the fixed
# tolerance contract can push an eigenvalue of an (exactly) boundary state
# slightly negative; fresh constructions keep the tighter DensityMatrix floor.
PROPAGATED_MIN_EIG = -1e-7


@dataclass(frozen=True)
class DissipationParams:
    """Decay rates (units of the first resonator frequency) and bath occupation.

    Thermal occupation applies to the cavity channels only; the qubit
    relaxation and dephasing channels stay at zero temperature.
    """

    kappa1: float = 0.001
    kappa2: float = 0.001
    gamma: float = 0.001
    gamma_phi: float = 0.01
    n_th: float = 0.15

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "gamma", "gamma_phi", "n_th"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")


def _vec(mat: np.ndarray) -> np.ndarray:
    return mat.ravel(order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


class Liouvillian:
    """Generator of the master equation d rho/dt = -i[H, rho] + sum_k D[c_k] rho."""

    def __init__(
        self,
        space: SpaceSpec,
        hamiltonian: QOperator,
        collapse_ops: Sequence[QOperator],
        dissipation: DissipationParams | None = None,
    ):
        self.space = space
        self.hamiltonian = hamiltonian
        self.collapse_ops = tuple(collapse_ops)
        self.dissipation = dissipation
        self._sparse: scipy.sparse.csr_array | None = None
        self._matrix: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._propagator: tuple[tuple[float, bytes], np.ndarray] | None = None

    @property
    def sparse(self) -> scipy.sparse.csr_array:
        """Superoperator on column-major vectorized states, in CSR without stored zeros."""
        if self._sparse is None:
            d = self.space.total_dim
            eye = scipy.sparse.eye_array(d, dtype=complex, format="csr")

            def kron(a, b):
                return scipy.sparse.kron(a, b, format="csr")

            h = self.hamiltonian.matrix
            m = -1j * (kron(eye, h) - kron(h.T, eye))
            for c in (op.matrix for op in self.collapse_ops):
                cdc = c.conj().T @ c
                m = m + kron(c.conj(), c)
                m = m - 0.5 * (kron(eye, cdc) + kron(cdc.T, eye))
            m.eliminate_zeros()
            self._sparse = m
        return self._sparse

    @property
    def matrix(self) -> np.ndarray:
        """Dense superoperator, read-only and cached: :attr:`sparse` densified,
        an oracle for tests that no package code reads."""
        if self._matrix is None:
            m = self.sparse.toarray()
            m.setflags(write=False)
            self._matrix = m
        return self._matrix

    @property
    def blocks(self) -> list[np.ndarray]:
        """Ascending index arrays of the weakly connected components of L's pattern."""
        labels = self._block_labels()
        order = np.argsort(labels, kind="stable")
        return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)

    def _block_labels(self) -> np.ndarray:
        if self._labels is None:
            _, self._labels = scipy.sparse.csgraph.connected_components(
                abs(self.sparse), directed=True, connection="weak"
            )
        return self._labels

    def invariant_block(self, x: np.ndarray) -> np.ndarray:
        """Ascending indices of the union of the blocks that hold the nonzero
        entries of x and of their transposed images.

        L commutes with the adjoint rho -> rho^dag, so the image of a block
        under rho_ij <-> rho_ji is a block too, and the union is closed under
        transposition: the real basis of :meth:`propagator` spans it.
        """
        labels = self._block_labels()
        d = self.space.total_dim
        nonzero = np.flatnonzero(x)
        held = np.zeros(labels.max() + 1, dtype=bool)
        held[labels[nonzero]] = True
        held[labels[nonzero // d + nonzero % d * d]] = True
        return np.flatnonzero(held[labels])

    def apply(self, mat: np.ndarray) -> np.ndarray:
        """Apply the generator to a (not necessarily Hermitian) matrix: one
        mat-vec with :attr:`sparse`."""
        return _unvec(self.sparse @ _vec(mat), self.space.total_dim)

    def _hermitian_basis(self, block: np.ndarray) -> scipy.sparse.csr_array:
        """Unitary U whose columns are the orthonormal Hermitian operator basis
        of ``block``: rho_ii at its own position, and
        for i < j (rho_ij + rho_ji)/sqrt(2) at rho_ij's position and
        i (rho_ij - rho_ji)/sqrt(2) at rho_ji's.

        y = U^dag x are the real coordinates of a Hermitian x, at the same
        positions: rho_ii, sqrt(2) Re rho_ij and sqrt(2) Im rho_ij. Raises
        ``ValidationError`` when the block is not closed under rho_ij <-> rho_ji.
        """
        d = self.space.total_dim
        rows, cols = block % d, block // d
        transposed = cols + rows * d
        where = np.searchsorted(block, transposed).clip(max=block.size - 1)
        if not np.array_equal(block[where], transposed):
            raise ValidationError("block is not closed under rho_ij <-> rho_ji")
        diag, upper = np.flatnonzero(rows == cols), np.flatnonzero(rows < cols)
        lower = where[upper]
        half = np.full(upper.size, math.sqrt(0.5))
        return scipy.sparse.csr_array(
            (
                np.concatenate([np.ones(diag.size), half, 1j * half, half, -1j * half]),
                (
                    np.concatenate([diag, upper, upper, lower, lower]),
                    np.concatenate([diag, upper, lower, upper, lower]),
                ),
            ),
            shape=(block.size, block.size),
        )

    def _real_generator(self, block: np.ndarray):
        """(U, L_r): the Hermitian basis of ``block`` (:meth:`_hermitian_basis`)
        and L restricted to the block in that basis, L_r = U^dag L_b U, as a
        real CSC array.

        L maps Hermitian matrices to Hermitian matrices, so L_r is real. Raises
        ``ValidationError`` when it is not real to rounding, as for a
        Liouvillian constructed directly with a non-Hermitian Hamiltonian.
        """
        u = self._hermitian_basis(block)
        real_gen = u.conj().T @ self.sparse[block][:, block] @ u
        scale = np.abs(real_gen.data).max(initial=0.0)
        if np.abs(real_gen.data.imag).max(initial=0.0) > 16 * np.finfo(float).eps * scale:
            raise ValidationError(
                "generator is not real in a Hermitian basis: "
                "the Hamiltonian is not Hermitian"
            )
        return u, real_gen.real

    def propagator(self, dt: float, block: np.ndarray) -> np.ndarray:
        """P_r = expm(L_r dt): the propagator of L restricted to ``block``
        (ascending indices of an invariant subspace closed under
        rho_ij <-> rho_ji, as from :meth:`invariant_block`), in the real
        coordinates of :meth:`_real_generator`, as a read-only float64 array;
        the propagator of the last step size and block asked for is kept.

        The propagator in the column-major basis is U P_r U^dag; it agrees
        with a complex expm(L_b dt) to about 1e-12 relative.
        """
        key = (dt, block.tobytes())
        if self._propagator is None or self._propagator[0] != key:
            self._propagator = None  # release the old slot before building
            _, real_gen = self._real_generator(block)
            prop = scipy.linalg.expm(real_gen.toarray() * dt)
            prop.setflags(write=False)
            self._propagator = (key, prop)
        return self._propagator[1]

    def stationarity_residual(self, rho: DensityMatrix) -> float:
        return float(np.abs(self.apply(rho.matrix)).max())


def _hermitian_hamiltonian(h: QOperator) -> QOperator:
    """h as an exactly Hermitian operator, (h + h^dag)/2, once it passes
    :meth:`QOperator.is_hermitian`: a defect within that tolerance would
    otherwise leave an imaginary part in the generator's Hermitian-basis
    form, which :meth:`Liouvillian._real_generator` rejects."""
    if not h.is_hermitian():
        raise ValidationError("Hamiltonian must be Hermitian")
    return QOperator(h.space, (h.matrix + h.matrix.conj().T) / 2.0)


def liouvillian_from_operators(
    hamiltonian: QOperator,
    collapse_ops: Sequence[QOperator],
    dissipation: DissipationParams | None = None,
) -> Liouvillian:
    """Assemble a Liouvillian from a Hamiltonian and pre-scaled collapse operators.

    Each collapse operator must already carry the square root of its rate,
    i.e. the damping term contributed is D[c] rho = c rho c^dag - {c^dag c, rho}/2.
    """
    hamiltonian = _hermitian_hamiltonian(hamiltonian)
    space = hamiltonian.space
    for c in collapse_ops:
        if c.space != space:
            raise ValueError("collapse operator lives on a different space")
    return Liouvillian(space, hamiltonian, collapse_ops, dissipation)


def build_liouvillian(h: QOperator, d: DissipationParams) -> Liouvillian:
    """Standard dissipation channels of the two-resonator + qubit system.

    Per cavity mode j: (1 + n_th) kappa_j D[a_j] + n_th kappa_j D[a_j^dag];
    per qubit: gamma D[sigma] + (gamma_phi / 2) D[sigma_z]. Spaces with a
    single mode or without a qubit simply omit the missing channels, which
    keeps uncoupled-cavity fixtures expressible.
    """
    h = _hermitian_hamiltonian(h)
    space = h.space
    if space.n_modes > 2 or space.qubit_count > 1:
        raise ValueError("dissipation defaults cover at most 2 modes and 1 qubit")
    kappas = (d.kappa1, d.kappa2)
    ops: list[QOperator] = []
    for j in range(space.n_modes):
        kappa = kappas[j]
        if kappa == 0.0:
            continue
        a = annihilation(space, j)
        down = np.sqrt((1.0 + d.n_th) * kappa)
        ops.append(down * a)
        if d.n_th > 0.0:
            ops.append(np.sqrt(d.n_th * kappa) * a.dag())
    if space.qubit_count == 1:
        if d.gamma > 0.0:
            ops.append(np.sqrt(d.gamma) * qubit_lowering(space))
        if d.gamma_phi > 0.0:
            ops.append(np.sqrt(d.gamma_phi / 2.0) * pauli(space, "z"))
    return Liouvillian(space, h, ops, d)


@dataclass
class Trajectory:
    """Time-ordered result of a propagation run.

    Either the full state at every requested time (``states``) or expectation
    records for pre-registered observables (``expectations``) are stored; the
    final state is always available. ``method`` is the propagation path
    taken, "expm" or "adaptive", and ``propagation_side`` the side of the
    space it propagated on, on either path: the transposition-closed union of
    invariant blocks that holds the initial state.
    """

    times: np.ndarray
    final_state: DensityMatrix
    states: list[DensityMatrix] | None = None
    expectations: dict[str, np.ndarray] | None = None
    trace_drift: float = 0.0
    method: str = "adaptive"
    propagation_side: int | None = None


def check_time_grid(times) -> np.ndarray:
    """A propagation or delay grid as a float array, checked.

    A grid is a nonempty 1-d array of finite times that starts at 0 and
    increases strictly.
    """
    grid = np.asarray(times, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not np.all(np.isfinite(grid)) or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
        raise ValueError("time grid must be finite, start at 0 and increase strictly")
    return grid


def _is_uniform(grid: np.ndarray) -> bool:
    if grid.size < 3:
        return True
    steps = np.diff(grid)
    return bool(np.allclose(steps, steps[0], rtol=1e-9, atol=1e-14))


def _block_size(side: int, n_steps: int, n_rows: int) -> int:
    """Baby-step count m of a values-only scan; ``n_steps + 1`` is the plain chain.

    Costs are counted in real products of the propagator with one vector
    (one step of a Hermitian seed's real coordinates, or of a real weight
    row). Giant steps of m = 2^j cost j real squarings of the propagator
    (about side/10 such products each, measured at sides 512, 1024 and
    2500), m - 1 baby steps, one row-times-matrix product per weight row and
    giant step, and the giant steps from the last baby state to the final
    state. The chain costs n_steps products. A complex seed steps two
    columns, about twice the cost at sides 1024 and 2500 (a squaring is
    side/20 to side/25 of those), but counts as one: its scans take fewer
    squarings than the exact count would give.

    The baby states take min(m, n_steps + 1) rows of ``side`` entries. Giant
    steps have m <= side, and the chain is picked only for short scans: with
    1 to 3 weight rows its longest n_steps + 1 is 0.40-0.63 side at sides
    256 to 3600 and 1.7 side at side 16, so the baby states stay within
    about twice the propagator's memory. At side 4 every scan is a chain
    of 4-entry rows.
    """
    best, best_cost = n_steps + 1, float(n_steps)
    m = 2
    while m <= min(side, n_steps):
        giant = -(-(n_steps + 1) // m)
        cost = math.log2(m) * side / 10 + (m - 1) + n_rows * giant + n_steps // m
        if cost < best_cost:
            best, best_cost = m, cost
        m *= 2
    return best


def _dense_threads(side: int):
    """Context for the dense work on a block of this side: one BLAS thread
    up to ``ONE_THREAD_MAX_SIDE``, the default count above it (see the
    module docstring)."""
    return _blas.single_thread() if side <= ONE_THREAD_MAX_SIDE else nullcontext()


def _real_product(x: np.ndarray, prop: np.ndarray) -> np.ndarray:
    """x @ prop for a real prop and x one row or a stack of rows. A complex x
    goes in as its real and imaginary parts, the rows of one real product."""
    if not np.iscomplexobj(x):
        return x @ prop
    parts = np.vstack([x.real, x.imag]) @ prop
    half = parts.shape[0] // 2
    return (parts[:half] + 1j * parts[half:]).reshape(x.shape)


def _real_if_exact(x: np.ndarray) -> np.ndarray:
    """x as a real array when its imaginary part is exactly zero."""
    return x if x.imag.any() else x.real.copy()


def _expm_scan(
    liouvillian: Liouvillian,
    y0: np.ndarray,
    n_steps: int,
    dt: float,
    weights: np.ndarray | None = None,
    values: np.ndarray | None = None,
    keep_states: bool = False,
    *,
    block: np.ndarray,
    final: bool = True,
):
    """Step the real coordinates y0 of a vector on the invariant ``block``
    through n_steps of P_r = expm(L_r dt) (:meth:`Liouvillian.propagator`).

    Fills ``values[r, k] = weights[r] . y(k dt)`` for k >= 1 (column 0 is the
    caller's) and returns (ys, y_final): every y(k dt), k = 0..n_steps, as
    the columns of ys when ``keep_states`` (else None), and y(n_steps dt)
    (None when ``final`` is not set). Every product with P_r or its powers
    is real; a complex y0 or weight row is stepped as its real and imaginary
    parts. One loop keeps the baby states P_r^b y0 for b < m, with m from
    :func:`_block_size` for a values-only scan and n_steps + 1 (the plain
    chain) otherwise. A shorter m splits k = a m + b and steps the weight
    rows by P_r^m, so values[:, a m + b] = (W U P_r^(a m)) (P_r^b y0), and
    reaches y_final by further giant steps.
    """
    if n_steps == 0:
        return (y0[:, None] if keep_states else None), y0

    with _dense_threads(y0.size):
        prop = liouvillian.propagator(dt, block)
        m = n_steps + 1
        if values is not None and not keep_states:
            m = _block_size(y0.size, n_steps, weights.shape[0])
        # P_r y is taken as the row product y P_r^T: _real_product stacks rows.
        babies = np.empty((min(m, n_steps + 1), y0.size), dtype=y0.dtype)
        babies[0] = y0
        for b in range(1, babies.shape[0]):
            babies[b] = _real_product(babies[b - 1], prop.T)
        prop_m = prop
        if m <= n_steps:
            for _ in range(m.bit_length() - 1):
                prop_m = prop_m @ prop_m
        if values is not None:
            for first in range(0, n_steps + 1, m):
                if first:
                    weights = _real_product(weights, prop_m)
                start, stop = max(first, 1), min(first + m, n_steps + 1)
                values[:, start:stop] = weights @ babies[start - first : stop - first].T
        ys = babies.T if keep_states else None
        if not final:
            return ys, None
        giant, b = divmod(n_steps, m)
        y = babies[b]
        for _ in range(giant):
            y = _real_product(y, prop_m.T)
        return ys, y


def _adaptive_scan(
    liouvillian: Liouvillian,
    y0: np.ndarray,
    times: np.ndarray,
    rtol: float,
    atol: float,
    *,
    block: np.ndarray,
) -> np.ndarray:
    """DOP853 on dy/dt = L_r y, with L_r of :meth:`Liouvillian._real_generator`
    on ``block`` as a real CSR array; returns y at each requested time as the
    columns of an array."""
    import scipy.integrate  # here, not at module level: its import takes 0.17-0.31 s (2 cores)

    # CSR: its mat-vec took a third of the CSC one's time at side 9604
    real_gen = liouvillian._real_generator(block)[1].tocsr()
    sol = scipy.integrate.solve_ivp(
        lambda _t, y: real_gen @ y,
        (times[0], times[-1]),
        y0,
        method="DOP853",
        t_eval=times,
        rtol=rtol,
        atol=atol,
    )
    if not sol.success:
        raise StiffnessError(
            f"adaptive integration failed ({sol.message}); "
            "retry with method='expm' on a uniform grid"
        )
    return sol.y


def _embed(x: np.ndarray, block: np.ndarray, size: int) -> np.ndarray:
    full = np.zeros(size, dtype=complex)
    full[block] = x
    return full


def _propagate(
    liouvillian: Liouvillian,
    x0: np.ndarray,
    times: np.ndarray,
    method: str = "auto",
    weight_ops: Sequence[QOperator] | None = None,
    keep_states: bool = False,
    rtol: float = RTOL,
    atol: float = ATOL,
    final: bool = True,
):
    """Propagate the vectorized state x0 over a checked time grid.

    ``method="auto"`` takes exponential stepping on uniform grids of at
    least 3 points, adaptive integration otherwise. Both kernels step the
    real coordinates of the module docstring on the union of invariant
    blocks that holds the nonzero entries of x0 and their transposes
    (:meth:`Liouvillian.invariant_block`); a zero x0 has an empty block and
    stays zero. Returns the resolved method, the side of that block,
    tr(weight_ops[r] x(times[k])) as ``values[r, k]`` (or None), every x(t)
    when ``keep_states`` (or None), and x at the last time (None on the
    exponential path when ``final`` is not set).
    """
    if method == "auto":
        method = "expm" if times.size >= 3 and _is_uniform(times) else "adaptive"
    if method not in ("expm", "adaptive"):
        raise ValueError(f"unknown propagation method {method!r}")
    if method == "expm" and not _is_uniform(times):
        raise ValueError("expm propagation requires a uniform time grid")
    side, block = x0.size, liouvillian.invariant_block(x0)
    x0 = x0[block]
    u = liouvillian._hermitian_basis(block)
    y0 = _real_if_exact(u.conj().T @ x0)
    weights = values = None
    if weight_ops:
        for op in weight_ops:
            if op.space != liouvillian.space:
                raise ValueError("weight operator lives on a different space")
        rows = np.stack([_vec(np.ascontiguousarray(op.matrix.T)) for op in weight_ops])[:, block]
        weights = _real_if_exact(rows @ u)
        values = np.empty((rows.shape[0], times.size), dtype=complex)
        values[:, 0] = rows @ x0

    if method == "expm":
        dt = float(times[1] - times[0]) if times.size > 1 else 0.0
        ys, y_final = _expm_scan(
            liouvillian, y0, times.size - 1, dt, weights, values, keep_states,
            block=block, final=final,
        )
    else:
        ys = _adaptive_scan(liouvillian, y0, times, rtol, atol, block=block)
        y_final = ys[:, -1]
        if values is not None:
            values[:, 1:] = weights @ ys[:, 1:]
    columns = None
    if keep_states:
        columns = [_embed(x, block, side) for x in (x0, *(u @ ys[:, 1:]).T)]
    x_final = None if y_final is None else _embed(u @ y_final, block, side)
    return method, block.size, values, columns, x_final


def evolve(
    liouvillian: Liouvillian,
    rho0: DensityMatrix,
    times,
    method: str = "auto",
    observables: dict[str, QOperator] | None = None,
    rtol: float = RTOL,
    atol: float = ATOL,
) -> Trajectory:
    """Propagate a density matrix over the requested times.

    ``method="auto"`` resolves to exact exponential stepping ("expm") on
    uniform grids of at least 3 points up to superoperator side
    ``DENSE_MAX_SIDE`` and to adaptive integration at the tolerance contract
    ``rtol``/``atol`` otherwise; the path taken and the side of the invariant
    block it ran on are recorded on the trajectory. Both paths step the real
    Hermitian coordinates rho_ii, sqrt(2) Re rho_ij and sqrt(2) Im rho_ij of
    that block, and ``rtol``/``atol`` act on them component by component.
    With ``observables`` given (name -> operator), expectation records are
    stored instead of per-time states.
    """
    if rho0.space != liouvillian.space:
        raise ValueError("initial state lives on a different space")
    times = check_time_grid(times)
    d = liouvillian.space.total_dim
    x0 = _vec(np.asarray(rho0.matrix))
    if method == "auto" and x0.size > DENSE_MAX_SIDE:
        method = "adaptive"
    keep_states = observables is None
    names = list(observables or ())
    method, side, values, columns, x_final = _propagate(
        liouvillian, x0, times, method,
        weight_ops=[observables[name] for name in names],
        keep_states=keep_states, rtol=rtol, atol=atol,
    )

    trace_row = _vec(np.eye(d, dtype=complex))
    checked = columns if columns is not None else (x0, x_final)
    trace_drift = float(np.abs(np.array([trace_row @ c for c in checked]) - 1.0).max())
    if trace_drift > 1e-8:
        raise ValidationError(f"trace drift {trace_drift:.3e} exceeds 1e-8")

    def state(x):
        return DensityMatrix(
            liouvillian.space, _sym(_unvec(x, d)), min_eig_floor=PROPAGATED_MIN_EIG
        )

    states = [state(c) for c in columns] if keep_states else None
    expectations = None
    if observables is not None:
        expectations = {name: values[r].copy() for r, name in enumerate(names)}
    return Trajectory(
        times=times,
        final_state=states[-1] if keep_states else state(x_final),
        states=states,
        expectations=expectations,
        trace_drift=trace_drift,
        method=method,
        propagation_side=side,
    )


def _sym(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2.0


def _checked_lu(m: np.ndarray, what: str):
    """LU of m; raises when LAPACK's reciprocal-condition estimate of it is
    below side * eps. BLAS threads follow :func:`_dense_threads`.
    """
    try:
        # An exactly zero pivot is a degenerate kernel, not a warning.
        with warnings.catch_warnings(), _dense_threads(m.shape[0]):
            warnings.simplefilter("error", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m)
    except (scipy.linalg.LinAlgError, scipy.linalg.LinAlgWarning) as exc:
        raise DegenerateSteadyStateError(f"kernel solve failed: {exc}") from exc
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(m, 1), norm="1")
    if not rcond >= m.shape[0] * np.finfo(float).eps:
        raise DegenerateSteadyStateError(
            f"kernel dimension > 1 (reciprocal condition {rcond:.3e} of {what}); "
            "steady state is not unique"
        )
    return lu, piv


def steady_state(liouvillian: Liouvillian) -> DensityMatrix:
    """Unique stationary state, via a trace-constrained kernel solve.

    The kernel of L is the direct sum of the kernels of its invariant blocks
    (:attr:`Liouvillian.blocks`). Every block that holds a population
    carries the trace functional and so a stationary state: populations in
    more than one block mean a kernel of dimension > 1. In the one block
    that holds them, the first row (a redundant row: the trace functional
    annihilates the generator) is replaced by the trace constraint and the
    resulting system solved by a real LU, in the Hermitian basis of
    :meth:`Liouvillian._real_generator` (which raises ``ValidationError``
    for a generator that is not real there). That bordered system is
    singular exactly when the block's kernel has dimension > 1, and every
    other block B is singular exactly when it holds a stationary coherence,
    and so is L_r on its union with its transposed image B'
    (:meth:`Liouvillian.invariant_block`): it is unitarily similar to
    diag(L_B, L_B'), and L_B' is L_B conjugated and permuted. So the kernel
    check is LAPACK's reciprocal-condition estimate of each real LU, O(n^2)
    after the factorization: every block is covered, at every size, and
    below n * eps the steady state is reported as not unique, never silently
    resolved. A generator without a kernel fails the stationarity-residual
    check that follows the solve.
    """
    d = liouvillian.space.total_dim
    blocks = liouvillian.blocks
    populations = _vec(np.eye(d, dtype=bool))
    held = [block for block in blocks if populations[block].any()]
    if len(held) > 1:
        raise DegenerateSteadyStateError(
            f"the populations fall in {len(held)} invariant blocks of the generator, "
            "each with its own stationary state; steady state is not unique"
        )
    (block,) = held
    # The block is closed under rho_ij <-> rho_ji (the transposed image of a
    # population block holds the populations too), so the system is solved in
    # its real coordinates, where the trace is the sum of the rho_ii ones.
    # The block is ascending and index 0 (rho[0, 0]) is a population, so its
    # first row is the one the trace row replaces.
    u, real_gen = liouvillian._real_generator(block)
    m = real_gen.toarray()
    m[0, :] = populations[block]
    b = np.zeros(block.size)
    b[0] = 1.0
    lu = _checked_lu(m, "the trace-bordered system")
    for other in blocks:
        union = liouvillian.invariant_block(np.arange(d * d) == other[0])
        if other is not block and union[0] == other[0]:  # once per union
            _checked_lu(
                liouvillian._real_generator(union)[1].toarray(),
                f"an invariant block union of side {union.size}",
            )
    y = scipy.linalg.lu_solve(lu, b)
    # One refinement pass tightens the residual at negligible cost.
    y += scipy.linalg.lu_solve(lu, b - m @ y)
    if not np.all(np.isfinite(y)):
        raise DegenerateSteadyStateError("kernel solve produced non-finite values")

    rho = _sym(_unvec(_embed(u @ y, block, d * d), d))
    rho /= np.trace(rho).real
    residual = float(np.abs(liouvillian.apply(rho)).max())
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyStateError(
            f"stationarity residual {residual:.3e} exceeds {STEADY_RESIDUAL_TOL}; "
            "the kernel is degenerate or the solve is ill-conditioned"
        )
    return DensityMatrix(liouvillian.space, rho)


def correlation(
    liouvillian: Liouvillian,
    rho_ss: DensityMatrix,
    a_op: QOperator,
    b_op: QOperator,
    taus,
    method: str = "auto",
) -> CorrelationSeries:
    """Stationary two-time correlation <A(tau) B(0)> by the regression rule.

    The operator-deformed state B rho_ss is propagated under the same
    generator and traced against A. The zero-delay value is the static
    expectation tr(A B rho_ss), computed directly.
    """
    if rho_ss.space != liouvillian.space:
        raise ValueError("stationary state lives on a different space")
    for op in (a_op, b_op):
        if op.space != liouvillian.space:
            raise ValueError("correlation operators live on a different space")
    residual = liouvillian.stationarity_residual(rho_ss)
    if residual > STATIONARITY_TOL:
        raise NonStationaryStateError(
            f"state is not stationary (residual {residual:.3e} > {STATIONARITY_TOL})"
        )
    taus = check_time_grid(taus)

    seed = b_op.matrix @ rho_ss.matrix
    method, side, values, _, _ = _propagate(
        liouvillian, _vec(seed), taus, method, [a_op], final=False
    )
    values = np.array(values[0], dtype=complex)
    values[0] = np.trace(a_op.matrix @ seed)
    return CorrelationSeries(
        taus,
        values,
        metadata={
            "method": method,
            "propagation_side": side,
            "stationarity_residual": residual,
        },
    )
