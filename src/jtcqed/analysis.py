"""Observables: eigenvalue scans, heterodyne power spectra, second-order
coherence and photon population imbalance.

Spectra are one-sided Fourier transforms of stationary correlations evaluated
on a uniform delay grid; no window function is applied (the correlations decay
through the cavity loss), so spectra are bit-reproducible and a warning is
attached instead when the window is too short.
"""

from __future__ import annotations

import math
import os
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas
from .dynamics import (
    Liouvillian,
    _regression,
    check_time_grid,
    correlation,
    evolve,
)
from .errors import UndefinedCoherenceError, ValidationError
from .hilbert import (
    DensityMatrix,
    SpaceSpec,
    _ladder,
    annihilation,
    expectation,
    number_operator,
    qubit_lowering,
)
from .model import _dimensionless_matrix, _require_two_modes_one_qubit
from .series import CorrelationSeries, ImbalanceSeries, SpectrumSeries

__all__ = [
    "EigenScanTable",
    "WindowScan",
    "eigen_scan",
    "single_mode_window",
    "power_spectrum",
    "spectrum_peaks",
    "g2",
    "imbalance",
]

DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class EigenScanTable:
    """Lowest eigenvalues per frequency-mismatch point; one row per delta."""

    deltas: np.ndarray
    energies: np.ndarray  # shape (len(deltas), count)


# Matrices per batch: about 1 MB of them, and never fewer than 3. NumPy's
# stacked eigensolvers release the interpreter lock only when matrices x side
# exceeds 500 (measured), which 1 MB batches meet below side 262 and 3
# matrices above side 166.
_BATCH_BYTES = 1 << 20
_MIN_BATCH = 3


def _hamiltonian_sweep(k, delta_grid, count, space, include_quadratic, solve, j_override=None):
    """The validated mismatch grid and ``solve`` applied along it.

    H(delta) is affine in delta, so two builds give h0 = H(0), h1 = H(1) - H(0)
    and H(delta) = h0 + delta h1. Both come from the model's real
    tensor-factor builder (``model._dimensionless_matrix``, float64 by
    construction), so no full-space complex array is formed and every
    eigensolve runs in real arithmetic, about twice as fast as in complex.
    Checking h0 and h1 for exact symmetry covers every point.

    The grid is cut into contiguous chunks, one per CPU of the affinity mask
    and at most one per batch; the calling thread runs the first and worker
    threads the others. A chunk is formed a batch at a time in one reused
    buffer of about 1 MB, so peak memory stays bounded whatever the grid's
    length, and ``solve`` maps each stack of H(delta) to one result row per
    matrix with one stacked LAPACK call. BLAS runs on one thread throughout
    (:func:`._blas.single_thread`), so each point's result is the same
    single-thread LAPACK call whatever the chunking. Where no OpenBLAS
    library is found to hold to one thread, the calling thread runs the
    whole grid.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.size == 0:
        raise ValueError("delta grid must be nonempty")
    if not np.all(np.isfinite(deltas)):
        raise ValueError("delta grid must be finite")
    if not 0 < count <= space.total_dim:
        raise ValueError(f"count must be in [1, {space.total_dim}]")

    # The builds run on one BLAS thread too: a two-thread call just before
    # the chunks start leaves OpenBLAS's own thread spinning beside them.
    with _blas.single_thread():
        h0, at_one = (
            _dimensionless_matrix(space, k, d, include_quadratic, j_override) for d in (0.0, 1.0)
        )
        h1 = at_one - h0
        if not all(np.array_equal(h, h.T) for h in (h0, h1)):
            raise ValidationError("eigen decomposition requires a symmetric Hamiltonian")

        batch = max(_MIN_BATCH, _BATCH_BYTES // h0.nbytes)
        n_batches = -(-deltas.size // batch)
        workers = min(len(os.sched_getaffinity(0)), n_batches) if _blas.setters() else 1
        # Chunk edges on batch boundaries, as even as whole batches allow.
        edges = [batch * (n_batches * i // workers) for i in range(workers)] + [deltas.size]

        def run(lo, hi):
            stack = np.empty((min(batch, hi - lo), *h0.shape))
            rows = []
            for start in range(lo, hi, batch):
                chunk = deltas[start:hi][:batch]
                out = stack[: chunk.size]
                np.multiply(chunk[:, None, None], h1, out=out)
                out += h0
                rows.append(solve(out))
            return rows

        with ThreadPoolExecutor(max(1, workers - 1)) as pool:
            others = [pool.submit(run, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
            rows = run(edges[0], edges[1])
            for future in others:
                rows += future.result()
    return deltas, np.concatenate(rows)


def eigen_row(k: float, delta: float, count: int, space: SpaceSpec,
              include_quadratic: bool = True, j_override: float | None = None) -> np.ndarray:
    """Lowest ``count`` eigenvalues at one (k, delta) point: a one-point
    :func:`eigen_scan`, kept because the benchmark's tracer wraps it by name."""
    return eigen_scan(k, [delta], count, space, include_quadratic, j_override).energies[0]


def eigen_scan(
    k: float,
    delta_grid,
    count: int,
    space: SpaceSpec,
    include_quadratic: bool = True,
    j_override: float | None = None,
) -> EigenScanTable:
    """Sweep the frequency mismatch and collect the lowest eigenvalues."""
    deltas, energies = _hamiltonian_sweep(
        k, delta_grid, count, space, include_quadratic,
        lambda stack: np.linalg.eigvalsh(stack)[:, :count], j_override,
    )
    return EigenScanTable(deltas=deltas, energies=energies)


@dataclass(frozen=True)
class WindowScan:
    """Inter-mode mixing of the low eigenstates across the mismatch grid.

    ``mixing`` measures, per mismatch point, how far any of the tracked
    eigenstates strays from an integer disadvantaged-mode occupation: inside
    the single-effective-mode window every low eigenstate is a pure
    privileged-mode/qubit excitation or a pure spectator photon (integer
    occupation, mixing near 0); level repulsion hybridizes the branches and
    pulls the occupation toward half-integers (mixing near 0.5).
    ``half_width`` is the extent of the contiguous low-mixing region
    around zero mismatch.
    """

    deltas: np.ndarray
    mixing: np.ndarray
    half_width: float
    threshold: float


def single_mode_window(
    k: float,
    delta_grid,
    space: SpaceSpec,
    count: int = 3,
    threshold: float = 0.25,
    include_quadratic: bool = True,
) -> WindowScan:
    """Measure how far in |delta| the low spectrum stays single-mode.

    For each mismatch the lowest ``count`` eigenstates are examined and the
    largest distance of their disadvantaged-mode occupation from an integer
    is recorded; the window ends where that mixing exceeds ``threshold``.
    The default tracks the ground state and the split first-excitation pair;
    higher levels of the strongly coupled spectrum contain near-degenerate
    spectator pairs that hybridize at any mismatch and would mask the window.
    Raises ``ValueError`` unless the grid brackets delta = 0.
    """
    _require_two_modes_one_qubit(space)
    a2 = _ladder(space.fock_dims[1])
    n2 = np.kron(np.kron(np.eye(space.fock_dims[0]), a2.T @ a2), np.eye(2))

    def solve(stack):
        vectors = np.linalg.eigh(stack)[1][:, :, :count]
        occ = np.array([np.einsum("ij,ik,kj->j", v, n2, v) for v in vectors])
        return np.abs(occ - np.round(occ)).max(axis=1)

    deltas, mixing = _hamiltonian_sweep(k, delta_grid, count, space, include_quadratic, solve)
    if not deltas.min() <= 0.0 <= deltas.max():
        raise ValueError("delta grid must bracket zero mismatch")
    center = int(np.argmin(np.abs(deltas)))
    if mixing[center] >= threshold:
        half_width = 0.0
    else:
        right = center
        while right + 1 < deltas.size and mixing[right + 1] < threshold:
            right += 1
        left = center
        while left - 1 >= 0 and mixing[left - 1] < threshold:
            left -= 1
        half_width = float(min(deltas[right], -deltas[left]))
    return WindowScan(
        deltas=deltas, mixing=mixing, half_width=half_width, threshold=threshold,
    )


def power_spectrum(
    liouvillian: Liouvillian,
    rho_ss: DensityMatrix,
    mode: str = "privileged",
    tau_max: float = 1000.0,
    n_samples: int = 4096,
    ordering: str = "emission",
) -> SpectrumSeries:
    """One-sided power spectrum of the stationary mode correlation.

    P(omega) = 2 Re int_0^inf C(tau) exp(-i omega tau) dtau, evaluated by FFT
    on the uniform delay grid (the tau = 0 sample carries half weight, the
    trapezoid-consistent one-sided transform). ``ordering="emission"`` uses
    <a^dag(tau) a(0)>; ``ordering="as_printed"`` evaluates <a(tau) a(0)>,
    whose transform is not sign-definite, so the nonnegativity floor is not
    enforced for it.
    """
    if n_samples < 4 or n_samples & (n_samples - 1):
        raise ValueError("n_samples must be a power of two (>= 4)")
    if mode not in ("privileged", "disadvantaged"):
        raise ValueError("mode must be 'privileged' or 'disadvantaged'")
    if ordering not in ("emission", "as_printed"):
        raise ValueError("ordering must be 'emission' or 'as_printed'")
    mode_index = 0 if mode == "privileged" else 1

    run_warnings: list[str] = []
    diss = liouvillian.dissipation
    if diss is not None:
        kappa = diss.kappa1 if mode_index == 0 else diss.kappa2
        if kappa > 0 and tau_max < 10.0 / kappa:
            msg = (
                f"tau_max={tau_max:g} is below 10/kappa={10.0 / kappa:g}; "
                "spectral lines will be window-broadened"
            )
            run_warnings.append(msg)
            _warnings.warn(msg, stacklevel=2)

    a = annihilation(liouvillian.space, mode_index)
    if ordering == "emission":
        a_op, b_op = a.dag(), a
    else:
        a_op, b_op = a, a

    d_tau = tau_max / n_samples
    taus = np.arange(n_samples) * d_tau
    corr = correlation(liouvillian, rho_ss, a_op, b_op, taus)

    c0 = abs(corr.values[0])
    tail = np.abs(corr.values[-max(1, n_samples // 20):]).max()
    decayed = not (c0 > 0 and tail > 1e-6 * c0)
    if not decayed:
        run_warnings.append(
            f"correlation not decayed at tau_max (tail {tail / c0:.2e} of C(0)); "
            "spectrum carries truncation ringing"
        )

    weighted = np.array(corr.values, dtype=complex)
    weighted[0] *= 0.5
    power = 2.0 * d_tau * np.real(np.fft.fft(weighted))
    omegas = 2.0 * math.pi * np.fft.fftfreq(n_samples, d=d_tau)
    order = np.argsort(omegas)
    omegas = omegas[order]
    power = power[order]

    meta = dict(
        mode=mode,
        ordering=ordering,
        tau_max=tau_max,
        n_samples=n_samples,
        d_tau=d_tau,
        frequency_resolution=2.0 * math.pi / tau_max,
        c0=complex(corr.values[0]),
        propagation_side=corr.metadata["propagation_side"],
    )
    # The nonnegativity floor is a property of fully decayed emission
    # correlations; truncation ringing from an undecayed window (already
    # flagged above) legitimately dips below it.
    return SpectrumSeries(
        omegas, power, metadata=meta, warnings=run_warnings,
        enforce_floor=(ordering == "emission" and decayed),
    )


def spectrum_peaks(series: SpectrumSeries, min_relative_prominence: float = 0.01):
    """Local maxima of a spectrum at grid resolution.

    Peaks are detected with a prominence threshold relative to the spectrum's
    full range; returns a list of (omega, power) tuples sorted by frequency.
    """
    values = series.values
    span = values.max() - values.min()
    if span <= 0:
        return []
    idx = _prominent_peaks(values, min_relative_prominence * span)
    return [(float(series.omegas[i]), float(values[i])) for i in idx]


def _prominent_peaks(x: np.ndarray, threshold: float) -> np.ndarray:
    """Indices of the interior local maxima of ``x`` whose prominence is at
    least ``threshold``: ``scipy.signal.find_peaks(x, prominence=threshold)``
    without loading ``scipy.signal``.

    A flat top counts once, at ``(left + right) // 2``. Each side's base is the
    minimum between the peak and the nearest strictly higher sample on that
    side, or the array's end; the prominence is the height above the higher
    base. It is at most the height above ``x.min()``, so only maxima that high
    are scanned for their bases.
    """
    diffs = np.diff(x)
    steps = np.flatnonzero(diffs)  # x[j + 1] != x[j]
    rises = diffs[steps] > 0
    tops = rises[:-1] & ~rises[1:]  # a rise, equal samples, then a fall
    peaks = (steps[:-1][tops] + 1 + steps[1:][tops]) // 2
    kept = []
    for p in peaks[x[peaks] - x.min() >= threshold]:
        higher = np.flatnonzero(x > x[p])
        i = np.searchsorted(higher, p)
        lo = higher[i - 1] + 1 if i > 0 else 0
        hi = higher[i] if i < higher.size else x.size
        if x[p] - max(x[lo:p + 1].min(), x[p:hi].min()) >= threshold:
            kept.append(p)
    return np.array(kept, dtype=np.intp)


def g2(
    liouvillian: Liouvillian,
    rho0: DensityMatrix,
    taus,
    target: str = "resonator",
    normalization: str = "standard",
) -> CorrelationSeries:
    """Second-order coherence of the privileged mode or the qubit, referenced
    to the state ``rho0``.

    The regression rule is applied twice from rho0:
    G2(tau) = tr[O^dag O exp(L tau)(O rho0 O^dag)]. A stationary g2 passes
    ``steady_state(liouvillian)``; a transient one passes the state at its
    reference time, such as an initial state or ``evolve(...).final_state``.
    The ``normalization`` switch selects the denominator: "standard" divides
    by <O^dag O>^2, "first_order" by <O^dag O>, both in rho0.
    """
    if target not in ("resonator", "qubit"):
        raise ValueError("target must be 'resonator' or 'qubit'")
    if normalization not in ("standard", "first_order"):
        raise ValueError("normalization must be 'standard' or 'first_order'")
    taus = check_time_grid(taus)

    space = liouvillian.space
    if target == "resonator":
        op = annihilation(space, 0)
    else:
        if space.qubit_count < 1:
            raise ValueError("qubit target requires a qubit in the space")
        op = qubit_lowering(space)

    nbar = expectation(op.dag() @ op, rho0).real
    if nbar < DENOMINATOR_FLOOR:
        raise UndefinedCoherenceError(
            f"occupation {nbar:.3e} at the reference time is below {DENOMINATOR_FLOOR}"
        )

    seed = op.matrix @ rho0.matrix @ op.matrix.conj().T
    values, method, side = _regression(liouvillian, seed, op.dag() @ op, taus)

    denominator = nbar**2 if normalization == "standard" else nbar
    return CorrelationSeries(
        taus,
        values.real / denominator,
        metadata={
            "target": target,
            "normalization": normalization,
            "method": method,
            "propagation_side": side,
            "reference_occupation": nbar,
        },
    )


def imbalance(
    liouvillian: Liouvillian,
    rho0: DensityMatrix,
    times,
) -> ImbalanceSeries:
    """Per-mode photon numbers and normalized imbalance, propagated by ``evolve``."""
    space = liouvillian.space
    if space.n_modes != 2:
        raise ValueError("imbalance requires a two-mode space")
    traj = evolve(
        liouvillian,
        rho0,
        times,
        observables={
            "n1": number_operator(space, 0),
            "n2": number_operator(space, 1),
        },
    )
    n1 = traj.expectations["n1"].real
    n2 = traj.expectations["n2"].real
    return ImbalanceSeries(
        traj.times, n1, n2,
        metadata={
            "method": traj.method,
            "propagation_side": traj.propagation_side,
            "trace_drift": traj.trace_drift,
        },
    )
