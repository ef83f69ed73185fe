import os
import threading

import numpy as np
import pytest
import scipy.linalg

from jtcqed import _blas, analysis
from jtcqed import (
    DensityMatrix,
    DissipationParams,
    SpaceSpec,
    UndefinedCoherenceError,
    ValidationError,
    annihilation,
    basis_ket,
    build_dimensionless_hamiltonian,
    build_liouvillian,
    eigen_lowest,
    eigen_scan,
    find_reference_state,
    g2,
    imbalance,
    liouvillian_from_operators,
    number_operator,
    power_spectrum,
    single_mode_window,
    spectrum_peaks,
    steady_state,
)

from conftest import coherent_ket, truncated_geometric

SMALL = SpaceSpec((2, 2), 1)


def thermal_cavity(kappa=0.05, n_th=0.15, dim=5):
    space = SpaceSpec((dim,), 0)
    h = 1.0 * number_operator(space, 0)
    diss = DissipationParams(kappa1=kappa, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=n_th)
    return space, build_liouvillian(h, diss)


class TestEigenScan:
    def test_hopping_only_closed_form(self):
        # k = 0: the spectrum is set by the two-mode hopping quadratic form;
        # on [2,2] truncations the lowest five are exactly
        # (-1/2, 1/2-J, 1/2, 1/2+J, 3/2-J) with J = delta/2.
        grid = np.array([-0.8, -0.3, 0.0, 0.3, 0.8])
        table = eigen_scan(0.0, grid, 5, SMALL)
        for delta, row in zip(table.deltas, table.energies):
            j = abs(delta) / 2.0
            expected = np.sort([-0.5, 0.5 - j, 0.5, 0.5 + j, 1.5 - j])
            assert np.abs(row - expected).max() <= 1e-12

    def test_single_point_matches_direct_diagonalization(self):
        table = eigen_scan(0.3, [0.0], 5, SMALL)
        h = build_dimensionless_hamiltonian(SMALL, 0.3, 0.0)
        assert np.allclose(table.energies[0], eigen_lowest(h, 5), atol=1e-14)

    def test_rows_independent_of_grid_order(self):
        grid = np.array([0.4, -0.2, 0.1])
        forward = eigen_scan(0.2, grid, 4, SMALL)
        backward = eigen_scan(0.2, grid[::-1], 4, SMALL)
        assert np.allclose(forward.energies, backward.energies[::-1])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            eigen_scan(0.1, [], 5, SMALL)

    def test_two_builds_per_sweep(self, monkeypatch):
        # H(delta) is affine in delta: a sweep of any length builds it twice
        calls = []
        build = analysis.build_dimensionless_hamiltonian
        monkeypatch.setattr(
            analysis, "build_dimensionless_hamiltonian",
            lambda *args, **kwargs: calls.append(1) or build(*args, **kwargs),
        )
        grid = np.linspace(-1.0, 1.0, 9)
        eigen_scan(0.2, grid, 4, SMALL, j_override=0.3)
        assert len(calls) == 2
        single_mode_window(0.2, grid, SMALL)
        assert len(calls) == 4

    def test_row_is_one_point_scan(self):
        table = eigen_scan(0.2, [0.35], 5, SMALL, include_quadratic=False)
        row = analysis.eigen_row(0.2, 0.35, 5, SMALL, include_quadratic=False)
        assert np.array_equal(row, table.energies[0])

    def test_non_finite_model_rejected(self):
        with pytest.raises(ValidationError):
            eigen_scan(0.1, [0.0], 5, SMALL, j_override=float("nan"))

    def test_window_widens_with_coupling(self):
        grid = np.linspace(-1.0, 1.0, 81)
        weak = single_mode_window(0.1 / np.sqrt(2.0), grid, SMALL)
        strong = single_mode_window(1.0 / np.sqrt(2.0), grid, SMALL)
        assert weak.half_width > 0
        assert strong.half_width >= 2.0 * weak.half_width


def affine_split(space, k):
    h0 = build_dimensionless_hamiltonian(space, k, 0.0).matrix.real
    return h0, build_dimensionless_hamiltonian(space, k, 1.0).matrix.real - h0


@pytest.fixture(params=["threads", "serial"])
def sweep_mode(request, monkeypatch):
    """Four CPUs in the affinity mask (more chunks than cores), or the serial
    fallback of a process where no OpenBLAS library is found."""
    if request.param == "serial":
        monkeypatch.setattr(_blas, "setters", lambda: ())
    else:
        if not _blas.setters():
            pytest.skip("no OpenBLAS library in this process")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    return request.param


class TestSweepRunner:
    # Sides 8, 72 and 200: one batch for every grid, 25 and 3 matrices a batch.
    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_scan_is_per_point_eigvalsh(self, n, sweep_mode):
        space = SpaceSpec((n, n), 1)
        h0, h1 = affine_split(space, 0.1)
        for points in (1, 2, 3, 7, 201):
            grid = np.linspace(-1.0, 1.0, points)
            expected = np.array([np.linalg.eigvalsh(h0 + d * h1)[:5] for d in grid])
            assert np.array_equal(eigen_scan(0.1, grid, 5, space).energies, expected)

    def test_window_is_per_point_eigh(self, sweep_mode):
        space = SpaceSpec((10, 10), 1)
        grid = np.linspace(-1.0, 1.0, 41)
        h0, h1 = affine_split(space, 0.1 / np.sqrt(2.0))
        n2 = number_operator(space, 1).matrix.real
        expected = []
        for d in grid:
            vectors = np.linalg.eigh(h0 + d * h1)[1][:, :3]
            occ = np.einsum("ij,ik,kj->j", vectors, n2, vectors)
            expected.append(np.abs(occ - np.round(occ)).max())
        scan = single_mode_window(0.1 / np.sqrt(2.0), grid, space)
        assert np.array_equal(scan.mixing, expected)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        if not _blas.setters():
            pytest.skip("no OpenBLAS library in this process: no worker threads")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        eigvalsh = np.linalg.eigvalsh
        caller = threading.get_ident()

        def failing(a):
            if threading.get_ident() != caller:
                raise RuntimeError("worker failed")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            eigen_scan(0.1, np.linspace(-1.0, 1.0, 201), 5, SpaceSpec((10, 10), 1))


class TestPowerSpectrum:
    def test_thermal_lorentzian(self):
        # stationary thermal mode: C(tau) = nbar exp((i omega - kappa/2) tau),
        # so the spectrum is one Lorentzian at the mode frequency with
        # full width kappa
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        series = power_spectrum(liou, rho, tau_max=2000.0, n_samples=8192)
        assert not series.warnings
        peak = series.omegas[np.argmax(series.values)]
        assert abs(peak - 1.0) <= series.resolution
        half = series.values.max() / 2.0
        above = series.omegas[series.values >= half]
        fwhm = above.max() - above.min()
        assert abs(fwhm - 0.05) <= 2.0 * series.resolution

    def test_wiener_khinchin(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        series = power_spectrum(liou, rho, tau_max=2000.0, n_samples=8192)
        total = np.trapezoid(series.values, series.omegas)
        c0 = series.metadata["c0"].real
        assert abs(total - 2.0 * np.pi * c0) <= 0.02 * abs(2.0 * np.pi * c0)

    def test_peak_detection(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        series = power_spectrum(liou, rho, tau_max=2000.0, n_samples=8192)
        peaks = spectrum_peaks(series, min_relative_prominence=0.2)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - 1.0) <= series.resolution

    def test_short_window_warns(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        with pytest.warns(UserWarning):
            series = power_spectrum(liou, rho, tau_max=100.0, n_samples=1024)
        assert any("tau_max" in w for w in series.warnings)
        assert any("not decayed" in w for w in series.warnings)

    def test_as_printed_ordering_differs(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        emission = power_spectrum(liou, rho, tau_max=2000.0, n_samples=4096)
        printed = power_spectrum(
            liou, rho, tau_max=2000.0, n_samples=4096, ordering="as_printed"
        )
        # <a(tau) a(0)> on a thermal state is essentially zero: no line
        assert printed.values.max() < 0.01 * emission.values.max()

    def test_rejects_bad_sample_count(self):
        space, liou = thermal_cavity()
        rho = steady_state(liou)
        with pytest.raises(ValueError):
            power_spectrum(liou, rho, tau_max=100.0, n_samples=1000)


class TestG2:
    def test_coherent_state_is_poissonian(self):
        # no dynamics at all: the statistics are those of the state itself
        space = SpaceSpec((12,), 0)
        h = 0.0 * number_operator(space, 0)
        liou = liouvillian_from_operators(h, [])
        rho0 = DensityMatrix.from_pure(space, coherent_ket(12, 0.6))
        series = g2(liou, rho0, taus=np.array([0.0, 1.0]), settle_step=1.0, settle_cap=10.0)
        assert series.values[0] == pytest.approx(1.0, abs=1e-6)

    def test_single_photon_blockade(self):
        space, liou = thermal_cavity(kappa=0.05, n_th=0.0)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [1], []))
        series = g2(liou, rho0, taus=np.array([0.0, 1.0]), reference=(0.0, rho0))
        assert abs(series.values[0]) <= 1e-10

    def test_thermal_moments(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho_ss = steady_state(liou)
        series = g2(liou, rho_ss, taus=np.array([0.0, 5.0, 10.0]))
        probs = truncated_geometric(5, 0.15)
        n = np.arange(5)
        oracle = (n * (n - 1) * probs).sum() / ((n * probs).sum()) ** 2
        assert series.values[0] == pytest.approx(oracle, abs=1e-9)
        assert series.metadata["t_star"] == 0.0  # already stationary

    def test_decays_to_unity(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho_ss = steady_state(liou)
        taus = np.linspace(0.0, 400.0, 81)
        series = g2(liou, rho_ss, taus=taus)
        assert abs(series.values[-1] - 1.0) <= 0.05

    def test_first_order_normalization(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho_ss = steady_state(liou)
        taus = np.array([0.0, 1.0])
        standard = g2(liou, rho_ss, taus=taus)
        verbatim = g2(liou, rho_ss, taus=taus, normalization="first_order")
        nbar = standard.metadata["reference_occupation"]
        assert verbatim.values[0] == pytest.approx(standard.values[0] * nbar, rel=1e-10)

    def test_qubit_target_starts_blocked(self):
        space = SpaceSpec((2, 2), 1)
        h = build_dimensionless_hamiltonian(space, 0.1, 0.0)
        liou = build_liouvillian(h, DissipationParams())
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [0, 0], ["e"]))
        series = g2(
            liou, rho0, target="qubit", taus=np.array([0.0, 2.0]), reference=(0.0, rho0)
        )
        assert abs(series.values[0]) <= 1e-12  # two-level emitter

    def test_empty_mode_is_undefined(self):
        space, liou = thermal_cavity(kappa=0.05, n_th=0.0)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [0], []))
        with pytest.raises(UndefinedCoherenceError):
            g2(liou, rho0, taus=np.array([0.0, 1.0]), reference=(0.0, rho0))

    def test_one_propagator_per_grid(self, monkeypatch):
        h = build_dimensionless_hamiltonian(SMALL, 0.1, 0.2)
        liou = build_liouvillian(h, DissipationParams())
        rho0 = DensityMatrix.from_pure(SMALL, basis_ket(SMALL, [1, 0], ["e"]))
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(1) or expm(m))
        taus = np.linspace(0.0, 50.0, 11)
        runs = [
            g2(liou, rho0, target=target, taus=taus, reference=(0.0, rho0))
            for target in ("resonator", "qubit")
        ]
        assert len(calls) == 1
        assert [series.metadata["method"] for series in runs] == ["expm", "expm"]

    def test_settle_search_converges(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [2], []))
        t_star, rho_star, settled = find_reference_state(liou, rho0)
        assert settled
        assert t_star > 0
        assert liou.stationarity_residual(rho_star) <= 1e-4

    @pytest.mark.parametrize(
        "step, cap", [(np.nan, 100.0), (np.inf, 100.0), (1.0, np.nan)]
    )
    def test_settle_inputs_must_be_finite(self, step, cap):
        # nan and inf compare false against 0, so a sign check alone lets
        # them through; g2 passes its settle inputs on unchanged
        space, liou = thermal_cavity(kappa=0.05)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [2], []))
        with pytest.raises(ValueError, match="finite"):
            find_reference_state(liou, rho0, step=step, cap=cap)
        with pytest.raises(ValueError, match="finite"):
            g2(liou, rho0, taus=np.array([0.0, 1.0]), settle_step=step, settle_cap=cap)

    @pytest.mark.parametrize("whole", [False, True])
    def test_settle_search_matches_complex_oracle(self, whole):
        # complex coherences: (|1> + i|2>)/sqrt(2) of a cavity lies in its
        # coherence orders -1..1; the full model off resonance is one block
        if whole:
            space = SMALL
            h = build_dimensionless_hamiltonian(space, 0.1, 0.3)
            liou = build_liouvillian(h, DissipationParams(kappa1=0.05, kappa2=0.05, gamma=0.05))
            ket = basis_ket(space, [1, 0], ["e"]) + 1j * basis_ket(space, [0, 1], ["g"])
        else:
            space, liou = thermal_cavity(kappa=0.05)
            ket = basis_ket(space, [1], []) + 1j * basis_ket(space, [2], [])
        rho0 = DensityMatrix.from_pure(space, ket)
        x = rho0.matrix.ravel(order="F")
        assert (liou.invariant_block(x).size == x.size) == whole
        step, tol, cap = 20.0, 1e-6, 1000.0
        t_star, rho_star, settled = find_reference_state(liou, rho0, step, tol, cap)
        prop = scipy.linalg.expm(liou.matrix * step)
        d = space.total_dim
        t, rho_prev = 0.0, rho0.matrix
        while True:
            x = prop @ x
            rho_next = x.reshape((d, d), order="F")
            rho_next = (rho_next + rho_next.conj().T) / 2.0
            if np.abs(np.linalg.eigvalsh(rho_next - rho_prev)).sum() < tol:
                oracle = (t, rho_prev, True)
                break
            t += step
            rho_prev = rho_next
            if t >= cap:
                oracle = (t, rho_next, False)
                break
        assert (t_star, settled) == (oracle[0], oracle[2])
        assert np.abs(rho_star.matrix - oracle[1]).max() <= 1e-12


class TestImbalance:
    def build(self, k=0.05, delta=0.3, gamma_phi=0.01):
        space = SpaceSpec((3, 3), 1)
        h = build_dimensionless_hamiltonian(space, k, delta)
        liou = build_liouvillian(h, DissipationParams(gamma_phi=gamma_phi))
        return space, liou

    def test_initial_value(self):
        space, liou = self.build()
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [1, 0], ["e"]))
        series = imbalance(liou, rho0, np.linspace(0.0, 10.0, 6))
        assert series.z[0] == pytest.approx(1.0, abs=1e-9)
        assert series.n1[0] == pytest.approx(1.0, abs=1e-9)

    def test_exchange_symmetry(self):
        # k = 0 and delta = 0: the model is symmetric under mode swap, so a
        # symmetric initial state keeps zero imbalance forever
        space = SpaceSpec((3, 3), 1)
        h = build_dimensionless_hamiltonian(space, 0.0, 0.0)
        liou = build_liouvillian(h, DissipationParams())
        ket = basis_ket(space, [1, 0], ["g"]) + basis_ket(space, [0, 1], ["g"])
        rho0 = DensityMatrix.from_pure(space, ket)
        for method in ("adaptive", "expm"):
            series = imbalance(liou, rho0, np.linspace(0.0, 50.0, 26), method=method)
            assert series.metadata["method"] == method
            assert np.nanmax(np.abs(series.z)) <= 1e-8

    def test_records_resolved_method(self):
        space, liou = self.build()
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [1, 0], ["e"]))
        uniform = imbalance(liou, rho0, np.linspace(0.0, 10.0, 6))
        assert uniform.metadata["method"] == "expm"
        uneven = imbalance(liou, rho0, [0.0, 1.0, 4.0, 10.0])
        assert uneven.metadata["method"] == "adaptive"
        assert np.abs(uneven.z[-1] - uniform.z[-1]) <= 1e-7

    def test_vacuum_points_are_missing(self):
        space = SpaceSpec((3, 3), 1)
        h = build_dimensionless_hamiltonian(space, 0.0, 0.0)
        diss = DissipationParams(kappa1=0.05, kappa2=0.05, gamma=0.0, gamma_phi=0.0, n_th=0.0)
        liou = build_liouvillian(h, diss)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [0, 0], ["g"]))
        series = imbalance(liou, rho0, np.linspace(0.0, 10.0, 5))
        assert np.all(np.isnan(series.z))

    def test_bounds_and_total(self):
        space, liou = self.build(k=0.2, delta=0.5)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [2, 0], ["e"]))
        for method in ("adaptive", "expm"):
            series = imbalance(liou, rho0, np.linspace(0.0, 100.0, 51), method=method)
            assert series.metadata["method"] == method
            finite = series.z[np.isfinite(series.z)]
            assert np.abs(finite).max() <= 1.0
            assert series.n1.min() >= -1e-10
            assert series.n2.min() >= -1e-10
            assert np.allclose(series.n_total, series.n1 + series.n2)
