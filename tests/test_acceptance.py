"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Structural thresholds chosen here (peak prominence levels,
long-time windows, sign-flip counts) are stated next to each assertion and
echoed by the run manifests of the corresponding presets.
"""

import json
import time

import numpy as np
import pytest
import scipy.linalg

from jtcqed import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DissipationParams,
    SpaceSpec,
    annihilation,
    basis_ket,
    build_dimensionless_hamiltonian,
    build_liouvillian,
    eigen_lowest,
    evolve,
    expectation,
    g2,
    identity,
    imbalance,
    liouvillian_from_operators,
    number_operator,
    power_spectrum,
    single_mode_window,
    spectrum_peaks,
    steady_state,
)
from jtcqed.cli import execute
from jtcqed.config import config_from_mapping
from jtcqed.presets import PRESETS

from conftest import random_density, random_hermitian, truncated_geometric

SQRT2 = np.sqrt(2.0)


def report(number: int, text: str, elapsed: float):
    print(f"ACCEPTANCE {number}: PASS — {text} ({elapsed:.1f}s)")


def test_criterion_1_thermal_fixture():
    start = time.perf_counter()
    space = SpaceSpec((5,), 0)
    h = 1.0 * number_operator(space, 0)
    diss = DissipationParams(kappa1=0.001, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=0.15)
    liou = build_liouvillian(h, diss)
    rho_ss = steady_state(liou)

    probs = truncated_geometric(5, 0.15)
    levels = np.arange(5)
    n_expected = (levels * probs).sum()
    n_measured = expectation(number_operator(space, 0), rho_ss).real
    assert abs(n_measured - n_expected) <= 1e-9

    g2_expected = (levels * (levels - 1) * probs).sum() / n_expected**2
    series = g2(liou, rho_ss, taus=np.array([0.0, 1.0]))
    assert abs(series.values[0] - g2_expected) <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"thermal occupation {n_measured:.6f} and g2(0) {series.values[0]:.6f} "
              f"match the truncated-geometric oracle to 1e-9", elapsed)


def test_criterion_2_propagator_equivalence(rng):
    start = time.perf_counter()
    spaces = [
        SpaceSpec((2,), 0), SpaceSpec((3,), 0), SpaceSpec((4,), 0),
        SpaceSpec((8,), 0), SpaceSpec((2,), 1), SpaceSpec((4,), 1),
        SpaceSpec((2, 2), 0), SpaceSpec((2, 2), 1), SpaceSpec((2, 4), 0),
        SpaceSpec((3, 2), 0),
    ]
    times = np.linspace(0.0, 100.0, 11)
    worst = 0.0
    for trial in range(20):
        space = spaces[trial % len(spaces)]
        h = random_hermitian(space, rng, scale=0.5)
        diss = DissipationParams(
            kappa1=rng.uniform(0.001, 0.05),
            kappa2=rng.uniform(0.001, 0.05),
            gamma=rng.uniform(0.001, 0.05),
            gamma_phi=rng.uniform(0.001, 0.05),
            n_th=rng.uniform(0.0, 0.3),
        )
        liou = build_liouvillian(h, diss)
        rho0 = random_density(space, rng)
        traj = evolve(liou, rho0, times, method="adaptive")
        d = space.total_dim
        vec0 = rho0.matrix.ravel(order="F")
        for t, state in zip(times, traj.states):
            oracle = (scipy.linalg.expm(liou.matrix * t) @ vec0).reshape((d, d), order="F")
            worst = max(worst, float(np.abs(state.matrix - oracle).max()))
    assert worst <= 1e-7
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(2, f"20 random models, adaptive vs exp(Lt) oracle, worst elementwise "
              f"difference {worst:.2e} <= 1e-7 over t in [0, 100]", elapsed)


def test_criterion_3_eigenscan_closed_forms(rng):
    start = time.perf_counter()
    space = SpaceSpec((2, 2), 1)
    h = build_dimensionless_hamiltonian(space, 0.0, 0.0)
    values = eigen_lowest(h, 5)
    assert np.abs(values - np.array([-0.5, 0.5, 0.5, 0.5, 1.5])).max() <= 1e-12

    h_coupled = build_dimensionless_hamiltonian(space, 0.3, 0.4)
    base = eigen_lowest(h_coupled, 5)
    for c in (-2.0, 0.7, 31.0):
        shifted = eigen_lowest(h_coupled + c * identity(space), 5)
        assert np.abs(shifted - (base + c)).max() <= 1e-10
    report(3, "uncoupled levels exact to 1e-12; shift invariance to 1e-10",
           time.perf_counter() - start)


def test_criterion_4_level_structure():
    start = time.perf_counter()
    space = SpaceSpec((2, 2), 1)
    grid = np.linspace(-1.0, 1.0, 201)

    # doublet splitting of the first excited levels at zero mismatch
    at_zero = eigen_lowest(build_dimensionless_hamiltonian(space, 0.1 / SQRT2, 0.0), 5)
    lower_split = at_zero[2] - at_zero[1]
    upper_split = at_zero[3] - at_zero[2]
    assert lower_split >= 0.02 and upper_split >= 0.02

    # mixing confined near zero mismatch at weak coupling, window widening
    # by >= 2x in the ultrastrong regime (measured ~0.11 -> ~0.87)
    weak = single_mode_window(0.1 / SQRT2, grid, space)
    strong = single_mode_window(1.0 / SQRT2, grid, space)
    assert weak.half_width > 0.0
    assert weak.mixing.max() > 1.5 * weak.threshold  # repulsion outside the window
    assert strong.half_width >= 2.0 * weak.half_width

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(4, f"doublet split ({lower_split:.3f}/{upper_split:.3f}); single-mode window "
              f"{weak.half_width:.2f} -> {strong.half_width:.2f} (x{strong.half_width / weak.half_width:.1f})",
           elapsed)


def _preset_spectrum(k: float):
    space = SpaceSpec((5, 5), 1)
    h = build_dimensionless_hamiltonian(space, k, 0.0, include_quadratic=False, j_override=0.0)
    liou = build_liouvillian(h, DissipationParams())
    rho_ss = steady_state(liou)
    return power_spectrum(liou, rho_ss, tau_max=10000.0, n_samples=16384)


def test_criterion_5_rabi_supersplitting():
    start = time.perf_counter()
    kappa = 0.001
    assert 10000.0 >= 10.0 / kappa

    doublet = _preset_spectrum(0.05 / SQRT2)
    dominant = spectrum_peaks(doublet, min_relative_prominence=0.6)
    assert len(dominant) == 2

    split = _preset_spectrum(0.05)
    peaks = spectrum_peaks(split, min_relative_prominence=0.01)
    assert len(peaks) >= 4

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(5, f"weak coupling: exactly 2 dominant peaks at "
              f"{[round(w, 3) for w, _ in dominant]}; k=0.05: {len(peaks)} peaks (>= 4)",
           elapsed)


def test_criterion_6_wiener_khinchin():
    start = time.perf_counter()
    fixtures = []

    cavity = SpaceSpec((6,), 0)
    h = 1.0 * number_operator(cavity, 0)
    diss = DissipationParams(kappa1=0.05, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=0.15)
    fixtures.append(("thermal cavity", build_liouvillian(h, diss)))

    # linear reference model: the quadratic block breaks photon parity and
    # statically displaces the mode, leaving a persistent (never-decaying)
    # elastic component in the correlation
    coupled = SpaceSpec((3, 3), 1)
    h2 = build_dimensionless_hamiltonian(coupled, 0.05 / SQRT2, 0.1, include_quadratic=False)
    diss2 = DissipationParams(kappa1=0.05, kappa2=0.05, gamma=0.05, gamma_phi=0.01, n_th=0.15)
    fixtures.append(("coupled model", build_liouvillian(h2, diss2)))

    errors = []
    for name, liou in fixtures:
        rho_ss = steady_state(liou)
        series = power_spectrum(liou, rho_ss, tau_max=2000.0, n_samples=8192)
        assert not series.warnings, f"{name}: decay check failed, fixture unusable"
        total = np.trapezoid(series.values, series.omegas)
        c0 = series.metadata["c0"].real
        rel = abs(total - 2.0 * np.pi * c0) / abs(2.0 * np.pi * c0)
        assert rel <= 0.02, f"{name}: integral off by {rel:.3%}"
        errors.append(rel)
    report(6, "spectrum integrates to 2*pi*C(0) within "
              f"{max(errors):.3%} on {len(fixtures)} decayed fixtures",
           time.perf_counter() - start)


def test_criterion_7_imbalance_suite(tmp_path):
    start = time.perf_counter()
    data = {}
    for name in ("fig4a", "fig4b", "fig4c"):
        for label, mapping in PRESETS[name].runs:
            execute(config_from_mapping(mapping), out_dir=str(tmp_path))
        rows = np.genfromtxt(tmp_path / f"{name}_imbalance.csv", delimiter=",", names=True)
        g2_rows = np.genfromtxt(tmp_path / f"{name}_g2.csv", delimiter=",", names=True)
        manifest = json.loads((tmp_path / f"{name}_imbalance.manifest.json").read_text())
        data[name] = (rows, g2_rows, manifest)

    # fig4a: oscillatory imbalance decaying toward zero
    z = data["fig4a"][0]["z"]
    flips = int(np.sum(np.diff(np.sign(z[np.isfinite(z)])) != 0))
    tail = z[int(0.8 * z.size):]
    assert flips >= 4
    assert np.nanmean(np.abs(tail)) <= 0.05
    assert data["fig4a"][2]["notes"]["z_long_mean"] is not None

    # fig4b: long-time imbalance bounded away from both 0 and 1
    z = data["fig4b"][0]["z"]
    tail = np.abs(z[int(0.8 * z.size):])
    assert 0.05 <= np.nanmin(tail) and np.nanmax(tail) <= 0.85
    plateau = float(np.nanmean(tail))

    # fig4c: self-trapping over the recorded window, plus photon blockade
    z = data["fig4c"][0]["z"]
    tail = z[int(0.8 * z.size):]
    assert np.nanmin(tail) >= 0.9
    g2r0 = float(data["fig4c"][1]["g2_resonator"][0])
    assert g2r0 < 0.5

    report(7, f"fig4a oscillatory ({flips} sign flips) and decayed; fig4b plateau "
              f"|z|~{plateau:.2f}; fig4c window min z {np.nanmin(tail):.3f} >= 0.9, "
              f"g2_r(0) = {g2r0:.2f} < 0.5", time.perf_counter() - start)


def test_criterion_8_cptp_suite(rng):
    start = time.perf_counter()
    space = SpaceSpec((2, 2), 1)
    times = np.linspace(0.0, 20.0, 6)
    checked_steady = 0
    for trial in range(100):
        h = random_hermitian(space, rng, scale=0.5)
        diss = DissipationParams(
            kappa1=rng.uniform(0.0, 0.1),
            kappa2=rng.uniform(0.0, 0.1),
            gamma=rng.uniform(0.0, 0.1),
            gamma_phi=rng.uniform(0.0, 0.1),
            n_th=rng.uniform(0.0, 0.5),
        )
        liou = build_liouvillian(h, diss)
        rho0 = random_density(space, rng)
        for method in ("adaptive", "expm"):
            traj = evolve(liou, rho0, times, method=method)
            assert traj.method == method
            assert traj.trace_drift <= 1e-8
            for state in traj.states:
                assert np.linalg.eigvalsh(state.matrix).min() >= -1e-7
        try:
            rho_ss = steady_state(liou, kernel_check="always")
        except DegenerateSteadyStateError:
            continue
        assert liou.stationarity_residual(rho_ss) <= 1e-10
        checked_steady += 1
    assert checked_steady >= 50  # dissipative draws dominate
    report(8, "100 random configs on both propagation paths: trace drift <= 1e-8, "
              f"positivity >= -1e-7, {checked_steady} unique steady states "
              "with residual <= 1e-10",
           time.perf_counter() - start)


@pytest.mark.slow
def test_criterion_9_truncation_convergence():
    start = time.perf_counter()
    k = 0.01 / SQRT2
    delta = 0.01
    times = np.linspace(0.0, 3000.0, 601)
    results = {}
    for dims in ((5, 5), (7, 7)):
        space = SpaceSpec(dims, 1)
        h = build_dimensionless_hamiltonian(space, k, delta)
        liou = build_liouvillian(h, DissipationParams())
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [1, 0], ["e"]))
        results[dims] = imbalance(liou, rho0, times)
    z5 = results[(5, 5)].z
    z7 = results[(7, 7)].z
    both = np.isfinite(z5) & np.isfinite(z7)
    sup = float(np.abs(z5[both] - z7[both]).max())
    assert sup < 0.01
    report(9, f"fig4a imbalance at [5,5] vs [7,7]: sup-norm difference {sup:.2e} < 1%",
           time.perf_counter() - start)
