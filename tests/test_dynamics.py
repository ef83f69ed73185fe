import warnings

import numpy as np
import pytest
import scipy.linalg

from jtcqed import _blas, dynamics
from jtcqed import (
    DegenerateSteadyStateError,
    DensityMatrix,
    DissipationParams,
    NonStationaryStateError,
    QOperator,
    SpaceSpec,
    ValidationError,
    annihilation,
    basis_ket,
    build_dimensionless_hamiltonian,
    build_liouvillian,
    correlation,
    evolve,
    expectation,
    g2,
    identity,
    liouvillian_from_operators,
    number_operator,
    pauli,
    steady_state,
)

from conftest import random_density, random_hermitian, truncated_geometric

CAVITY = SpaceSpec((5,), 0)
SMALL = SpaceSpec((2, 2), 1)


def thermal_cavity(kappa=0.001, n_th=0.15, omega=1.0, dim=5):
    space = SpaceSpec((dim,), 0)
    h = omega * number_operator(space, 0)
    diss = DissipationParams(kappa1=kappa, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=n_th)
    return space, build_liouvillian(h, diss)


class TestBuildLiouvillian:
    def test_unitary_limit(self, rng):
        h = random_hermitian(SMALL, rng)
        diss = DissipationParams(kappa1=0.0, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=0.0)
        liou = build_liouvillian(h, diss)
        rho = random_density(SMALL, rng)
        expected = -1j * (h.matrix @ rho.matrix - rho.matrix @ h.matrix)
        assert np.allclose(liou.apply(rho.matrix), expected, atol=1e-13)
        eigs = np.linalg.eigvals(liou.matrix)
        assert np.abs(eigs.real).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        from jtcqed import QOperator

        m = np.zeros((8, 8), dtype=complex)
        m[0, 3] = 1.0
        with pytest.raises(ValidationError):
            build_liouvillian(QOperator(SMALL, m), DissipationParams())

    def test_non_hermitian_generator_has_no_real_propagator(self):
        # the constructor itself does not check H; the real-basis propagator does
        m = np.zeros((8, 8), dtype=complex)
        m[0, 3] = 1.0
        liou = dynamics.Liouvillian(SMALL, QOperator(SMALL, m), [])
        with pytest.raises(ValidationError):
            liou.propagator(0.5, np.arange(SMALL.total_dim**2))

    def test_hermiticity_defect_within_tolerance_is_accepted(self, rng):
        # V D V^dag leaves a defect of order eps; the added anti-Hermitian
        # part puts it at 1e-13 relative, inside is_hermitian's tolerance but
        # far above rounding in the generator's Hermitian-basis form
        v, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        m = v @ np.diag(rng.uniform(-1.0, 1.0, 8)) @ v.conj().T
        m = m + 1e-13 * np.abs(m).max() * 1j * random_hermitian(SMALL, rng).matrix
        h = QOperator(SMALL, m)
        assert h.is_hermitian() and not np.array_equal(m, m.conj().T)
        diss = DissipationParams(kappa1=0.05, kappa2=0.05, gamma=0.05)
        liou = build_liouvillian(h, diss)
        raw = dynamics.Liouvillian(SMALL, h, liou.collapse_ops, diss)
        with pytest.raises(ValidationError):
            steady_state(raw)
        for built in (liou, liouvillian_from_operators(h, liou.collapse_ops, diss)):
            rho = steady_state(built)
            assert built.stationarity_residual(rho) <= 1e-10
            assert built.propagator(0.5, np.arange(SMALL.total_dim**2)).dtype == np.float64

    def test_trace_row_annihilates_generator(self, rng):
        h = build_dimensionless_hamiltonian(SMALL, 0.2, 0.3)
        liou = build_liouvillian(h, DissipationParams())
        d = SMALL.total_dim
        trace_row = np.eye(d, dtype=complex).ravel(order="F")
        assert np.abs(trace_row @ liou.matrix).max() <= 1e-12

    def test_no_positive_real_part(self):
        h = build_dimensionless_hamiltonian(SMALL, 0.1, 0.2)
        liou = build_liouvillian(h, DissipationParams())
        assert np.linalg.eigvals(liou.matrix).real.max() <= 1e-10

    def test_matrix_matches_elementwise_action(self, rng):
        # reference: the Lindblad formula -i[H, X] + sum_k (c X c^dag - {c^dag c, X}/2)
        h = random_hermitian(SMALL, rng)
        n = SMALL.total_dim

        def random_matrix():
            return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

        cs = [random_matrix() for _ in range(2)]
        liou = liouvillian_from_operators(h, [QOperator(SMALL, c) for c in cs])
        x = random_matrix()
        expected = -1j * (h.matrix @ x - x @ h.matrix)
        for c in cs:
            cdc = c.conj().T @ c
            expected += c @ x @ c.conj().T - 0.5 * (cdc @ x + x @ cdc)
        assert np.abs(liou.apply(x) - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_sparse_matches_kron_formula(self, rng):
        # reference: the dense Kronecker assembly, in the same operation order
        h = random_hermitian(SMALL, rng)
        n = SMALL.total_dim
        cs = [
            QOperator(SMALL, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            for _ in range(2)
        ]
        liou = liouvillian_from_operators(h, cs)
        eye = np.eye(n, dtype=complex)
        m = -1j * (np.kron(eye, h.matrix) - np.kron(h.matrix.T, eye))
        for c in cs:
            cdc = c.matrix.conj().T @ c.matrix
            m += np.kron(c.matrix.conj(), c.matrix)
            m -= 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
        assert np.array_equal(liou.sparse.toarray(), m)
        assert np.array_equal(liou.matrix, m)
        assert not liou.matrix.flags.writeable


BLOCK_SPACE = SpaceSpec((3, 3), 1)


def levels(op):
    """Integer eigenvalues of a diagonal operator, in basis order."""
    return np.rint(np.diag(op.matrix).real).astype(int)


def sector_partition(labels):
    """The partition of superoperator indices by a label, as a set of sets."""
    return {frozenset(np.flatnonzero(labels == v)) for v in np.unique(labels)}


class TestInvariantBlocks:
    def blocks(self, **model):
        h = build_dimensionless_hamiltonian(BLOCK_SPACE, 0.05 / np.sqrt(2.0), **model)
        liou = build_liouvillian(h, DissipationParams())
        return liou, {frozenset(block) for block in liou.blocks}

    def test_linear_model_splits_by_parity(self):
        _, blocks = self.blocks(delta=0.0, include_quadratic=False, j_override=0.5)
        n1, n2 = (levels(number_operator(BLOCK_SPACE, j)) for j in (0, 1))
        parity = (-1) ** (n1 + n2) * levels(pauli(BLOCK_SPACE, "z"))
        side = BLOCK_SPACE.total_dim**2
        assert sorted(len(block) for block in blocks) == [side // 2, side // 2]
        assert blocks == sector_partition(np.outer(parity, parity).ravel(order="F"))

    def test_decoupled_mode_splits_by_coherence_order(self):
        # J = delta = 0: mode 2 only feels its own bath, which conserves n2 - n2'
        _, blocks = self.blocks(delta=0.0)
        n2 = levels(number_operator(BLOCK_SPACE, 1))
        assert len(blocks) == 2 * 3 - 1
        # rho[i, j] sits at column-major index i + j d
        assert blocks == sector_partition(np.subtract.outer(n2, n2).ravel(order="F"))

    def test_full_model_off_resonance_is_one_block(self):
        liou, blocks = self.blocks(delta=0.3)
        assert len(blocks) == 1
        rho0 = DensityMatrix.from_pure(BLOCK_SPACE, basis_ket(BLOCK_SPACE, [1, 0], ["e"]))
        assert liou.invariant_block(rho0.matrix.ravel(order="F")).size == BLOCK_SPACE.total_dim**2

    def test_one_block_keeps_no_dense_superoperator(self):
        # the steady state and a correlation densify only what they solve with
        liou, _ = self.blocks(delta=0.3)
        rho = steady_state(liou)
        a1 = annihilation(BLOCK_SPACE, 0)
        correlation(liou, rho, a1.dag(), a1, np.linspace(0.0, 20.0, 5))
        assert liou._matrix is None

    def test_invariant_block_is_union_of_held_blocks(self):
        liou, _ = self.blocks(delta=0.0, include_quadratic=False, j_override=0.5)
        x = np.zeros(BLOCK_SPACE.total_dim**2, dtype=complex)
        x[0] = 1.0  # a population: the parity-even block
        block = liou.invariant_block(x)
        assert block.size == x.size // 2 and block[0] == 0
        x[1] = 1e-300  # rho[1, 0]: parity-odd, held however small
        assert liou.invariant_block(x).size == x.size


def expm_scan(liou, x0, n_steps, dt, weight_rows=None, keep_states=False, *, block, final=True):
    """dynamics._expm_scan on x0 and weight rows restricted to ``block``, taken
    to its real coordinates and back as ``dynamics._propagate`` does: returns
    (values, states, x_final) on the block."""
    u = liou._hermitian_basis(block)
    values = weights = None
    if weight_rows is not None:
        weights = dynamics._real_if_exact(weight_rows @ u)
        values = np.empty((weight_rows.shape[0], n_steps + 1), dtype=complex)
        values[:, 0] = weight_rows @ x0
    ys, y_final = dynamics._expm_scan(
        liou, dynamics._real_if_exact(u.conj().T @ x0), n_steps, dt, weights, values,
        keep_states, block=block, final=final,
    )
    states = None if ys is None else list((u @ ys).T)
    return values, states, None if y_final is None else u @ y_final


class TestBlockPropagation:
    """Block-restricted scans against a full-space one-shot expm(L t) oracle."""

    def linear(self):
        h = build_dimensionless_hamiltonian(
            BLOCK_SPACE, 0.1, 0.0, include_quadratic=False, j_override=0.5
        )
        return build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01))

    def oracle(self, liou, x0, t):
        return scipy.linalg.expm(liou.matrix * t) @ x0

    def assert_propagator_matches_complex_expm(self, liou, dt, block):
        oracle = scipy.linalg.expm(liou.sparse[block][:, block].toarray() * dt)
        real_prop = liou.propagator(dt, block)
        assert real_prop.dtype == np.float64 and not real_prop.flags.writeable
        u = liou._hermitian_basis(block).toarray()
        prop = u @ real_prop @ u.conj().T
        assert np.abs(prop - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_propagator_matches_complex_expm(self):
        # the whole space of a one-block full model, and both parity blocks
        h = build_dimensionless_hamiltonian(BLOCK_SPACE, 0.1, 0.3)
        full = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01))
        assert len(full.blocks) == 1
        self.assert_propagator_matches_complex_expm(full, 7.0, full.blocks[0])
        liou = self.linear()
        for block in liou.blocks:
            self.assert_propagator_matches_complex_expm(liou, 7.0, block)

    def test_open_block_seed_propagates_on_closed_union(self):
        # J = delta = 0: a2 rho_ss lies in one coherence-order sector of mode 2,
        # which transposition maps onto the opposite sector
        h = build_dimensionless_hamiltonian(BLOCK_SPACE, 0.05, 0.0)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01))
        rho = steady_state(liou)
        a2 = annihilation(BLOCK_SPACE, 1)
        x0 = (a2.matrix @ rho.matrix).ravel(order="F")
        sector = next(b for b in liou.blocks if np.isin(np.flatnonzero(x0), b).all())
        block = liou.invariant_block(x0)
        assert block.size == 2 * sector.size
        with pytest.raises(ValidationError):
            liou.propagator(7.0, sector)
        self.assert_propagator_matches_complex_expm(liou, 7.0, block)
        taus = np.linspace(0.0, 40.0, 9)
        series = correlation(liou, rho, a2.dag(), a2, taus, method="expm")
        assert series.metadata["propagation_side"] == block.size
        row = a2.dag().matrix.T.ravel(order="F")
        oracle = np.array([row @ self.oracle(liou, x0, t) for t in taus])
        assert np.abs(series.values - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_correlation_matches_oracle(self):
        liou = self.linear()
        rho = steady_state(liou)
        a = annihilation(BLOCK_SPACE, 0)
        taus = np.linspace(0.0, 40.0, 9)
        series = correlation(liou, rho, a.dag(), a, taus, method="expm")
        side = BLOCK_SPACE.total_dim**2
        assert series.metadata["propagation_side"] == side // 2
        x0 = (a.matrix @ rho.matrix).ravel(order="F")
        row = a.dag().matrix.T.ravel(order="F")
        oracle = np.array([row @ self.oracle(liou, x0, t) for t in taus])
        assert np.abs(series.values - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_evolve_matches_oracle(self, monkeypatch):
        liou = self.linear()
        d = BLOCK_SPACE.total_dim
        rho0 = DensityMatrix.from_pure(BLOCK_SPACE, basis_ket(BLOCK_SPACE, [1, 0], ["e"]))
        x0 = rho0.matrix.ravel(order="F")
        times = np.linspace(0.0, 40.0, 9)
        traj = evolve(liou, rho0, times, method="expm")
        assert traj.propagation_side == d * d // 2
        for t, state in zip(times, traj.states):
            oracle = self.oracle(liou, x0, t).reshape((d, d), order="F")
            assert np.abs(state.matrix - oracle).max() <= 1e-12
        # values-only on giant steps: the final state is embedded back too
        monkeypatch.setattr(dynamics, "_block_size", lambda side, steps, n: 4)
        n1 = number_operator(BLOCK_SPACE, 0)
        traj = evolve(liou, rho0, times, method="expm", observables={"n1": n1})
        oracle = self.oracle(liou, x0, times[-1]).reshape((d, d), order="F")
        assert np.abs(traj.final_state.matrix - oracle).max() <= 1e-12
        assert traj.expectations["n1"][-1] == pytest.approx(
            np.trace(n1.matrix @ oracle), abs=1e-12
        )

    def test_adaptive_evolve_runs_on_parity_block(self):
        liou = self.linear()
        d = BLOCK_SPACE.total_dim
        rho0 = DensityMatrix.from_pure(BLOCK_SPACE, basis_ket(BLOCK_SPACE, [1, 0], ["e"]))
        times = np.linspace(0.0, 40.0, 9)
        adaptive = evolve(liou, rho0, times, method="adaptive")
        exact = evolve(liou, rho0, times, method="expm")
        assert adaptive.propagation_side == exact.propagation_side == d * d // 2
        for sa, se in zip(adaptive.states, exact.states):
            assert np.abs(sa.matrix - se.matrix).max() <= 1e-7

    def test_adaptive_correlation_matches_oracle(self):
        # a non-uniform delay grid: the complex seed a rho_ss on its parity
        # block, integrated adaptively
        liou = self.linear()
        rho = steady_state(liou)
        a = annihilation(BLOCK_SPACE, 0)
        taus = np.array([0.0, 1.0, 3.0, 7.0, 15.0, 40.0])
        series = correlation(liou, rho, a.dag(), a, taus)
        assert series.metadata["method"] == "adaptive"
        assert series.metadata["propagation_side"] == BLOCK_SPACE.total_dim**2 // 2
        x0 = (a.matrix @ rho.matrix).ravel(order="F")
        row = a.dag().matrix.T.ravel(order="F")
        oracle = np.array([row @ self.oracle(liou, x0, t) for t in taus])
        assert np.abs(series.values - oracle).max() <= 1e-7 * np.abs(oracle).max()

    def test_adaptive_rhs_is_real_generator(self, monkeypatch):
        # the adaptive right-hand side is the real block generator, never the
        # complex whole-space mat-vec of Liouvillian.apply
        liou = self.linear()
        rho0 = DensityMatrix.from_pure(BLOCK_SPACE, basis_ket(BLOCK_SPACE, [1, 0], ["e"]))
        calls = []
        apply = dynamics.Liouvillian.apply
        monkeypatch.setattr(
            dynamics.Liouvillian, "apply", lambda self, mat: calls.append(1) or apply(self, mat)
        )
        traj = evolve(liou, rho0, [0.0, 1.0, 3.0, 7.0])
        assert traj.method == "adaptive"
        assert calls == []

    def test_discarded_final_state_is_not_stepped(self, rng, monkeypatch):
        liou = self.linear()
        x0 = random_density(BLOCK_SPACE, rng).matrix.ravel(order="F")
        rows = rng.standard_normal((1, x0.size)).astype(complex)
        monkeypatch.setattr(dynamics, "_block_size", lambda side, steps, n: 4)
        whole = np.arange(x0.size)
        kept = expm_scan(liou, x0, 11, 0.7, rows, block=whole)
        dropped = expm_scan(liou, x0, 11, 0.7, rows, block=whole, final=False)
        assert dropped[2] is None
        assert np.array_equal(kept[0], dropped[0])

    def test_propagator_kept_per_block(self, monkeypatch):
        liou = self.linear()
        even, odd = liou.blocks if liou.blocks[0][0] == 0 else liou.blocks[::-1]
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(
            scipy.linalg, "expm", lambda m: calls.append((m.shape, m.dtype)) or expm(m)
        )
        first = liou.propagator(0.5, even)
        assert liou.propagator(0.5, even.copy()) is first
        assert liou.propagator(0.5, odd) is not first
        full = liou.propagator(0.5, np.arange(2 * even.size))
        assert [shape for shape, _ in calls] == [
            (even.size,) * 2, (odd.size,) * 2, (2 * even.size,) * 2
        ]
        assert all(dtype == np.float64 for _, dtype in calls)
        assert np.abs(full[np.ix_(odd, odd)] - liou.propagator(0.5, odd)).max() <= 1e-14


class TestEvolve:
    def test_unitary_preserves_purity(self, rng):
        h = random_hermitian(SMALL, rng)
        diss = DissipationParams(kappa1=0.0, kappa2=0.0, gamma=0.0, gamma_phi=0.0, n_th=0.0)
        liou = build_liouvillian(h, diss)
        rho0 = DensityMatrix.from_pure(SMALL, basis_ket(SMALL, [1, 0], ["e"]))
        for method in ("adaptive", "expm"):
            traj = evolve(liou, rho0, np.linspace(0.0, 20.0, 11), method=method)
            assert traj.method == method
            purities = [s.purity() for s in traj.states]
            assert np.abs(np.array(purities) - 1.0).max() <= 1e-8

    def test_trace_preserved(self, rng):
        h = build_dimensionless_hamiltonian(SMALL, 0.3, 0.5)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.02))
        rho0 = random_density(SMALL, rng)
        for method in ("adaptive", "expm"):
            traj = evolve(liou, rho0, np.linspace(0.0, 50.0, 26), method=method)
            assert traj.method == method
            assert traj.trace_drift <= 1e-8
            for state in traj.states:
                assert abs(np.trace(state.matrix) - 1.0) <= 1e-9

    def test_matches_exponential_oracle(self, rng):
        # Oracle: one-shot expm(L t) on the vectorized state at each time,
        # independent of both production propagation paths.
        h = build_dimensionless_hamiltonian(SMALL, 0.15, 0.4)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.01, kappa2=0.02, gamma=0.01))
        rho0 = DensityMatrix.from_pure(SMALL, basis_ket(SMALL, [1, 0], ["e"]))
        times = np.linspace(0.0, 40.0, 9)
        traj = evolve(liou, rho0, times, method="adaptive")
        vec0 = rho0.matrix.ravel(order="F")
        for t, state in zip(times, traj.states):
            oracle = (scipy.linalg.expm(liou.matrix * t) @ vec0).reshape((8, 8), order="F")
            assert np.abs(state.matrix - oracle).max() <= 1e-7

    def test_expm_path_matches_adaptive(self, rng):
        h = build_dimensionless_hamiltonian(SMALL, 0.2, 0.3)
        liou = build_liouvillian(h, DissipationParams())
        rho0 = random_density(SMALL, rng)
        times = np.linspace(0.0, 30.0, 16)
        t_a = evolve(liou, rho0, times, method="adaptive")
        t_e = evolve(liou, rho0, times, method="expm")
        for sa, se in zip(t_a.states, t_e.states):
            assert np.abs(sa.matrix - se.matrix).max() <= 1e-7

    def test_observable_recording(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [2], []))
        times = np.linspace(0.0, 100.0, 21)
        for method in ("adaptive", "expm"):
            traj = evolve(
                liou, rho0, times, method=method, observables={"n": number_operator(space, 0)}
            )
            assert traj.method == method
            assert traj.states is None
            n = traj.expectations["n"].real
            assert n[0] == pytest.approx(2.0, abs=1e-9)
            assert n[-1] < n[0]  # relaxing toward the thermal value
            assert traj.final_state.space == space

    def test_time_grid_validation(self, rng):
        _, liou = thermal_cavity()
        rho0 = random_density(CAVITY, rng)
        with pytest.raises(ValueError):
            evolve(liou, rho0, [1.0, 2.0])
        with pytest.raises(ValueError):
            evolve(liou, rho0, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve(liou, rho0, [0.0, 1.0, 3.0], method="expm")


class TestMethodResolution:
    def build(self):
        h = build_dimensionless_hamiltonian(SMALL, 0.2, 0.3)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.02))
        rho0 = DensityMatrix.from_pure(SMALL, basis_ket(SMALL, [1, 0], ["e"]))
        return liou, rho0

    def test_uniform_grid_takes_expm(self):
        liou, rho0 = self.build()
        assert evolve(liou, rho0, np.linspace(0.0, 20.0, 5)).method == "expm"

    def test_non_uniform_grid_takes_adaptive(self):
        liou, rho0 = self.build()
        assert evolve(liou, rho0, [0.0, 1.0, 3.0, 7.0]).method == "adaptive"

    def test_short_grid_takes_adaptive(self):
        liou, rho0 = self.build()
        assert evolve(liou, rho0, [0.0, 5.0]).method == "adaptive"

    def test_above_dense_limit_takes_adaptive(self, monkeypatch):
        liou, rho0 = self.build()
        monkeypatch.setattr(dynamics, "DENSE_MAX_SIDE", SMALL.total_dim**2 - 1)
        traj = evolve(liou, rho0, np.linspace(0.0, 20.0, 5))
        assert traj.method == "adaptive"

    def test_delay_scans_ignore_dense_limit(self, monkeypatch):
        # correlations keep exponential stepping above the limit: a long
        # spectrum window integrates several times slower adaptively
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        monkeypatch.setattr(dynamics, "DENSE_MAX_SIDE", space.total_dim**2 - 1)
        series = correlation(liou, rho, a.dag(), a, np.linspace(0.0, 10.0, 5))
        assert series.metadata["method"] == "expm"

    def test_propagator_kept_per_step(self, monkeypatch):
        liou, _ = self.build()
        calls = []
        expm = scipy.linalg.expm
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: calls.append(1) or expm(m))
        whole = np.arange(liou.space.total_dim**2)
        first = liou.propagator(5.0, whole)
        assert liou.propagator(5.0, whole) is first
        assert len(calls) == 1
        second = liou.propagator(2.0, whole)
        assert len(calls) == 2
        assert np.allclose(second @ second, liou.propagator(4.0, whole))


class TestExpmScan:
    BLOCK = 4

    def scan_setup(self, rng, n_rows):
        h = build_dimensionless_hamiltonian(SMALL, 0.2, 0.3)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01))
        x0 = random_density(SMALL, rng).matrix.ravel(order="F")
        rows = rng.standard_normal((n_rows, x0.size)) + 1j * rng.standard_normal((n_rows, x0.size))
        return liou, x0, rows

    @pytest.mark.parametrize("n_rows", [1, 2])
    @pytest.mark.parametrize("n_steps", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_giant_steps_match_chain(self, rng, monkeypatch, n_steps, n_rows):
        # scans shorter than the forced block run the chain; the others
        # take giant steps
        liou, x0, rows = self.scan_setup(rng, n_rows)
        dt = 0.7
        whole = np.arange(x0.size)
        prop = scipy.linalg.expm(liou.sparse[whole][:, whole].toarray() * dt)
        chain = [x0]
        for _ in range(n_steps):
            chain.append(prop @ chain[-1])
        expected = rows @ np.array(chain).T
        monkeypatch.setattr(dynamics, "_block_size", lambda side, steps, n: self.BLOCK)
        values, states, x_final = expm_scan(
            liou, x0, n_steps, dt, weight_rows=rows, block=whole
        )
        assert states is None
        scale = np.abs(expected).max()
        assert np.abs(values - expected).max() <= 1e-13 * scale
        assert np.abs(x_final - chain[-1]).max() <= 1e-13 * np.abs(chain[-1]).max()

    @pytest.mark.parametrize("block_size", [None, BLOCK])
    def test_non_hermitian_seed_matches_complex_oracle(self, rng, monkeypatch, block_size):
        # the spectrum seed a1 rho_ss on its parity block, complex weight rows:
        # the chain (block_size None) and forced giant steps against complex expm
        h = build_dimensionless_hamiltonian(
            SMALL, 0.1, 0.0, include_quadratic=False, j_override=0.5
        )
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01))
        a1 = annihilation(SMALL, 0)
        x0 = (a1.matrix @ steady_state(liou).matrix).ravel(order="F")
        block = liou.invariant_block(x0)
        assert block.size < x0.size
        x0 = x0[block]
        rows = rng.standard_normal((2, x0.size)) + 1j * rng.standard_normal((2, x0.size))
        n_steps, dt = 2 * self.BLOCK + 3, 0.7
        prop = scipy.linalg.expm(liou.sparse[block][:, block].toarray() * dt)
        chain = [x0]
        for _ in range(n_steps):
            chain.append(prop @ chain[-1])
        expected = rows @ np.array(chain).T
        monkeypatch.setattr(
            dynamics, "_block_size", lambda side, steps, n: block_size or steps + 1
        )
        values, _, x_final = expm_scan(
            liou, x0, n_steps, dt, weight_rows=rows, block=block
        )
        assert np.abs(values - expected).max() <= 1e-12 * np.abs(expected).max()
        assert np.abs(x_final - chain[-1]).max() <= 1e-12 * np.abs(chain[-1]).max()

    def test_kept_states_take_the_chain(self, rng, monkeypatch):
        liou, x0, rows = self.scan_setup(rng, 1)
        sizes = []
        monkeypatch.setattr(
            dynamics, "_block_size", lambda side, steps, n: sizes.append(steps) or self.BLOCK
        )
        whole = np.arange(x0.size)
        _, states, x_final = expm_scan(
            liou, x0, 9, 0.7, rows, keep_states=True, block=whole
        )
        assert sizes == []
        assert len(states) == 10 and np.array_equal(states[-1], x_final)
        prop = scipy.linalg.expm(liou.sparse[whole][:, whole].toarray() * 0.7)
        expected = x0
        for state in states:
            assert np.abs(state - expected).max() <= 1e-13 * np.abs(expected).max()
            expected = prop @ expected

    def test_block_size_rule(self):
        # 121-point transient scans run the chain; 16384-delay spectra take
        # power-of-two giant steps no longer than the superoperator side
        for n_rows in (1, 2):
            assert dynamics._block_size(1024, 120, n_rows) == 121
        for side in (1024, 2500):
            m = dynamics._block_size(side, 16383, 1)
            assert 2 <= m <= min(side, 16383)
            assert m & (m - 1) == 0
        # the chain holds n + 1 baby states, so it is picked only for short
        # scans: from n = 4 side on, m = 16 alone costs less than the chain
        for side in (16, 64, 256, 1024, 2500):
            for n_rows in (1, 2, 3):
                chains = [
                    n for n in range(1, 4 * side)
                    if dynamics._block_size(side, n, n_rows) > n
                ]
                assert max(chains) + 1 <= 2 * side

    def test_short_g2_scan_makes_no_matrix_power(self, monkeypatch):
        h = build_dimensionless_hamiltonian(SMALL, 0.2, 0.3)
        liou = build_liouvillian(h, DissipationParams(kappa1=0.02, kappa2=0.02))
        rho0 = DensityMatrix.from_pure(SMALL, basis_ket(SMALL, [1, 0], ["e"]))
        calls = []
        matrix_power = np.linalg.matrix_power
        monkeypatch.setattr(
            np.linalg, "matrix_power", lambda a, n: calls.append(n) or matrix_power(a, n)
        )
        series = g2(liou, rho0, taus=np.linspace(0.0, 600.0, 121), reference=(0.0, rho0))
        assert series.metadata["method"] == "expm"
        assert calls == []


def blas_counts():
    # openblas_set_num_threads_local returns the count it replaces
    counts = []
    for fn in _blas.setters():
        counts.append(fn(1))
        fn(counts[-1])
    return counts


class TestOneThreadRule:
    """Dense work on blocks up to ONE_THREAD_MAX_SIDE runs on one BLAS thread."""

    def test_propagation_follows_side_limit(self, monkeypatch):
        if not _blas.setters():
            pytest.skip("no OpenBLAS library in this process")
        h = build_dimensionless_hamiltonian(
            BLOCK_SPACE, 0.1, 0.0, include_quadratic=False, j_override=0.5
        )
        diss = DissipationParams(kappa1=0.02, kappa2=0.01, gamma=0.01)
        rho0 = DensityMatrix.from_pure(BLOCK_SPACE, basis_ket(BLOCK_SPACE, [1, 0], ["e"]))
        a = annihilation(BLOCK_SPACE, 0)
        times = np.linspace(0.0, 40.0, 9)
        seen = []
        expm, real_product = scipy.linalg.expm, dynamics._real_product
        monkeypatch.setattr(
            scipy.linalg, "expm", lambda m: seen.append(("expm", blas_counts())) or expm(m)
        )
        monkeypatch.setattr(
            dynamics, "_real_product",
            lambda x, prop: seen.append(("product", blas_counts())) or real_product(x, prop),
        )
        default = blas_counts()
        side = BLOCK_SPACE.total_dim**2 // 2  # a parity block
        for limit, expected in ((side, [1] * len(default)), (side - 1, default)):
            monkeypatch.setattr(dynamics, "ONE_THREAD_MAX_SIDE", limit)
            liou = build_liouvillian(h, diss)
            rho = steady_state(liou)
            seen.clear()
            assert evolve(liou, rho0, times, method="expm").propagation_side == side
            series = correlation(liou, rho, a.dag(), a, times, method="expm")
            assert series.metadata["propagation_side"] == side
            names = [name for name, _ in seen]
            assert names.count("expm") == 2 and "product" in names
            assert all(counts == expected for _, counts in seen)
            assert blas_counts() == default

    def test_counts_restored_when_scan_raises(self):
        # a directly built Liouvillian with a non-Hermitian H: its real
        # generator raises inside the scan's one-thread block
        m = np.zeros((8, 8), dtype=complex)
        m[0, 3] = 1.0
        liou = dynamics.Liouvillian(SMALL, QOperator(SMALL, m), [])
        before = blas_counts()
        with pytest.raises(ValidationError):
            dynamics._expm_scan(
                liou, np.eye(8).ravel(order="F"), 3, 0.5, block=np.arange(64)
            )
        assert _blas._holders == 0
        assert blas_counts() == before

    def test_correlation_independent_of_outer_thread_count(self):
        # 4,4 linear model: the correlation runs on a parity block of side 512
        space = SpaceSpec((4, 4), 1)
        h = build_dimensionless_hamiltonian(
            space, 0.05 / np.sqrt(2.0), 0.0, include_quadratic=False, j_override=0.5
        )
        diss = DissipationParams()
        rho = steady_state(build_liouvillian(h, diss))
        a = annihilation(space, 0)
        taus = np.linspace(0.0, 2000.0, 257)

        def values():
            series = correlation(build_liouvillian(h, diss), rho, a.dag(), a, taus)
            assert series.metadata["propagation_side"] == 512
            return series.values

        free = values()
        with _blas.single_thread():
            held = values()
        assert np.array_equal(free, held)


class TestSteadyState:
    def test_empty_cavity(self):
        space, liou = thermal_cavity(kappa=0.01, n_th=0.0)
        rho = steady_state(liou)
        expected = np.zeros((5, 5))
        expected[0, 0] = 1.0
        assert np.abs(rho.matrix - expected).max() <= 1e-10

    def test_thermal_distribution(self):
        space, liou = thermal_cavity()
        rho = steady_state(liou)
        probs = truncated_geometric(5, 0.15)
        assert np.abs(np.diag(rho.matrix).real - probs).max() <= 1e-12
        off = rho.matrix - np.diag(np.diag(rho.matrix))
        assert np.abs(off).max() <= 1e-12
        n = expectation(number_operator(space, 0), rho).real
        assert n == pytest.approx((np.arange(5) * probs).sum(), abs=1e-12)
        assert abs(n - 0.15) <= 2e-4  # closed-form truncation correction

    def test_unitary_only_is_degenerate(self, rng):
        h = random_hermitian(SMALL, rng)
        liou = liouvillian_from_operators(h, [])
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liou)

    def test_no_singular_value_decomposition(self, monkeypatch):
        def svd(*args, **kwargs):
            raise AssertionError("steady_state must not call np.linalg.svd")

        monkeypatch.setattr(np.linalg, "svd", svd)
        _, liou = thermal_cavity()
        assert liou.stationarity_residual(steady_state(liou)) <= 1e-10
        h = random_hermitian(SMALL, np.random.default_rng(3))
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouvillian_from_operators(h, []))

    def dephasing_only(self):
        # every diagonal state is stationary: kernel dimension d = 5
        h = number_operator(CAVITY, 0)
        return liouvillian_from_operators(h, [np.sqrt(0.01) * number_operator(CAVITY, 0)])

    def test_dephasing_only_is_degenerate(self):
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(self.dephasing_only())

    def stationary_coherence(self):
        # H = 0, collapse sqrt(gamma) sigma_x: populations and coherences form
        # two blocks, and sigma_x (a coherence) is stationary beside 1/2
        space = SpaceSpec((), 1)
        h = QOperator(space, np.zeros((2, 2), dtype=complex))
        return liouvillian_from_operators(h, [np.sqrt(0.01) * pauli(space, "x")])

    def test_stationary_coherence_is_degenerate(self):
        liou = self.stationary_coherence()
        assert sorted(len(block) for block in liou.blocks) == [2, 2]
        # the coherence block's zero pivot is reported by the error alone
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(liou)
        assert [str(w.message) for w in caught] == []

    def test_factors_every_block(self, monkeypatch):
        h = build_dimensionless_hamiltonian(BLOCK_SPACE, 0.05, 0.0)
        liou = build_liouvillian(h, DissipationParams())
        calls = []
        lu_factor = scipy.linalg.lu_factor
        monkeypatch.setattr(
            scipy.linalg, "lu_factor", lambda m: calls.append((m.shape[0], m.dtype)) or lu_factor(m)
        )
        steady_state(liou)
        # five coherence-order blocks n2 - n2' = -2..2; transposition pairs
        # +-1 and +-2, so one LU per closed union: {0}, {+-1}, {+-2}
        assert len(liou.blocks) == 5
        side = BLOCK_SPACE.total_dim**2
        unions = {
            frozenset(liou.invariant_block(np.arange(side) == block[0])) for block in liou.blocks
        }
        assert len(calls) == len(unions) == 3
        assert sorted(size for size, _ in calls) == sorted(len(union) for union in unions)
        assert sum(size for size, _ in calls) == side
        # every LU is real, in the Hermitian basis
        assert all(dtype == np.float64 for _, dtype in calls)

    def test_small_lus_on_one_blas_thread(self, monkeypatch):
        if not _blas.setters():
            pytest.skip("no OpenBLAS library in this process")
        setter = _blas.setters()[0]

        def count():
            previous = setter(1)
            setter(previous)
            return previous

        seen = []
        lu_factor = scipy.linalg.lu_factor
        monkeypatch.setattr(scipy.linalg, "lu_factor", lambda m: seen.append(count()) or lu_factor(m))
        default = count()
        limit = dynamics.ONE_THREAD_MAX_SIDE
        for side in (4, limit, limit + 1):
            dynamics._checked_lu(np.eye(side) + np.eye(side, k=1), "a test matrix")
        assert seen == [1, 1, default]
        assert count() == default

    def test_degenerate_on_default_threads(self, monkeypatch):
        # the zero-pivot verdict of the LU at the default BLAS thread count
        monkeypatch.setattr(dynamics, "ONE_THREAD_MAX_SIDE", 0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DegenerateSteadyStateError):
                steady_state(self.stationary_coherence())
        assert [str(w.message) for w in caught] == []

    def test_production_model_has_unique_mixed_steady_state(self):
        h = build_dimensionless_hamiltonian(SMALL, 0.05 / np.sqrt(2.0), 0.0)
        liou = build_liouvillian(h, DissipationParams())
        rho = steady_state(liou)
        assert liou.stationarity_residual(rho) <= 1e-10
        assert rho.purity() < 1.0

    def test_residual_small_on_random_models(self, rng):
        for _ in range(5):
            h = random_hermitian(SMALL, rng)
            diss = DissipationParams(
                kappa1=rng.uniform(0.001, 0.1),
                kappa2=rng.uniform(0.001, 0.1),
                gamma=rng.uniform(0.001, 0.1),
                gamma_phi=rng.uniform(0.001, 0.1),
                n_th=rng.uniform(0.0, 0.5),
            )
            liou = build_liouvillian(h, diss)
            rho = steady_state(liou)
            assert liou.stationarity_residual(rho) <= 1e-10


class TestCorrelation:
    def test_identity_pair_is_flat(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        one = identity(space)
        series = correlation(liou, rho, one, one, np.linspace(0.0, 50.0, 11))
        assert np.abs(series.values - 1.0).max() <= 1e-8

    def test_zero_delay_is_static_expectation(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        series = correlation(liou, rho, a.dag(), a, np.linspace(0.0, 10.0, 5))
        static = np.trace(a.dag().matrix @ a.matrix @ rho.matrix)
        assert abs(series.values[0] - static) <= 1e-12

    def test_thermal_occupation_and_decay(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        taus = np.linspace(0.0, 200.0, 101)
        series = correlation(liou, rho, a.dag(), a, taus)
        assert series.metadata["method"] == "expm"
        probs = truncated_geometric(5, 0.15)
        assert series.values[0].real == pytest.approx((np.arange(5) * probs).sum(), abs=1e-12)
        mags = np.abs(series.values)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_matches_exponential_oracle(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        taus = np.linspace(0.0, 100.0, 26)
        series = correlation(liou, rho, a.dag(), a, taus, method="adaptive")
        assert series.metadata["method"] == "adaptive"
        seed = a.matrix @ rho.matrix
        for tau, value in zip(taus, series.values):
            prop = scipy.linalg.expm(liou.matrix * tau)
            oracle = np.trace(
                a.dag().matrix @ (prop @ seed.ravel(order="F")).reshape((5, 5), order="F")
            )
            assert abs(value - oracle) <= 1e-6
        # phase convention: C(tau) rotates as exp(+i omega tau)
        tau1 = taus[1]
        assert abs(np.angle(series.values[1] * np.exp(-1j * 1.0 * tau1))) < 0.05

    def test_linear_in_both_operators(self, rng):
        # checked on the exponential path: adaptive stepping is state
        # dependent, so its discretization error is not linear in the seed
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        taus = np.linspace(0.0, 20.0, 6)
        ops = [random_hermitian(space, rng) for _ in range(4)]
        alpha, beta = 0.7 - 0.2j, -1.3 + 0.4j

        def corr(a_op, b_op):
            return correlation(liou, rho, a_op, b_op, taus, method="expm").values

        combined_a = corr(alpha * ops[0] + beta * ops[1], ops[2])
        split_a = alpha * corr(ops[0], ops[2]) + beta * corr(ops[1], ops[2])
        assert np.abs(combined_a - split_a).max() <= 1e-10

        combined_b = corr(ops[2], alpha * ops[0] + beta * ops[1])
        split_b = alpha * corr(ops[2], ops[0]) + beta * corr(ops[2], ops[1])
        assert np.abs(combined_b - split_b).max() <= 1e-10

    def test_zero_seed_stays_zero(self):
        # B = 0: an empty invariant block on both paths
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        taus = np.linspace(0.0, 20.0, 6)
        for method in ("adaptive", "expm"):
            series = correlation(liou, rho, a.dag(), 0.0 * a, taus, method=method)
            assert series.metadata["method"] == method
            assert series.metadata["propagation_side"] == 0
            assert np.array_equal(series.values, np.zeros(taus.size))

    def test_rejects_non_stationary_state(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho0 = DensityMatrix.from_pure(space, basis_ket(space, [2], []))
        a = annihilation(space, 0)
        with pytest.raises(NonStationaryStateError):
            correlation(liou, rho0, a.dag(), a, np.linspace(0.0, 10.0, 5))

    def test_delay_grid_validation(self):
        space, liou = thermal_cavity(kappa=0.05)
        rho = steady_state(liou)
        a = annihilation(space, 0)
        with pytest.raises(ValueError):
            correlation(liou, rho, a.dag(), a, [1.0, 2.0])
