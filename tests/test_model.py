import math

import numpy as np
import pytest

from jtcqed import model
from jtcqed import (
    DegenerateModelError,
    ModelParams,
    SpaceSpec,
    annihilation,
    build_dimensionless_hamiltonian,
    build_effective_hamiltonian,
    build_raw_hamiltonian,
    commutator,
    derive_effective,
    dimensionless_couplings,
    eigen_lowest,
    number_operator,
    params_from_dimensionless,
    pauli,
    unbounded_below,
)

SPACE = SpaceSpec((2, 2), 1)
SQRT2 = math.sqrt(2.0)


class TestModelParams:
    def test_delta_derived(self):
        p = ModelParams(omega_1=1.0, omega_2=0.8)
        assert p.delta == pytest.approx(0.2)

    def test_delta_consistency_enforced(self):
        with pytest.raises(ValueError):
            ModelParams(omega_1=1.0, omega_2=0.8, delta=0.3)

    def test_negative_scaling_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(k1=-0.1)


class TestDeriveEffective:
    def test_single_mode_limit(self):
        p = ModelParams(omega_1=1.0, omega_2=0.9, k1=1.0, k2=0.0)
        eff = derive_effective(p)
        assert eff.k_eff == pytest.approx(1.0)
        assert eff.omega_eff == pytest.approx(1.0)
        assert eff.omega_prime == pytest.approx(0.9)
        assert eff.c2 == pytest.approx(0.0)

    def test_equal_scalings_halve_the_mismatch(self):
        for k in (0.05, 0.3, 1.2):
            p = ModelParams(omega_1=1.0, omega_2=0.6, k1=k, k2=k)
            assert derive_effective(p).c2 == pytest.approx(0.2, abs=1e-14)

    def test_coupling_dictionary(self):
        lam1, lam2 = dimensionless_couplings(0.3, 1.0, 0.7)
        assert lam1 == pytest.approx(1.7 * 0.3 / SQRT2)
        assert lam2 == pytest.approx(0.3 * 0.3 / SQRT2)

    def test_degenerate_error(self):
        with pytest.raises(DegenerateModelError):
            derive_effective(ModelParams(k1=0.0, k2=0.0))

    def test_zero_mismatch_decouples(self):
        p = ModelParams(omega_1=1.0, omega_2=1.0, k1=0.4, k2=0.7)
        assert derive_effective(p).c2 == 0.0

    def test_swap_symmetry(self, rng):
        for _ in range(10):
            w1, w2 = rng.uniform(0.5, 1.5, 2)
            k1, k2 = rng.uniform(0.01, 1.0, 2)
            a = derive_effective(ModelParams(omega_1=w1, omega_2=w2, k1=k1, k2=k2))
            b = derive_effective(ModelParams(omega_1=w1, omega_2=w2, k1=k2, k2=k1))
            assert a.k_eff == pytest.approx(b.k_eff, rel=1e-12)
            assert a.omega_eff == pytest.approx(b.omega_prime, rel=1e-12)
            assert a.k_eff**2 == pytest.approx(k1**2 + k2**2, rel=1e-12)

    def test_alternative_normalization(self):
        p = ModelParams(omega_1=1.0, omega_2=0.9, k1=0.3, k2=0.4)
        eff = derive_effective(p, obrien_normalization=True)
        k_eff_sq = 0.3**2 + 0.4**2
        assert eff.omega_eff == pytest.approx((1.0 * 0.09 + 0.9 * 0.16) / k_eff_sq)
        assert eff.c2 == pytest.approx(0.1 * 0.3 * 0.4 / k_eff_sq)


class TestRawHamiltonian:
    def test_uncoupled_diagonal(self):
        p = ModelParams(omega_q=0.9, omega_1=1.0, omega_2=0.8)
        h = build_raw_hamiltonian(SPACE, p)
        off = h.matrix - np.diag(np.diag(h.matrix))
        assert np.abs(off).max() == 0.0
        # diagonal entries are omega_i n_i +/- omega_q / 2
        expected = []
        for n1 in range(2):
            for n2 in range(2):
                for s in (+1, -1):
                    expected.append(1.0 * n1 + 0.8 * n2 + s * 0.45)
        assert np.allclose(np.diag(h.matrix).real, expected)

    def test_hermitian_for_random_params(self, rng):
        for _ in range(10):
            p = ModelParams(
                omega_q=rng.uniform(0.5, 1.5),
                omega_1=rng.uniform(0.5, 1.5),
                omega_2=rng.uniform(0.5, 1.5),
                lambda_1=rng.uniform(-1, 1),
                lambda_2=rng.uniform(-1, 1),
                g1=rng.uniform(-0.5, 0.5),
                g2=rng.uniform(-0.5, 0.5),
            )
            assert build_raw_hamiltonian(SPACE, p).is_hermitian()

    def test_against_independent_construction(self):
        # Element-by-element build over the |n1, n2, s> product basis using
        # explicit ladder rules; no tensor-embedding code shared.
        p = ModelParams(
            omega_q=0.95, omega_1=1.0, omega_2=0.85,
            lambda_1=0.21, lambda_2=0.13, g1=0.07, g2=0.04,
        )
        d1 = d2 = 2
        dim = d1 * d2 * 2

        def idx(n1, n2, s):
            return (n1 * d2 + n2) * 2 + s

        expected = np.zeros((dim, dim))
        for n1 in range(d1):
            for n2 in range(d2):
                for s in range(2):
                    i = idx(n1, n2, s)
                    sign = 1.0 if s == 0 else -1.0
                    expected[i, i] += 0.5 * p.omega_q * sign + p.omega_1 * n1 + p.omega_2 * n2
                    sp = 1 - s
                    for mode, lam, g in ((0, p.lambda_1, p.g1), (1, p.lambda_2, p.g2)):
                        n = n1 if mode == 0 else n2
                        dmax = d1 if mode == 0 else d2

                        def shifted(dn):
                            return idx(n1 + dn, n2, sp) if mode == 0 else idx(n1, n2 + dn, sp)

                        if n - 1 >= 0:
                            expected[shifted(-1), i] += lam * math.sqrt(n)
                        if n + 1 < dmax:
                            expected[shifted(+1), i] += lam * math.sqrt(n + 1)
                        if n - 2 >= 0:
                            expected[shifted(-2), i] += g * math.sqrt(n * (n - 1))
                        if n + 2 < dmax:
                            expected[shifted(+2), i] += g * math.sqrt((n + 1) * (n + 2))
                        # square of the truncated quadrature: the raising
                        # branch vanishes on the top retained level
                        expected[shifted(0), i] += g * ((2 * n + 1) if n < dmax - 1 else n)
        h = build_raw_hamiltonian(SPACE, p)
        assert np.allclose(h.matrix, expected, atol=1e-14)
        # vacuum diagonal element carries no coupling shift: sigma_x is
        # purely off-diagonal in the qubit basis
        assert h.matrix[idx(0, 0, 1), idx(0, 0, 1)] == pytest.approx(-0.5 * p.omega_q)


def algebra_dimensionless_hamiltonian(space, k, delta, include_quadratic=True, j_override=None):
    """The dimensionless Hamiltonian composed term by term from full-space
    ``QOperator`` products, as its docstring writes it: the reference that the
    tensor-factor builder must reproduce bit for bit."""
    j_hop = 0.5 * delta if j_override is None else j_override
    sz = pauli(space, "z")
    sx = pauli(space, "x")
    a1 = annihilation(space, 0)
    a2 = annihilation(space, 1)
    x1 = a1 + a1.dag()
    x2 = a2 + a2.dag()
    h = number_operator(space, 0) + number_operator(space, 1) + 0.5 * sz
    h = h + j_hop * (a1.dag() @ a2 + a2.dag() @ a1)
    drive = x1 + 0.5 * delta * x2
    if include_quadratic:
        drive = drive + (x1 @ x1) + 0.5 * delta * (x2 @ x2)
    return h + math.sqrt(2.0) * k * (drive @ sx)


class TestDimensionlessHamiltonian:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 5), (5, 2), (4, 4), (10, 10), (12, 3)])
    def test_tensor_factors_match_operator_algebra_bitwise(self, dims):
        space = SpaceSpec(dims, 1)
        for k in (0.0, 0.1, 1.0 / SQRT2, -0.37):
            for delta in (0.0, 1.0, -0.77, 0.35):
                for include_quadratic in (True, False):
                    for j_override in (None, 0.3, -1.2):
                        args = (space, k, delta, include_quadratic, j_override)
                        oracle = algebra_dimensionless_hamiltonian(*args).matrix
                        real = model._dimensionless_matrix(*args)
                        assert real.dtype == np.float64 and not np.any(oracle.imag)
                        assert real.tobytes() == oracle.real.tobytes()
                        wrapped = build_dimensionless_hamiltonian(*args).matrix
                        assert wrapped.tobytes() == oracle.tobytes()

    def test_free_limit(self):
        h = build_dimensionless_hamiltonian(SPACE, 0.0, 0.0)
        n1 = number_operator(SPACE, 0)
        n2 = number_operator(SPACE, 1)
        expected = n1.matrix + n2.matrix + 0.5 * pauli(SPACE, "z").matrix
        assert np.allclose(h.matrix, expected)

    def test_zero_mismatch_blocks(self):
        h = build_dimensionless_hamiltonian(SPACE, 0.37, 0.0)
        n2 = number_operator(SPACE, 1)
        assert np.abs(commutator(h, n2).matrix).max() <= 1e-13
        # block-diagonal in the mode-2 number basis
        m = h.matrix.reshape(2, 2, 2, 2, 2, 2)  # (n1, n2, s) x (n1', n2', s')
        off_block = m[:, 0, :, :, 1, :]
        assert np.abs(off_block).max() == 0.0

    def test_hopping_override_touches_hopping_only(self):
        base = build_dimensionless_hamiltonian(SPACE, 0.2, 0.6, j_override=0.0)
        coupled = build_dimensionless_hamiltonian(SPACE, 0.2, 0.6, j_override=0.45)
        a1 = annihilation(SPACE, 0)
        a2 = annihilation(SPACE, 1)
        hop = a1.dag() @ a2 + a2.dag() @ a1
        assert np.allclose((coupled - base).matrix, 0.45 * hop.matrix, atol=1e-14)
        default = build_dimensionless_hamiltonian(SPACE, 0.2, 0.6)
        assert np.allclose((default - base).matrix, 0.3 * hop.matrix, atol=1e-14)

    def test_linear_reference_model_drops_squares(self):
        space = SpaceSpec((3, 3), 1)
        full = build_dimensionless_hamiltonian(space, 0.3, 0.4)
        linear = build_dimensionless_hamiltonian(space, 0.3, 0.4, include_quadratic=False)
        a1 = annihilation(space, 0)
        a2 = annihilation(space, 1)
        x1 = (a1 + a1.dag()).matrix
        x2 = (a2 + a2.dag()).matrix
        sx = pauli(space, "x").matrix
        quad = SQRT2 * 0.3 * ((x1 @ x1) + 0.2 * (x2 @ x2)) @ sx
        assert np.allclose((full - linear).matrix, quad, atol=1e-13)

    def test_hermitian_always(self, rng):
        for _ in range(10):
            h = build_dimensionless_hamiltonian(
                SPACE, rng.uniform(-1, 1), rng.uniform(-1, 1),
                j_override=rng.uniform(-1, 1),
            )
            assert h.is_hermitian()

    def test_raw_agrees_spectrally_at_zero_mismatch(self):
        # With quadratic terms off and the coupling dictionary applied, the
        # laboratory-frame and dimensionless builders describe the same
        # operator at delta = 0.
        space = SpaceSpec((3, 3), 1)
        for k in (0.05, 0.3, 0.9):
            p = params_from_dimensionless(k, 0.0)
            h_raw = build_raw_hamiltonian(space, p)
            h_dim = build_dimensionless_hamiltonian(space, k, 0.0, include_quadratic=False)
            assert np.abs(
                eigen_lowest(h_raw, 5) - eigen_lowest(h_dim, 5)
            ).max() <= 1e-9


class TestUnboundedBelow:
    GRID = np.linspace(-1.0, 1.0, 201)

    def test_fig1b_coupling_flagged_everywhere(self):
        assert unbounded_below(1.0 / SQRT2, self.GRID).all()

    def test_fig1a_coupling_never_flagged(self):
        assert not unbounded_below(0.1 / SQRT2, self.GRID).any()

    def test_intermediate_coupling_flagged_at_large_mismatch(self):
        # k = 0.15 with J = delta/2: the x-form of the sx = -1 sector loses
        # definiteness at delta = 0.660 and delta = -0.918
        flagged = unbounded_below(0.15, self.GRID)
        assert flagged.sum() == 43
        expected = (self.GRID <= -0.92 + 1e-9) | (self.GRID >= 0.67 - 1e-9)
        assert np.array_equal(flagged, expected)

    def test_linear_model_flagged_only_by_hopping(self):
        assert not unbounded_below(0.5, self.GRID, include_quadratic=False).any()
        hops = np.array([-1.5, -1.0, -0.99, 0.0, 0.99, 1.0, 1.5])
        for j in hops:
            flags = unbounded_below(0.5, self.GRID, include_quadratic=False, j_override=j)
            assert (flags.all() if abs(j) >= 1.0 else not flags.any()), j

    def test_flag_matches_truncation_dependence(self):
        # a flagged point's ground energy keeps falling as the truncation
        # grows; an unflagged one converges
        def ground(delta, n):
            h = build_dimensionless_hamiltonian(SpaceSpec((n, n), 1), 0.15, delta)
            return eigen_lowest(h, 1)[0]

        assert unbounded_below(0.15, 1.0) and not unbounded_below(0.15, 0.0)
        assert ground(1.0, 8) - ground(1.0, 12) > 0.5
        assert abs(ground(0.0, 8) - ground(0.0, 12)) < 0.02


class TestEffectiveHamiltonian:
    def test_linear_part_decouples_at_zero_cross_coupling(self):
        # c2 = 0 (equal frequencies) and J = 0: without the quadratic block
        # the disadvantaged mode is a spectator.
        p = ModelParams(omega_1=1.0, omega_2=1.0, k1=0.3, k2=0.4, j_hop=0.0)
        h = build_effective_hamiltonian(SPACE, p, include_quadratic=False)
        n2 = number_operator(SPACE, 1)
        assert np.abs(commutator(h, n2).matrix).max() <= 1e-13

    def test_quadratic_block_couples_disadvantaged_mode(self):
        # needs truncation >= 3: on a 2-level ladder the squared quadrature
        # degenerates to the identity and carries no mode-2 coupling
        space = SpaceSpec((3, 3), 1)
        p = ModelParams(omega_1=1.0, omega_2=1.0, k1=0.3, k2=0.4, j_hop=0.0)
        h = build_effective_hamiltonian(space, p)
        n2 = number_operator(space, 1)
        assert np.abs(commutator(h, n2).matrix).max() > 1e-6

    def test_hermitian_random(self, rng):
        for _ in range(10):
            p = ModelParams(
                omega_1=rng.uniform(0.8, 1.2),
                omega_2=rng.uniform(0.8, 1.2),
                k1=rng.uniform(0.01, 1.0),
                k2=rng.uniform(0.01, 1.0),
                j_hop=rng.uniform(-0.5, 0.5),
            )
            assert build_effective_hamiltonian(SPACE, p).is_hermitian()

    def test_spectral_tables_against_dimensionless(self, capsys):
        # Consistency experiment: the rotated-frame and dimensionless builders
        # are exercised at matched parameters and their spectra tabulated.
        # The two transforms are not asserted equal; only well-formedness is.
        space = SpaceSpec((3, 3), 1)
        for delta in (0.0, 0.2):
            p = params_from_dimensionless(0.1, delta)
            e_eff = eigen_lowest(build_effective_hamiltonian(space, p), 5)
            e_dim = eigen_lowest(
                build_dimensionless_hamiltonian(space, 0.1, delta), 5
            )
            print(f"delta={delta}: effective={e_eff}, dimensionless={e_dim}")
            assert np.all(np.isfinite(e_eff))
            assert np.all(np.isfinite(e_dim))
            assert np.all(np.diff(e_eff) >= -1e-12)
