"""Hamiltonians of the two-resonator + flux-qubit system.

Three builders are provided:

* ``build_raw_hamiltonian`` -- the laboratory-frame Hamiltonian with explicit
  frequencies and linear/quadratic qubit couplings,
* ``build_effective_hamiltonian`` -- the rotated two-mode form in which the
  coupling concentrates into a single privileged collective mode,
* ``build_dimensionless_hamiltonian`` -- the two-parameter (k, delta) form
  used by every production pipeline; mode frequencies are the energy unit.

The first two compose ``QOperator`` products. The third wraps
``_dimensionless_matrix``, which Kronecker-assembles the same matrix from the
per-factor matrices in real arithmetic and which eigenscans read directly.

All builders return Hermitian operators for any finite parameters (the
dimensionless one rejects the others); ``unbounded_below`` tells where the
dimensionless one has no ground state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, ValidationError
from .hilbert import _PAULI, QOperator, SpaceSpec, _ladder, annihilation, number_operator, pauli

__all__ = [
    "ModelParams",
    "EffectiveParams",
    "derive_effective",
    "dimensionless_couplings",
    "params_from_dimensionless",
    "build_raw_hamiltonian",
    "build_effective_hamiltonian",
    "build_dimensionless_hamiltonian",
    "unbounded_below",
]


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters, all in units of the first resonator frequency.

    ``delta`` is tied to ``omega_1 - omega_2``: leave it unset to have it
    derived, or set it consistently (a mismatch is a construction error).
    ``j_hop`` is the inter-mode hopping; ``None`` means "tie it to the derived
    inter-mode coupling strength", which is the printed convention.
    """

    omega_q: float = 1.0
    omega_1: float = 1.0
    omega_2: float = 1.0
    k1: float = 0.0
    k2: float = 0.0
    lambda_1: float = 0.0
    lambda_2: float = 0.0
    g1: float = 0.0
    g2: float = 0.0
    delta: float | None = None
    j_hop: float | None = None
    k: float = 0.0

    def __post_init__(self):
        derived = self.omega_1 - self.omega_2
        if self.delta is None:
            object.__setattr__(self, "delta", derived)
        elif abs(self.delta - derived) > 1e-12:
            raise ValueError(
                f"delta={self.delta} inconsistent with omega_1-omega_2={derived}"
            )
        for name in ("omega_q", "omega_1", "omega_2", "k1", "k2",
                     "lambda_1", "lambda_2", "g1", "g2", "delta", "k"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.k1 < 0 or self.k2 < 0:
            raise ValueError("k1 and k2 must be nonnegative")


@dataclass(frozen=True)
class EffectiveParams:
    """Derived parameters of the privileged/disadvantaged mode rotation."""

    omega_eff: float
    k_eff: float
    omega_prime: float
    c2: float


def derive_effective(p: ModelParams, obrien_normalization: bool = False) -> EffectiveParams:
    """Effective-mode frequency, coupling, partner frequency and cross coupling.

    The frequency formulas divide by k_eff as printed in the source model;
    ``obrien_normalization=True`` switches those two denominators to k_eff**2
    for sensitivity studies (the cross coupling c2 always carries k_eff**2).
    """
    ksq = p.k1**2 + p.k2**2
    if ksq == 0.0:
        raise DegenerateModelError("k1 = k2 = 0 leaves no effective mode")
    k_eff = math.sqrt(ksq)
    denom = ksq if obrien_normalization else k_eff
    omega_eff = (p.omega_1 * p.k1**2 + p.omega_2 * p.k2**2) / denom
    omega_prime = (p.omega_1 * p.k2**2 + p.omega_2 * p.k1**2) / denom
    c2 = p.delta * p.k1 * p.k2 / ksq
    return EffectiveParams(omega_eff=omega_eff, k_eff=k_eff, omega_prime=omega_prime, c2=c2)


def dimensionless_couplings(k: float, omega_1: float, omega_2: float) -> tuple[float, float]:
    """Linear coupling strengths equivalent to the (k, delta) model at k1=k2=k.

    Returns (lambda_1, lambda_2) = ((omega_1+omega_2)k/sqrt(2), (omega_1-omega_2)k/sqrt(2)).
    """
    return (
        (omega_1 + omega_2) * k / math.sqrt(2.0),
        (omega_1 - omega_2) * k / math.sqrt(2.0),
    )


def params_from_dimensionless(k: float, delta: float) -> ModelParams:
    """ModelParams matching the (k, delta) frame: omega_1 = 1, omega_2 = 1 - delta."""
    lam1, lam2 = dimensionless_couplings(k, 1.0, 1.0 - delta)
    return ModelParams(
        omega_q=1.0,
        omega_1=1.0,
        omega_2=1.0 - delta,
        k1=k,
        k2=k,
        lambda_1=lam1,
        lambda_2=lam2,
        k=k,
    )


def _require_two_modes_one_qubit(space: SpaceSpec):
    if space.n_modes != 2 or space.qubit_count != 1:
        raise ValueError(
            f"builder requires 2 Fock modes and 1 qubit, got "
            f"{space.n_modes} modes / {space.qubit_count} qubits"
        )


def build_raw_hamiltonian(space: SpaceSpec, p: ModelParams) -> QOperator:
    """Laboratory-frame Hamiltonian.

    H = (omega_q/2) sz + sum_i [omega_i n_i + lambda_i (a_i + a_i^dag) sx
        + g_i (a_i + a_i^dag)^2 sx]
    """
    _require_two_modes_one_qubit(space)
    sz = pauli(space, "z")
    sx = pauli(space, "x")
    h = 0.5 * p.omega_q * sz
    omegas = (p.omega_1, p.omega_2)
    lams = (p.lambda_1, p.lambda_2)
    gs = (p.g1, p.g2)
    for i in range(2):
        a = annihilation(space, i)
        x = a + a.dag()
        h = h + omegas[i] * number_operator(space, i)
        h = h + lams[i] * (x @ sx)
        h = h + gs[i] * (x @ x @ sx)
    return h


def build_effective_hamiltonian(
    space: SpaceSpec,
    p: ModelParams,
    include_quadratic: bool = True,
    obrien_normalization: bool = False,
) -> QOperator:
    """Rotated two-mode Hamiltonian in the privileged/disadvantaged basis.

    The linear couplings attach to sz and the quadratic block to sx, exactly
    as the transformed model is written; no harmonization between the two is
    attempted. ``include_quadratic=False`` keeps only the linear part.
    The hopping defaults to the derived cross coupling c2 unless ``p.j_hop``
    overrides it.
    """
    _require_two_modes_one_qubit(space)
    eff = derive_effective(p, obrien_normalization=obrien_normalization)
    j_hop = eff.c2 if p.j_hop is None else p.j_hop

    sz = pauli(space, "z")
    sx = pauli(space, "x")
    a1 = annihilation(space, 0)
    a2 = annihilation(space, 1)
    x1 = a1 + a1.dag()
    x2 = a2 + a2.dag()
    hop = a1.dag() @ a2 + a2.dag() @ a1

    h = 0.5 * p.omega_q * sz
    h = h + eff.omega_prime * number_operator(space, 1)
    h = h + j_hop * hop
    h = h + eff.omega_eff * (number_operator(space, 0) + eff.k_eff * (x1 @ sz))
    h = h + eff.c2 * (hop + eff.k_eff * (x2 @ sz))
    if include_quadratic:
        h = h + (
            eff.omega_eff * (x1 @ x1) + eff.omega_prime * (x2 @ x2) + j_hop * (x1 @ x2)
        ) @ sx
    return h


def build_dimensionless_hamiltonian(
    space: SpaceSpec,
    k: float,
    delta: float,
    include_quadratic: bool = True,
    j_override: float | None = None,
) -> QOperator:
    """Two-parameter simulation Hamiltonian (unit mode frequencies).

    H = n_1 + n_2 + sz/2 + J (a1^dag a2 + a2^dag a1)
        + sqrt(2) k [ (a1 + a1^dag) + (a1 + a1^dag)^2
                      + (delta/2) ((a2 + a2^dag) + (a2 + a2^dag)^2) ] sx

    with J = delta/2 unless ``j_override`` replaces it (the override touches
    the hopping term only, so resonator coupling and mode-2 drive can be
    varied independently). ``include_quadratic=False`` drops both squared
    terms, leaving the linear reference model. A non-finite k, delta or
    ``j_override`` raises ``ValidationError``.
    """
    return QOperator(space, _dimensionless_matrix(space, k, delta, include_quadratic, j_override))


def _dimensionless_matrix(
    space: SpaceSpec,
    k: float,
    delta: float,
    include_quadratic: bool = True,
    j_override: float | None = None,
) -> np.ndarray:
    """The matrix of :func:`build_dimensionless_hamiltonian`, real float64.

    Each term is a Kronecker product of per-factor matrices (ladder, identity,
    sz, sx; mode 1, mode 2, qubit), and every entry takes its sums and
    scalings in the order the ``QOperator`` algebra takes them, so the result
    equals that algebra's real part bit for bit without forming a full-space
    product. Raises ``ValidationError`` for a non-finite k, delta or
    ``j_override``.
    """
    _require_two_modes_one_qubit(space)
    for name, value in (("k", k), ("delta", delta), ("j_override", j_override)):
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")
    j_hop = 0.5 * delta if j_override is None else j_override

    (d1, d2), qubit = space.fock_dims, np.eye(2)
    one1, one2 = np.eye(d1), np.eye(d2)
    a1, a2 = _ladder(d1), _ladder(d2)
    x1, x2 = a1 + a1.T, a2 + a2.T
    # mode terms act on the d1*d2 two-mode factor; the qubit factor goes last
    modes = np.kron(a1.T @ a1, one2) + np.kron(one1, a2.T @ a2)
    h = np.kron(modes, qubit) + 0.5 * np.kron(np.eye(d1 * d2), _PAULI["z"].real)
    h = h + j_hop * np.kron(np.kron(a1.T, a2) + np.kron(a1, a2.T), qubit)
    drive = np.kron(x1, one2) + 0.5 * delta * np.kron(one1, x2)
    if include_quadratic:
        drive = drive + np.kron(x1 @ x1, one2) + 0.5 * delta * np.kron(one1, x2 @ x2)
    return h + math.sqrt(2.0) * k * np.kron(drive, _PAULI["x"].real)


def unbounded_below(
    k: float,
    delta,
    include_quadratic: bool = True,
    j_override: float | None = None,
) -> np.ndarray:
    """Where the untruncated ``build_dimensionless_hamiltonian`` has no ground state.

    With x = a + a^dag, p = i(a^dag - a), a^dag a = (x^2 + p^2)/4 - 1/2 and
    a1^dag a2 + h.c. = (x1 x2 + p1 p2)/2, the Hamiltonian in the sx = s sector
    (s = +-1; the bounded sz/2 does not matter) is quadratic in x and p with
    the 2x2 forms

        P: [[1/4, J/4], [J/4, 1/4]]
        X: [[1/4 + s c1, J/4], [J/4, 1/4 + s c2]],  c1 = sqrt(2) k, c2 = c1 delta/2

    (c1 = c2 = 0 in the linear model), plus linear terms. It is bounded below
    iff all three forms are positive definite; a semidefinite form is flagged
    too. Where this is True the lowest levels of a truncated space fall
    without limit as fock_dims grows. Returns one flag per ``delta``.
    """
    delta = np.asarray(delta, dtype=float)
    j = 0.5 * delta if j_override is None else np.full_like(delta, j_override)
    c1 = math.sqrt(2.0) * k if include_quadratic else 0.0
    bounded = np.abs(j) < 1.0
    for s in (1.0, -1.0):
        xx, yy = 0.25 + s * c1, 0.25 + s * c1 * 0.5 * delta
        bounded &= (xx > 0) & (xx * yy > (j / 4) ** 2)
    return ~bounded
