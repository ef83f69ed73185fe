"""Checks of each run's CSV against the benchmark's own computations.

``check_run`` returns one entry per named check: ``None`` when it passes,
otherwise a message. No check compares with a stored copy of an earlier
output; every reference value is computed here from the run's config with
the sparse operators of ``reference``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spl

import reference

SUM_RULE_RTOL = 1e-6
# Continuous-time resolvent against the finite-window FFT at the strongest
# line: the window truncation (about exp(-kappa tau_max / 2)) and the delay
# discretization stay well inside this.
PEAK_HEIGHT_RTOL = 0.02
# A transition counts as a line when its emission weight p_i |<j|a|i>|^2 is
# at least this share of the largest one.
LINE_WEIGHT_FLOOR = 1e-3
# The strongest bin lies within this many bins of a line: half a bin of grid
# quantization, plus up to about half a bin by which the full model's
# strongest line sits off its bare transition (measured over 15 seeds).
LINE_BINS = 2
OCCUPATION_ATOL = 1e-7
G2_ATOL = 1e-8
LEVEL_ATOL = 1e-9


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and float table; empty fields read as NaN."""
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [[float(v) if v else math.nan for v in line.rstrip("\n").split(",")] for line in handle]
    return header, np.array(rows, dtype=float).reshape(-1, len(header))


def _grid(text: str) -> np.ndarray:
    start, stop, count = text.split(":")
    return np.linspace(float(start), float(stop), int(count))


def _model(mapping: dict):
    m = mapping["model"]
    dims = tuple(int(v) for v in m["fock_dims"].split(","))
    model = reference.Model(dims)
    quadratic = m.get("include_quadratic", True)
    return model, m["k"], quadratic, m.get("j_override")


def _liouvillian(mapping: dict):
    model, k, quadratic, j_override = _model(mapping)
    h = model.hamiltonian(k, mapping["model"]["delta"], quadratic, j_override)
    d = mapping["dissipation"]
    ops = model.collapse_ops(d["kappa1"], d["kappa2"], d["gamma"], d["gamma_phi"], d["n_th"])
    return model, h, model.liouvillian(h, ops)


def _initial_state(mapping: dict, model) -> np.ndarray:
    n1, n2, qubit = mapping["numerics"]["initial_state"].split(",")
    return model.basis_state(int(n1), int(n2), qubit.strip())


def _fail_if(condition: bool, message: str):
    return message if condition else None


def check_spectrum(mapping: dict, header, table) -> dict:
    numerics = mapping["numerics"]
    n_samples, tau_max = numerics["n_samples"], numerics["tau_max"]
    omega, power = table[:, 0], table[:, 1]
    d_omega = 2.0 * math.pi / tau_max
    results = {
        "spectrum.grid": _fail_if(
            header != ["omega", "power"]
            or omega.size != n_samples
            or not np.allclose(np.diff(omega), d_omega, rtol=1e-6, atol=0.0),
            f"expected {n_samples} ascending frequencies spaced by 2 pi / tau_max",
        )
    }
    if results["spectrum.grid"]:
        return results

    model, h, lmat = _liouvillian(mapping)
    rho = reference.steady_state(model, lmat)
    a = model.a1

    # sum_k P_k d_omega / 2 pi equals C(0) = <a^dag a> identically for the
    # one-sided FFT with a half-weight first sample.
    occupation = model.expect(a.getH() @ a, rho).real
    total = power.sum() * d_omega / (2.0 * math.pi)
    results["spectrum.sum_rule"] = _fail_if(
        abs(total - occupation) > SUM_RULE_RTOL * occupation,
        f"sum rule {total:.12g} against steady-state <a^dag a> {occupation:.12g}",
    )

    # Emission lines sit at E_i - E_j with weight p_i |<j|a|i>|^2.
    energies, vectors = np.linalg.eigh(h.toarray())
    pops = np.real(np.einsum("ki,kl,li->i", vectors.conj(), rho, vectors))
    amplitudes = vectors.conj().T @ (a @ vectors)
    weights = np.abs(amplitudes) ** 2 * pops[None, :]
    lines = (energies[None, :] - energies[:, None])[weights >= LINE_WEIGHT_FLOOR * weights.max()]
    peak = int(np.argmax(power))
    offset = np.abs(lines - omega[peak]).min()
    results["spectrum.strongest_line"] = _fail_if(
        offset > LINE_BINS * d_omega,
        f"strongest line at {omega[peak]:.9g} lies {offset / d_omega:.2f} bins from every transition",
    )

    # P(w) = 2 Re tr[a^dag (i w - L)^-1 (a rho)] in continuous time.
    n = lmat.shape[0]
    seed = model.vec(a @ rho)
    x = spl.spsolve((1j * omega[peak]) * sp.identity(n, format="csc") - lmat, seed)
    height = 2.0 * np.real(np.sum(model.unvec(x) * a.getH().toarray().T))
    results["spectrum.peak_height"] = _fail_if(
        abs(power[peak] - height) > PEAK_HEIGHT_RTOL * height,
        f"peak {power[peak]:.9g} against resolvent {height:.9g}",
    )
    return results


def _expectations(model, states, op) -> np.ndarray:
    """tr(op rho) for each column-major vectorized state in ``states``."""
    weights = model.vec(op.T)
    return np.real(states @ weights)


def check_imbalance(mapping: dict, header, table) -> dict:
    times = _grid(mapping["numerics"]["times"])
    results = {
        "imbalance.grid": _fail_if(
            header != ["t", "n1", "n2", "z"]
            or table.shape[0] != times.size
            or not np.allclose(table[:, 0], times, rtol=1e-10, atol=1e-12),
            "time column differs from the configured grid",
        )
    }
    if results["imbalance.grid"]:
        return results
    n1, n2, z = table[:, 1], table[:, 2], table[:, 3]

    model, _, lmat = _liouvillian(mapping)
    states = reference.propagate(lmat, model.vec(_initial_state(mapping, model)), times)
    dev = max(
        np.abs(n1 - _expectations(model, states, model.n1)).max(),
        np.abs(n2 - _expectations(model, states, model.n2)).max(),
    )
    results["imbalance.occupations"] = _fail_if(
        not dev <= OCCUPATION_ATOL, f"n1/n2 deviate from expm_multiply by {dev:.3e}"
    )

    finite = np.isfinite(z)
    results["imbalance.range"] = _fail_if(
        np.any(np.abs(z[finite]) > 1.0) or np.any(~finite & (n1 + n2 > 1e-12)),
        "z leaves [-1, 1] or is missing where n1 + n2 > 0",
    )
    expected = (n1 - n2) / (n1 + n2)
    results["imbalance.z_consistent"] = _fail_if(
        not np.allclose(z[finite], expected[finite], rtol=1e-9, atol=1e-11),
        "z differs from (n1 - n2) / (n1 + n2)",
    )
    return results


def check_g2(mapping: dict, header, table) -> dict:
    taus = _grid(mapping["numerics"]["times"])
    results = {
        "g2.grid": _fail_if(
            header != ["tau", "g2_resonator", "g2_qubit"]
            or table.shape[0] != taus.size
            or not np.allclose(table[:, 0], taus, rtol=1e-10, atol=1e-12),
            "delay column differs from the configured grid",
        )
    }
    if results["g2.grid"]:
        return results

    model, _, lmat = _liouvillian(mapping)
    rho0 = _initial_state(mapping, model)
    ops = (model.a1.toarray(), model.sigma.toarray())
    seeds = np.stack([model.vec(op @ rho0 @ op.conj().T) for op in ops], axis=1)
    states = reference.propagate(lmat, seeds, taus)  # (taus, n, 2)
    dev = 0.0
    for column, op in enumerate(ops):
        number = op.conj().T @ op
        nbar = np.real(np.trace(number @ rho0))
        expected = _expectations(model, states[:, :, column], number) / nbar**2
        dev = max(dev, np.abs(table[:, 1 + column] - expected).max())
    results["g2.reference"] = _fail_if(
        not dev <= G2_ATOL, f"g2 deviates from expm_multiply by {dev:.3e}"
    )
    # From one photon and one excitation (|1,0,e>) nothing is left to remove
    # after the first lowering: g2(0) is exactly 0.
    results["g2.zero_delay"] = _fail_if(
        table[0, 1] != 0.0 or table[0, 2] != 0.0,
        f"g2(0) = ({table[0, 1]!r}, {table[0, 2]!r}), expected exactly 0",
    )
    return results


def check_eigenscan(mapping: dict, header, table) -> dict:
    deltas = _grid(mapping["model"]["delta_grid"])
    levels = table[:, 1:]
    results = {
        "eigenscan.grid": _fail_if(
            header != ["delta", "E1", "E2", "E3", "E4", "E5"]
            or table.shape[0] != deltas.size
            or not np.allclose(table[:, 0], deltas, rtol=1e-10, atol=1e-12),
            "delta column differs from the configured grid",
        )
    }
    if results["eigenscan.grid"]:
        return results
    results["eigenscan.ascending"] = _fail_if(
        np.any(np.diff(levels, axis=1) < 0), "levels are not ascending in a row"
    )
    model, k, quadratic, j_override = _model(mapping)
    h0, h1 = (part.toarray().real for part in model.hamiltonian_parts(k, quadratic, j_override))
    expected = np.array([
        scipy.linalg.eigvalsh(h0 + delta * h1, subset_by_index=(0, levels.shape[1] - 1))
        for delta in deltas
    ])
    dev = np.abs(levels - expected).max()
    results["eigenscan.levels"] = _fail_if(
        not dev <= LEVEL_ATOL * max(1.0, np.abs(expected).max()),
        f"levels deviate from the reference eigensolve by {dev:.3e}",
    )
    return results


CHECKS = {
    "spectrum": check_spectrum,
    "imbalance": check_imbalance,
    "g2": check_g2,
    "eigenscan": check_eigenscan,
}


def check_run(mapping: dict, header, table) -> dict:
    return CHECKS[mapping["run"]["task"]](mapping, header, table)
