"""Reference computations made apart from the package.

Operators are assembled sparse from the model's formulas, with the same
conventions the package documents: factor order (mode 1, mode 2, qubit),
truncated ladder operators <n-1|a|n> = sqrt(n), qubit index 0 the excited
state (sz = +1), column-major vectorization, and squares of truncated
quadratures taken as products of truncated matrices. Nothing here imports
``jtcqed``.

    H = n1 + n2 + sz/2 + J (a1^dag a2 + a2^dag a1)
        + sqrt(2) k [x1 + (delta/2) x2 + (x1^2 + (delta/2) x2^2)] sx

(the squared terms only in the full model, J = delta/2 unless overridden);
dissipation per mode (1 + n_th) kappa D[a] + n_th kappa D[a^dag], and on the
qubit gamma D[sigma] + (gamma_phi / 2) D[sz].
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spl


class Model:
    """Sparse operators of the two-mode + qubit space."""

    def __init__(self, dims: tuple[int, int]):
        self.dims = tuple(dims)
        self.total = 2 * dims[0] * dims[1]
        eye = [sp.identity(d, format="csr", dtype=complex) for d in (*dims, 2)]

        def embed(block, factor):
            parts = list(eye)
            parts[factor] = sp.csr_matrix(block, dtype=complex)
            return sp.kron(sp.kron(parts[0], parts[1]), parts[2], format="csr")

        def lowering(d):
            return np.diag(np.sqrt(np.arange(1.0, d)), k=1)

        self.a1 = embed(lowering(dims[0]), 0)
        self.a2 = embed(lowering(dims[1]), 1)
        self.sz = embed(np.diag([1.0, -1.0]), 2)
        self.sx = embed(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        self.sigma = embed(np.array([[0.0, 0.0], [1.0, 0.0]]), 2)
        self.n1 = (self.a1.getH() @ self.a1).tocsr()
        self.n2 = (self.a2.getH() @ self.a2).tocsr()

    def hamiltonian_parts(self, k: float, quadratic: bool, j_override: float | None):
        """(H0, H1) with H(delta) = H0 + delta * H1."""
        x1 = self.a1 + self.a1.getH()
        x2 = self.a2 + self.a2.getH()
        hop = self.a1.getH() @ self.a2 + self.a2.getH() @ self.a1
        drive1 = x1 + x1 @ x1 if quadratic else x1
        drive2 = 0.5 * (x2 + x2 @ x2 if quadratic else x2)
        c = math.sqrt(2.0) * k
        h0 = self.n1 + self.n2 + 0.5 * self.sz + c * (drive1 @ self.sx)
        h1 = c * (drive2 @ self.sx)
        if j_override is None:
            h1 = h1 + 0.5 * hop
        else:
            h0 = h0 + j_override * hop
        return h0.tocsr(), h1.tocsr()

    def hamiltonian(self, k, delta, quadratic, j_override=None):
        h0, h1 = self.hamiltonian_parts(k, quadratic, j_override)
        return (h0 + delta * h1).tocsr()

    def collapse_ops(self, kappa1, kappa2, gamma, gamma_phi, n_th):
        ops = []
        for a, kappa in ((self.a1, kappa1), (self.a2, kappa2)):
            if kappa > 0:
                ops.append(math.sqrt((1.0 + n_th) * kappa) * a)
                if n_th > 0:
                    ops.append(math.sqrt(n_th * kappa) * a.getH())
        if gamma > 0:
            ops.append(math.sqrt(gamma) * self.sigma)
        if gamma_phi > 0:
            ops.append(math.sqrt(gamma_phi / 2.0) * self.sz)
        return ops

    def liouvillian(self, h, collapse_ops):
        """Sparse superoperator on column-major vectorized states."""
        eye = sp.identity(self.total, format="csr", dtype=complex)
        lmat = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
        for c in collapse_ops:
            cdc = c.getH() @ c
            lmat = lmat + sp.kron(c.conj(), c) - 0.5 * (sp.kron(eye, cdc) + sp.kron(cdc.T, eye))
        return lmat.tocsc()

    def vec(self, mat) -> np.ndarray:
        return np.asarray(mat.todense() if sp.issparse(mat) else mat).ravel(order="F")

    def unvec(self, v) -> np.ndarray:
        return np.asarray(v).reshape((self.total, self.total), order="F")

    def basis_state(self, n1: int, n2: int, qubit: str) -> np.ndarray:
        """Density matrix of the product state |n1, n2, q>."""
        q = 0 if qubit == "e" else 1
        idx = (n1 * self.dims[1] + n2) * 2 + q
        rho = np.zeros((self.total, self.total), dtype=complex)
        rho[idx, idx] = 1.0
        return rho

    def expect(self, op, rho) -> complex:
        return complex((op @ rho).trace())


def steady_state(model: Model, lmat) -> np.ndarray:
    """Trace-bordered sparse LU solve of L rho = 0, tr rho = 1."""
    n = lmat.shape[0]
    trace_row = model.vec(np.eye(model.total))
    bordered = lmat.tolil()
    bordered[0, :] = trace_row
    b = np.zeros(n, dtype=complex)
    b[0] = 1.0
    x = spl.splu(bordered.tocsc()).solve(b)
    rho = model.unvec(x)
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def propagate(lmat, x0, times) -> np.ndarray:
    """exp(L t) x0 on a uniform grid starting at zero; one row per time."""
    times = np.asarray(times, dtype=float)
    return spl.expm_multiply(
        lmat, x0, start=times[0], stop=times[-1], num=times.size, endpoint=True
    )
