"""Spans and counts recorded from outside the package.

``Tracer.install`` replaces the public entry points of each jtcqed module
(and the SciPy/NumPy kernels they call by attribute) with wrappers that
record a span (name, start, end, parent) and a call count; ``uninstall``
puts the originals back. The package itself is not edited. Every name a
function is reachable under inside the package is patched, because modules
import each other's functions by name.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

import numpy as np
import scipy.integrate
import scipy.linalg

import jtcqed
from jtcqed import analysis, cli, config, dynamics, hilbert, model

_MODULES = (jtcqed, analysis, cli, config, dynamics, hilbert, model)

# (owner, attribute, span name); owners that are jtcqed modules are patched
# under every module that holds the same function object.
_FUNCTIONS = (
    (config, "load_config", "config.load_config"),
    (model, "build_dimensionless_hamiltonian", "model.hamiltonian_build"),
    (hilbert, "eigen_lowest_states", "hilbert.eigh"),
    (dynamics, "build_liouvillian", "dynamics.liouvillian_build"),
    (dynamics, "steady_state", "dynamics.steady_state"),
    (analysis, "power_spectrum", "analysis.power_spectrum"),
    (analysis, "g2", "analysis.g2"),
    (analysis, "imbalance", "analysis.imbalance"),
    (analysis, "eigen_row", "analysis.eigen_row"),
    (cli, "execute", "cli.execute"),
    (np.linalg, "svd", "dynamics.kernel_svd"),
    (scipy.linalg, "lu_factor", "dynamics.lu_factor"),
    (scipy.linalg, "expm", "dynamics.expm"),
    (scipy.integrate, "solve_ivp", "dynamics.adaptive"),
)

# Spans whose own time, outside every traced call below them, is the blocked
# delay scan plus the FFT.
SCAN_SPANS = ("analysis.power_spectrum", "analysis.g2")


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.csv_bytes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans, self.counts, self.csv_bytes = [], Counter(), 0

    @contextlib.contextmanager
    def span(self, name: str):
        self.counts[name] += 1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _count(self, name, fn):
        # Hot path (tens of thousands of calls per run): a count, no span.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for holder in [m for m in _MODULES if getattr(m, attr, None) is original] or [owner]:
                self._patch(holder, attr, wrapper)

        assembly = dynamics.Liouvillian.matrix
        assemble = self._wrap("dynamics.superop_assembly", assembly.fget)

        def matrix(liouvillian):
            if liouvillian._matrix is None:
                return assemble(liouvillian)
            return assembly.fget(liouvillian)

        self._patch(dynamics.Liouvillian, "matrix", property(matrix, doc=assembly.__doc__))
        self._patch(dynamics.Liouvillian, "apply", self._count("dynamics.rhs_eval", dynamics.Liouvillian.apply))
        self._patch(
            hilbert.DensityMatrix, "__init__",
            self._wrap("hilbert.density_validation", hilbert.DensityMatrix.__init__),
        )

        write_csv = self._wrap("cli.csv_write", cli._write_csv)

        def sized_write(path, *args, **kwargs):
            result = write_csv(path, *args, **kwargs)
            self.csv_bytes += os.path.getsize(path)
            return result

        self._patch(cli, "_write_csv", sized_write)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, names) -> float:
        """Time inside spans of ``names`` not covered by any traced call below them."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name in names
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the last reset."""
        c = self.counts
        return {
            "model.hamiltonian_builds": c["model.hamiltonian_build"],
            "model.hamiltonian_build_s": self.total("model.hamiltonian_build"),
            "hilbert.eigh_calls": c["hilbert.eigh"],
            "hilbert.eigh_s": self.total("hilbert.eigh"),
            "hilbert.density_validations": c["hilbert.density_validation"],
            "hilbert.density_validation_s": self.total("hilbert.density_validation"),
            "dynamics.liouvillian_build_s": self.total("dynamics.liouvillian_build"),
            "dynamics.superop_assemblies": c["dynamics.superop_assembly"],
            "dynamics.superop_assembly_s": self.total("dynamics.superop_assembly"),
            "dynamics.steady_state_s": self.total("dynamics.steady_state"),
            "dynamics.kernel_svd_calls": c["dynamics.kernel_svd"],
            "dynamics.kernel_svd_s": self.total("dynamics.kernel_svd"),
            "dynamics.lu_factor_s": self.total("dynamics.lu_factor"),
            "dynamics.expm_calls": c["dynamics.expm"],
            "dynamics.expm_s": self.total("dynamics.expm"),
            "dynamics.rhs_evals": c["dynamics.rhs_eval"],
            "dynamics.adaptive_s": self.total("dynamics.adaptive"),
            "analysis.power_spectrum_s": self.total("analysis.power_spectrum"),
            "analysis.g2_s": self.total("analysis.g2"),
            "analysis.imbalance_s": self.total("analysis.imbalance"),
            "analysis.eigen_scan_s": self.total("analysis.eigen_row"),
            "analysis.scan_self_s": self.self_time(SCAN_SPANS),
            "cli.csv_write_s": self.total("cli.csv_write"),
            "cli.csv_bytes": self.csv_bytes,
        }
