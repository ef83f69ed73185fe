"""Simulator for two coupled resonators interacting with a flux qubit.

Builds the system Hamiltonians (laboratory, effective-mode and dimensionless
forms), evolves the Lindblad master equation with thermal cavity baths, and
computes the production observables: eigenvalue scans, heterodyne power
spectra, second-order coherence functions and photon population imbalance.
"""

from .analysis import (
    EigenScanTable,
    WindowScan,
    eigen_scan,
    g2,
    imbalance,
    power_spectrum,
    single_mode_window,
    spectrum_peaks,
)
from .dynamics import (
    DissipationParams,
    Liouvillian,
    Trajectory,
    build_liouvillian,
    correlation,
    evolve,
    liouvillian_from_operators,
    steady_state,
)
from .errors import (
    DegenerateModelError,
    DegenerateSteadyStateError,
    JTCQEDError,
    NonStationaryStateError,
    UndefinedCoherenceError,
    ValidationError,
)
from .hilbert import (
    DensityMatrix,
    QOperator,
    SpaceSpec,
    annihilation,
    basis_ket,
    commutator,
    eigen_lowest,
    eigen_lowest_states,
    expectation,
    identity,
    number_operator,
    pauli,
    qubit_lowering,
)
from .model import (
    EffectiveParams,
    ModelParams,
    build_dimensionless_hamiltonian,
    build_effective_hamiltonian,
    build_raw_hamiltonian,
    derive_effective,
    dimensionless_couplings,
    params_from_dimensionless,
    unbounded_below,
)
from .series import CorrelationSeries, ImbalanceSeries, SpectrumSeries

__version__ = "0.1.0"
