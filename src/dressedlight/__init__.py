"""Emission spectra and photon statistics of few emitters in a damped cavity."""

from .analytic import (
    G2Approximation,
    jc_energies,
    jc_ladder,
    scaling_energies,
    scaling_map,
    tc_energies_n2,
    tc_g2_approximation,
)
from .dissipation import (
    RateTable,
    bath_lowering,
    build_rate_table,
    thermal_rate,
)
from .dynamics import (
    DegenerateGroundError,
    DiagonalPropagator,
    StationaryState,
    stationary_state,
)
from .model import (
    DimensionLimitError,
    ModelParams,
    OperatorSet,
    build_hamiltonian,
    build_operators,
)
from .observables import (
    DarkStateError,
    G2Result,
    SpectrumResult,
    cluster_weights,
    emission_operator,
    emission_spectrum,
    g2_time,
    g2_zero,
    integrated_emission,
    spectrum_sum_rule,
)
from .pipeline import SolvedSystem, solve_system
from .qoptical import qo_g2_zero, qo_liouvillian, qo_stationary_state
from .spectral import EigenSystem, diagonalize, group_transitions

__version__ = "0.1.0"
