"""End-to-end assembly: parameters in, stationary observables out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .dissipation import Bath, bath_lowering, build_rate_table
from .dynamics import stationary_state
from .model import build_hamiltonian, build_operators
from .spectral import diagonalize, group_transitions


@dataclass
class SolvedSystem:
    """All stages of one parameter point, ready for observables.

    coupling_weight is sum_c |<m|A_c|n>|^2 over the bath couplings
    S_c = -i A_c in the eigenbasis, the weight build_rate_table takes.
    collision_count is the number of transition frequencies shared by
    distinct level pairs, within 1e-9 omega0.
    """

    params: object
    eig: object
    coupling_weight: np.ndarray
    rates: object
    stationary: object
    xdot: np.ndarray
    collision_count: int

    @property
    def degenerate_levels(self):
        return self.eig.degenerate

    def integrated_emission(self):
        return observables.integrated_emission(self.stationary, self.xdot)

    def g2_zero(self, floor=observables.DENOMINATOR_FLOOR):
        return observables.g2_zero(self.stationary, self.xdot, floor)

    def g2_time(self, t_grid, floor=observables.DENOMINATOR_FLOOR):
        return observables.g2_time(
            self.rates, self.stationary, t_grid, self.xdot, floor
        )

    def spectrum(self, omega_grid, weight_floor=1e-12):
        return observables.emission_spectrum(
            self.rates, self.stationary, omega_grid, self.xdot, weight_floor
        )


def solve_system(params, lamb_cutoff=None):
    """Run the full dressed-basis pipeline for one parameter point.

    Levels and transition frequencies are clustered within 1e-9 omega0.

    Parameters
    ----------
    params : ModelParams
    lamb_cutoff : float, optional
        Enables the principal-value shift of the bath with this cutoff.

    Returns
    -------
    SolvedSystem
    """
    tol = 1e-9 * params.omega0
    ops = build_operators(params)
    eig = diagonalize(build_hamiltonian(params), tol)
    couplings = (group_transitions(eig, lower - lower.T)
                 for lower in bath_lowering(ops))
    # bath_lowering lists the cavity first: A_X in the eigenbasis
    a_eigen = next(couplings)
    weight = a_eigen * a_eigen
    for coupling in couplings:
        weight += coupling * coupling
    rates = build_rate_table(
        eig, weight, params.temperature,
        Bath(params.gamma, params.omega0, lamb_cutoff))
    stat = stationary_state(eig, rates)
    xdot = observables.emission_operator(eig, a_eigen)
    return SolvedSystem(
        params=params,
        eig=eig,
        coupling_weight=weight,
        rates=rates,
        stationary=stat,
        xdot=xdot,
        collision_count=eig.collision_omegas(tol).size,
    )
