"""End-to-end assembly: parameters in, stationary observables out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .dissipation import Bath, bath_lowering, build_rate_table
from .dynamics import stationary_state
from .model import build_hamiltonian, build_operators
from .spectral import diagonalize, group_transitions, level_tolerance


@dataclass
class SolvedSystem:
    """All stages of one parameter point, ready for observables.

    eig holds the levels, eigenvectors and degenerate groups (its
    degenerate flag says whether any group has more than one level);
    rates and stationary hold the Pauli rates and Boltzmann populations
    over those levels, and xdot the emission operator in the eigenbasis.
    collision_count is the number of transition frequencies shared by
    distinct level pairs, within level_tolerance(omega0).
    """

    params: object
    eig: object
    rates: object
    stationary: object
    xdot: np.ndarray
    collision_count: int

    def integrated_emission(self):
        return observables.integrated_emission(self.stationary, self.xdot)

    def g2_zero(self):
        return observables.g2_zero(self.stationary, self.xdot)

    def g2_time(self, t_grid):
        return observables.g2_time(
            self.rates, self.stationary, t_grid, self.xdot
        )

    def spectrum(self, omega_grid):
        return observables.emission_spectrum(
            self.rates, self.stationary, omega_grid, self.xdot
        )


def solve_system(params):
    """Run the full dressed-basis pipeline for one parameter point.

    Levels and transition frequencies are clustered within
    level_tolerance(omega0) = 1e-9 omega0.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    SolvedSystem
    """
    ops = build_operators(params)
    eig = diagonalize(build_hamiltonian(params),
                      level_tolerance(params.omega0))
    couplings = (group_transitions(eig, lower)
                 for lower in bath_lowering(ops))
    # bath_lowering lists the cavity first: A_X in the eigenbasis
    a_eigen = next(couplings)
    weight = a_eigen * a_eigen
    for coupling in couplings:
        weight += coupling * coupling
    rates = build_rate_table(
        eig, weight, params.temperature,
        Bath(params.gamma, params.omega0))
    stat = stationary_state(eig, rates)
    xdot = observables.emission_operator(eig, a_eigen)
    return SolvedSystem(
        params=params,
        eig=eig,
        rates=rates,
        stationary=stat,
        xdot=xdot,
        collision_count=eig.collision_omegas().size,
    )
