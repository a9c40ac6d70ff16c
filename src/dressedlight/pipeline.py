"""End-to-end assembly: parameters in, stationary observables out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .dissipation import bath_lowering, build_rate_table
from .dynamics import stationary_state
from .model import build_hamiltonian, build_operators
from .spectral import diagonalize, group_transitions


@dataclass
class SolvedSystem:
    """All stages of one parameter point, ready for observables.

    eig holds the levels, eigenvectors and degenerate groups (its
    degenerate flag says whether any group has more than one level);
    rates and stationary hold the Pauli rates and Boltzmann populations
    over those levels, and xdot the emission operator in the eigenbasis.
    collision_count is the number of transition frequencies shared by
    distinct level pairs, within spectral.LEVEL_TOL.
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

    def cutoff_tail(self):
        """Stationary population of the top Fock state n = n_max.

        sum_m p_m sum_{i: fock(i) = n_max} |V[i, m]|^2, where V holds the
        eigenvectors; a tail that is not small says the cutoff truncates
        the state.
        """
        half = self.params.n_max + 1
        top = self.eig.vectors[np.arange(half - 1, self.params.dim, half)]
        return float((top * top).sum(axis=0)
                     @ self.stationary.populations)


def solve_system(params):
    """Run the full dressed-basis pipeline for one parameter point.

    Levels and transition frequencies are clustered within
    spectral.LEVEL_TOL = 1e-9 omega0.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    SolvedSystem
    """
    ops = build_operators(params)
    eig = diagonalize(build_hamiltonian(ops))
    # counted first, so its temporaries do not stack on the couplings
    collision_count = eig.collision_omegas().size
    couplings = (group_transitions(eig, lower)
                 for lower in bath_lowering(ops))
    # bath_lowering lists the cavity first: A_X in the eigenbasis
    a_eigen = next(couplings)
    weight = a_eigen * a_eigen
    for coupling in couplings:
        weight += coupling * coupling
    rates = build_rate_table(eig, weight, params.temperature, params.gamma)
    stat = stationary_state(eig, rates)
    xdot = observables.emission_operator(eig, a_eigen)
    return SolvedSystem(
        params=params,
        eig=eig,
        rates=rates,
        stationary=stat,
        xdot=xdot,
        collision_count=collision_count,
    )
