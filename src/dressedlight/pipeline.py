"""End-to-end assembly: parameters in, stationary observables out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .dissipation import RateTable, bath_lowering, build_rate_table
from .dynamics import StationaryState, stationary_state
from .model import ModelParams, build_hamiltonian, build_operators
from .spectral import (BlockPairs, EigenSystem, diagonalize,
                       group_transitions, total_spin_gauge)


@dataclass
class SolvedSystem:
    """All stages of one parameter point, ready for observables.

    eig holds the levels, their degenerate groups (its degenerate flag
    says whether any group has more than one level) and the eigenvectors
    by block, the vectors of each group rotated onto total-spin
    eigenvectors; rates and stationary hold the Pauli rates and Boltzmann
    populations over those levels, and xdot the emission operator in the
    eigenbasis.  collision_count is the number of transition frequencies
    shared by distinct level pairs, within spectral.LEVEL_TOL.
    """

    params: ModelParams
    eig: EigenSystem
    rates: RateTable
    stationary: StationaryState
    xdot: BlockPairs
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
            self.rates, self.stationary, omega_grid, self.xdot,
            self.eig.group_index
        )

    def cutoff_tail(self):
        """Stationary population of the top Fock state n = n_max.

        sum_m p_m sum_{i: fock(i) = n_max} |V[i, m]|^2, with V the
        eigenvectors (spectral.EigenSystem.weight_on); a tail that is not
        small says the cutoff truncates the state.  V is exactly zero
        outside the block of each level, so the tail is the physical one,
        not eigh round-off.
        """
        half = self.params.n_max + 1
        top = np.arange(half - 1, self.params.dim, half)
        return float(self.eig.weight_on(top) @ self.stationary.populations)


def solve_system(params):
    """Run the full dressed-basis pipeline for one parameter point.

    H is diagonalized block by block (spectral.diagonalize), and inside
    each degenerate level the basis is fixed to eigenvectors of the total
    spin J^2 (spectral.total_spin_gauge) before any coupling is
    transformed.  Levels and transition frequencies are clustered within
    spectral.LEVEL_TOL = 1e-9 omega0.

    Parameters
    ----------
    params : ModelParams

    Returns
    -------
    SolvedSystem
    """
    ops = build_operators(params)
    eig = total_spin_gauge(diagonalize(build_hamiltonian(ops)),
                           ops.sigma_minus)
    # counted first, so its temporaries do not stack on the couplings
    collision_count = eig.collision_omegas().size
    # bath_lowering lists the cavity first: A_X in the eigenbasis
    cavity, *emitters = bath_lowering(ops)
    a_eigen = group_transitions(eig, cavity)
    weight = BlockPairs(eig.levels, {key: a * a for key, a in a_eigen.items()})
    for lower in emitters:
        # one coupling at a time, squared in place and summed pair by pair
        for key, a in group_transitions(eig, lower).items():
            weight.add(key, np.square(a, out=a))
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
