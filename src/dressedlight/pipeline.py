"""End-to-end assembly: parameters in, stationary observables out."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import observables
from .dissipation import (
    CAVITY_TAG,
    build_rate_table,
    channel_operator,
    default_channels,
)
from .dynamics import stationary_state
from .model import DEFAULT_MAX_DIM, build_hamiltonian, build_operators
from .spectral import diagonalize, group_transitions


@dataclass
class SolvedSystem:
    """All stages of one parameter point, ready for observables.

    channel_sets pairs every bath channel with its coupling operator in
    the eigenbasis.  collision_count is the number of transition
    frequencies shared by distinct level pairs, within delta_omega.
    """

    params: object
    eig: object
    channel_sets: list
    rates: object
    stationary: object
    xdot: np.ndarray
    collision_count: int

    @property
    def degenerate_levels(self):
        return self.eig.degenerate

    def integrated_emission(self):
        return observables.integrated_emission(self.eig, self.stationary, self.xdot)

    def g2_zero(self, floor=observables.DENOMINATOR_FLOOR):
        return observables.g2_zero(self.eig, self.stationary, self.xdot, floor)

    def g2_time(self, t_grid, floor=observables.DENOMINATOR_FLOOR):
        return observables.g2_time(
            self.eig, self.rates, self.stationary, t_grid, self.xdot, floor
        )

    def spectrum(self, omega_grid, weight_floor=1e-12):
        return observables.emission_spectrum(
            self.eig, self.rates, self.stationary, omega_grid, self.xdot,
            weight_floor,
        )


def solve_system(params, delta_e=None, delta_omega=None, channels=None,
                 lamb_cutoff=None, max_dim=DEFAULT_MAX_DIM):
    """Run the full dressed-basis pipeline for one parameter point.

    Parameters
    ----------
    params : ModelParams
    delta_e, delta_omega : float, optional
        Level / transition clustering tolerances; default 1e-9 omega0.
    channels : list of ChannelSpec, optional
        Bath channels; default is the cavity plus every emitter.
    lamb_cutoff : float, optional
        Enables the principal-value shift on the default channels.
    max_dim : int
        Hilbert-space size guard.

    Returns
    -------
    SolvedSystem
    """
    if delta_e is None:
        delta_e = 1e-9 * params.omega0
    if delta_omega is None:
        delta_omega = 1e-9 * params.omega0
    ops = build_operators(params, max_dim=max_dim)
    eig = diagonalize(build_hamiltonian(params, max_dim=max_dim), delta_e)
    if channels is None:
        channels = default_channels(params, lamb_cutoff=lamb_cutoff)
    channel_sets = [
        (ch, group_transitions(eig, channel_operator(ch, ops)))
        for ch in channels
    ]
    rates = build_rate_table(eig, channel_sets, params.temperature)
    stat = stationary_state(eig, rates)
    # The cavity channel already holds X in the eigenbasis.
    x_eigen = next((s for ch, s in channel_sets
                    if ch.operator_tag == CAVITY_TAG), None)
    if x_eigen is None:
        x_eigen = eig.to_eigenbasis(ops.x)
    xdot = observables.emission_operator(eig, x_eigen)
    return SolvedSystem(
        params=params,
        eig=eig,
        channel_sets=channel_sets,
        rates=rates,
        stationary=stat,
        xdot=xdot,
        collision_count=eig.collision_omegas(delta_omega).size,
    )
