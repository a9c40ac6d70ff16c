"""Time evolution of the dressed-basis density matrix.

Populations follow the Pauli rate equation dp/dt = G p; every
off-diagonal element (m, n) decouples and decays with the factor
exp(-(z_m + conj(z_n)) t), whose imaginary part carries the transition
phase.  The stationary state of the rate equation is the Boltzmann
distribution over the dressed levels, and the rates obey detailed
balance with respect to it, so the rate equation is propagated through
one symmetric eigendecomposition (van Kampen, Stochastic Processes in
Physics and Chemistry).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .dissipation import EXP_UNDERFLOW
from .spectral import BlockPairs

# Allowed detailed-balance violation max|G_nk p_k - G_kn p_n|, relative to
# max|G_nk p_k|.  Rates use group energies and weights level energies, so
# levels merged within spectral.LEVEL_TOL = 1e-9 break the balance by up
# to LEVEL_TOL / T; 1e-6 admits temperatures down to T = 1e-3.  A
# generator without detailed balance is off by O(1).
BALANCE_TOL = 1e-6
# Eigenvalues of K within this fraction of the largest |mu| count as
# stationary modes, not relaxation.
GAP_ZERO_TOL = 1e-12
# Largest max|G p| accepted for the Boltzmann populations p; above it the
# rates are inconsistent with the levels they were built from.
RESIDUAL_TOL = 1e-9
# (delay, pair) or (frequency, peak) elements evaluated at a time: 0.5 MB
CHUNK_ELEMENTS = 2**16


class DegenerateGroundError(ValueError):
    """T = 0 with a degenerate ground level: stationary limit undefined."""


@dataclass
class StationaryState:
    """Thermal populations over the dressed levels plus the rate residual."""

    populations: np.ndarray
    temperature: float
    residual: float


def stationary_state(eig, rates):
    """Boltzmann distribution over the dressed levels.

    Verifies that the distribution is annihilated by the Pauli generator
    (G p formed pair by pair) and records the residual; a residual above
    RESIDUAL_TOL raises, since it indicates inconsistent rates.
    """
    energies = eig.energies
    if rates.temperature == 0:
        if np.count_nonzero(eig.group_index == 0) > 1:
            raise DegenerateGroundError(
                "degenerate ground level at T = 0; populations undefined"
            )
        p = np.zeros(energies.size)
        p[0] = 1.0
    else:
        shifted = (energies - energies[0]) / rates.temperature
        p = np.zeros(energies.size)
        keep = shifted < EXP_UNDERFLOW
        p[keep] = np.exp(-shifted[keep])
        p /= p.sum()
    residual = float(np.max(np.abs(rates.generator @ p)))
    if residual > RESIDUAL_TOL:
        raise RuntimeError(
            f"stationary residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return StationaryState(populations=p, temperature=rates.temperature,
                           residual=residual)


class DiagonalPropagator:
    """exp(G t) applied to population vectors, from one symmetric eigh.

    The Pauli generator G obeys detailed balance with respect to the
    stationary populations p: G_nk p_k = G_kn p_n.  With D = diag(p) the
    matrix K = D^(-1/2) G D^(1/2) is therefore symmetric, with
    K_nk = sqrt(G_nk G_kn) off the diagonal and K_nn = G_nn, and one
    eigh K = U diag(mu) U^T gives, for every t,
    exp(G t) = D^(1/2) U diag(exp(mu t)) U^T D^(-1/2).

    generator is RateTable.generator, spectral.BlockPairs with the
    diagonal: balance is checked pair by pair against the transposed pair,
    and K, dense over the populated levels, is scattered from the pairs.
    Levels whose Boltzmann weight underflows to zero are left out of K;
    the couplings dropped with them carry weight ~exp(-700).  Start
    vectors with weight on such levels are rejected.  At T = 0 the
    generator is triangular and has no symmetrization, so it is rejected
    too.
    """

    def __init__(self, generator, stationary):
        if stationary.temperature == 0:
            raise ValueError(
                "T = 0 rates have no detailed-balance symmetrization"
            )
        p = stationary.populations
        blocks = generator.levels
        # pair by pair against the transposed pair: no D x D array
        violation = 0.0
        scale = np.abs(generator.diagonal * p).max()
        for (b, c), g in generator.items():
            flux = g * p[blocks[c]]
            scale = max(scale, np.abs(flux).max())
            if (c, b) in generator:
                flux -= generator[c, b].T * p[blocks[b], None]
            violation = max(violation, np.abs(flux).max())
        if violation > BALANCE_TOL * scale:
            raise ValueError(
                f"generator violates detailed balance by {violation:.3e}"
            )
        self._dropped = p == 0
        self.levels = np.flatnonzero(~self._dropped)
        # K over the populated levels, scattered from the pairs
        at = np.cumsum(~self._dropped) - 1
        k = np.zeros((self.levels.size, self.levels.size))
        for (b, c), g in generator.items():
            if (c, b) in generator:
                rows, cols = (~self._dropped[blocks[b]],
                              ~self._dropped[blocks[c]])
                k[np.ix_(at[blocks[b][rows]], at[blocks[c][cols]])] = (
                    np.sqrt(g * generator[c, b].T)[np.ix_(rows, cols)])
        np.fill_diagonal(k, generator.diagonal[self.levels])
        self.eigenvalues, u = scipy.linalg.eigh(k)
        self._p = p[self.levels]
        # D^(1/2) U; U^T D^(-1/2) is its transpose times D^(-1)
        self._left = np.sqrt(self._p)[:, None] * u

    @property
    def relaxation_gap(self):
        """Slowest nonzero relaxation rate, the smallest nonzero -mu."""
        decay = -self.eigenvalues
        nonzero = decay[decay > GAP_ZERO_TOL * np.abs(decay).max()]
        return float(nonzero.min()) if nonzero.size else 0.0

    def weighted_curve(self, weights, p0, times):
        """sum_n weights[n] * (exp(G t) p0)[n] for every t, vectorized."""
        p0 = np.asarray(p0)
        if np.any(p0[self._dropped] != 0):
            raise ValueError(
                "start vector has weight on levels with zero Boltzmann weight"
            )
        times = np.asarray(times, dtype=float)
        levels = self.levels
        # one amplitude per mode of K
        u = ((np.asarray(weights)[levels] @ self._left)
             * (self._left.T @ (p0[levels] / self._p)))
        return np.exp(np.multiply.outer(times, self.eigenvalues)) @ u


def _diagonal(pairs, dim):
    """The diagonal of BlockPairs that have no diagonal array, (dim,)."""
    out = np.zeros(dim)
    for b, levels in enumerate(pairs.levels):
        if (b, b) in pairs:
            out[levels] = np.diag(pairs[b, b])
    return out


def _coherences(rho, observable):
    """Elements m < n of observable^T * rho plus its transpose.

    Returns (rows, cols, coefficients) of the nonzero ones: the coefficient
    of (m, n) is observable[n, m] rho[m, n] + observable[m, n] rho[n, m].
    """
    levels = rho.levels
    upper = BlockPairs(levels)
    for (b, c), r in rho.items():
        if (c, b) in observable:
            term = observable[c, b].T * r
            upper.add((b, c), term * (levels[b][:, None] < levels[c]))
            upper.add((c, b), term.T * (levels[c][:, None] < levels[b]))
    return upper.elements()


class RegressionEvolver:
    """Two-time expectation values through the quantum regression rule.

    rho and observable are real spectral.BlockPairs on the same levels, in
    the eigenbasis of the rates.  The evolver keeps what it needs to
    evaluate Re Tr[observable * Phi_t(rho)] for a batch of times, where
    Phi_t propagates the diagonal of rho through the rate equation and
    each off-diagonal element (m, n) through exp(-(z_m + conj(z_n)) t).
    Only the pairs of blocks where rho and the transposed observable both
    have elements contribute.  For real rho and observable the (m, n) and
    (n, m) terms sum to a real coefficient times exp(-gamma t)
    cos(omega t), with gamma = Re z_m + Re z_n and
    omega = Im z_m - Im z_n, so only the elements m < n are stored.
    """

    def __init__(self, rates, stationary, rho, observable):
        self._obs_diag = _diagonal(observable, rates.z.size)
        self._rho_diag = _diagonal(rho, rates.z.size)
        rows, cols, self._coeff = _coherences(rho, observable)
        self._rate = rates.z.real[rows] + rates.z.real[cols]
        self._omega = rates.z.imag[rows] - rates.z.imag[cols]
        self.propagator = DiagonalPropagator(rates.generator, stationary)

    def curve(self, times):
        """Expectation value at every time, as a float64 array."""
        times = np.asarray(times, dtype=float)
        out = self.propagator.weighted_curve(self._obs_diag, self._rho_diag,
                                             times)
        # at most CHUNK_ELEMENTS (time, pair) elements at a time
        chunk = max(1, CHUNK_ELEMENTS // max(1, self._coeff.size))
        for start in range(0, times.size, chunk):
            t = times[start:start + chunk, None]
            out[start:start + chunk] += (
                np.exp(-t * self._rate) * np.cos(t * self._omega)
            ) @ self._coeff
        return out
