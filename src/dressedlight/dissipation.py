"""Bath coupling rates in the dressed basis.

The cavity quadrature and every emitter sigma_y couple to their own
reservoir, and all reservoirs share one Ohmic density (Bath).  Each
coupling is S = -i A with A = L - L^T real antisymmetric, from the index
map of the lowering operator L that bath_lowering lists for it
(spectral.group_transitions gives A in the eigenbasis), so the rates use
one rate function times the summed weight sum_c |<m|A_c|n>|^2.  The
emission/absorption rate at transition frequency w is

    chi(w) = gamma(w) [n(w, T) + 1]    for w > 0,
    chi(w) = gamma(-w) n(-w, T)        for w < 0,
    chi(0) = gamma T / omega_ref       (Ohmic w -> 0 limit),

with gamma(w) = gamma w / omega_ref and n the Bose occupation, so that
chi(-w) = exp(-w/T) chi(w).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Bath:
    """Ohmic density gamma * omega / omega_ref shared by every coupling."""

    gamma: float
    omega_ref: float

    def __post_init__(self):
        if self.gamma <= 0 or self.omega_ref <= 0:
            raise ValueError("gamma and omega_ref must be positive")


def bath_lowering(ops):
    """Index map of the lowering operator L of every bath coupling.

    [x0 a, sigma_minus_0, ..., sigma_minus_{N-1}], cavity first: the
    couplings are the quadrature X = -i (L_0 - L_0^T) and
    sigma_y_j = -i (L_j - L_j^T).
    """
    return [ops.a._replace(amp=ops.params.x0 * ops.a.amp), *ops.sigma_minus]


def spectral_density(bath, omega):
    """Ohmic density gamma * omega / omega_ref for omega > 0, else 0."""
    w = np.asarray(omega, dtype=float)
    out = np.where(w > 0, bath.gamma * w / bath.omega_ref, 0.0)
    return out if out.ndim else float(out)


def _occupation_unchecked(w, temperature):
    # Bose occupation for thermal_rate; w is a strictly positive array.
    if temperature == 0:
        return np.zeros_like(w)
    x = w / temperature
    out = np.zeros_like(w)
    small = x < 700  # exp overflow guard; occupation is 0 beyond
    out[small] = 1.0 / np.expm1(x[small])
    return out


def thermal_rate(omega, temperature, bath):
    """Emission/absorption rate chi(omega) of the bath, vectorized.

    Entries with omega exactly 0 get the Ohmic zero-frequency limit
    gamma * T / omega_ref.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    pos = w > 0
    neg = w < 0
    if np.any(pos):
        wp = w[pos]
        out[pos] = spectral_density(bath, wp) * (_occupation_unchecked(wp, temperature) + 1.0)
    if np.any(neg):
        wn = -w[neg]
        out[neg] = spectral_density(bath, wn) * _occupation_unchecked(wn, temperature)
    out[w == 0] = bath.gamma * temperature / bath.omega_ref
    return float(out[0]) if scalar else out.reshape(np.shape(omega))


@dataclass
class RateTable:
    """Decay constants and population rates of the bath couplings.

    generator is the Pauli generator acting on population column vectors:
    off the diagonal, generator[n, k] is the population rate from state k
    into state n (summed over the couplings), and its columns sum to
    zero.  z[n] is half the total loss rate of state n plus i times its
    energy.  bath is the density the rates were evaluated with.
    """

    temperature: float
    z: np.ndarray
    generator: np.ndarray
    bath: Bath


def build_rate_table(eig, weight, temperature, bath):
    """Secular decay and population rates of the summed couplings.

    Every rate is evaluated at the difference of the group energies of
    eig, which is exactly 0 inside a degenerate level: this is the
    secular grouping of the transitions.  Frequency collisions are a
    property of eig alone (EigenSystem.collision_omegas) and do not enter
    the rates.  All couplings share the bath, so thermal_rate is
    evaluated once.

    Parameters
    ----------
    eig : EigenSystem
    weight : (D, D) float64 array
        sum_c |<m|A_c|n>|^2 over the couplings S_c = -i A_c, with A_c in
        the eigenbasis of eig (spectral.group_transitions of each L of
        bath_lowering).
    temperature : float
    bath : Bath

    Returns
    -------
    RateTable
    """
    ge = eig.group_energy[eig.group_index]
    # pair_omega[m, n] = E_n - E_m from group energies, exactly 0 inside
    # a degenerate group.
    pair_omega = ge[None, :] - ge[:, None]

    # generator[n, k]: rate k -> n needs chi at E_k - E_n = pair_omega[n, k]
    generator = thermal_rate(pair_omega, temperature, bath)
    generator *= weight
    np.fill_diagonal(generator, 0.0)
    loss = generator.sum(axis=0)  # total rate out of each state
    np.fill_diagonal(generator, -loss)
    z = 0.5 * loss + 1j * eig.energies

    return RateTable(
        temperature=temperature,
        z=z,
        generator=generator,
        bath=bath,
    )
