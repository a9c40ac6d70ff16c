"""Bath coupling rates in the dressed basis.

The cavity quadrature and every emitter sigma_y couple to their own
reservoir, and all reservoirs share one Ohmic density (Bath).  Each
coupling is S = -i A with A = L - L^T real antisymmetric, built from the
lowering operator L that bath_lowering lists for it, so the rates use
one rate function times the summed weight sum_c |<m|A_c|n>|^2.  The
emission/absorption rate at transition frequency w is

    chi(w) = gamma(w) [n(w, T) + 1]    for w > 0,
    chi(w) = gamma(-w) n(-w, T)        for w < 0,
    chi(0) = gamma T / omega_ref       (Ohmic w -> 0 limit),

with gamma(w) = gamma w / omega_ref and n the Bose occupation, so that
chi(-w) = exp(-w/T) chi(w).  The optional principal-value shift xi uses
a hard frequency cutoff and is disabled unless a cutoff is configured.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Bath:
    """Ohmic density shared by every coupling.

    lamb_cutoff switches the principal-value shift xi on and sets its hard
    cutoff (absolute frequency units); None disables it.
    """

    gamma: float
    omega_ref: float
    lamb_cutoff: float | None = None

    def __post_init__(self):
        if self.gamma <= 0 or self.omega_ref <= 0:
            raise ValueError("gamma and omega_ref must be positive")
        if self.lamb_cutoff is not None and self.lamb_cutoff <= 0:
            raise ValueError("lamb_cutoff must be positive when given")


def bath_lowering(ops):
    """Lowering operator L of every bath coupling, cavity first.

    [x0 a, sigma_minus_0, ..., sigma_minus_{N-1}]: the couplings are the
    quadrature X = -i (L_0 - L_0^T) and sigma_y_j = -i (L_j - L_j^T).
    """
    return [ops.params.x0 * ops.a, *ops.sigma_minus]


def cavity_quadrature(ops):
    """Real antisymmetric A_X = x0 (a - a^T); the quadrature is X = -i A_X."""
    return ops.params.x0 * (ops.a - ops.a.T)


def spectral_density(bath, omega):
    """Ohmic density gamma * omega / omega_ref for omega > 0, else 0."""
    w = np.asarray(omega, dtype=float)
    out = np.where(w > 0, bath.gamma * w / bath.omega_ref, 0.0)
    return out if out.ndim else float(out)


def bose_occupation(omega, temperature):
    """Thermal occupation 1 / (exp(omega/T) - 1) for omega > 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise ValueError("bose_occupation needs omega > 0")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    out = _occupation_unchecked(w, temperature)
    return out if out.ndim else float(out)


def _occupation_unchecked(w, temperature):
    # Vectorized helper for strictly positive w arrays.
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


def pv_transform(omega, bath):
    """Principal-value transform of the Ohmic density at omega > 0.

    Closed form of (1/pi) P int_0^cutoff gamma(w') / (omega - w') dw'
    for the linear density; requires omega below the cutoff.
    """
    if bath.lamb_cutoff is None:
        raise ValueError("bath has no lamb_cutoff configured")
    w = np.asarray(omega, dtype=float)
    c = bath.lamb_cutoff
    if np.any(w <= 0) or np.any(w >= c):
        raise ValueError("pv_transform needs 0 < omega < lamb_cutoff")
    out = bath.gamma / (np.pi * bath.omega_ref) * (w * np.log(w / (c - w)) - c)
    return out if out.ndim else float(out)


def lamb_shift_rate(omega, temperature, bath):
    """Principal-value shift xi(omega); zero when the bath has no cutoff.

    Entries with omega exactly 0 are taken as 0 (they only rearrange a
    degenerate manifold).
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    if bath.lamb_cutoff is None:
        return 0.0 if scalar else out.reshape(np.shape(omega))
    pos = w > 0
    neg = w < 0
    if np.any(pos):
        wp = w[pos]
        out[pos] = pv_transform(wp, bath) * (_occupation_unchecked(wp, temperature) + 1.0)
    if np.any(neg):
        wn = -w[neg]
        out[neg] = -pv_transform(wn, bath) * _occupation_unchecked(wn, temperature)
    return float(out[0]) if scalar else out.reshape(np.shape(omega))


@dataclass
class RateTable:
    """Decay constants and population rates of the bath couplings.

    gain[n, k] is the population rate from state k into state n (summed
    over the couplings); generator is the matching Pauli generator with
    columns summing to zero, acting on population column vectors.  z[n]
    collects half the total loss rate of state n, the accumulated
    principal-value shift and the state energy in its imaginary part.
    bath is the density the rates were evaluated with.
    """

    temperature: float
    z: np.ndarray
    gain: np.ndarray
    generator: np.ndarray
    bath: Bath


def build_rate_table(eig, weight, temperature, bath):
    """Secular decay and population rates of the summed couplings.

    Every rate is evaluated at the difference of the group energies of
    eig, which is exactly 0 inside a degenerate level: this is the
    secular grouping of the transitions.  Frequency collisions are a
    property of eig alone (EigenSystem.collision_omegas) and do not enter
    the rates.  All couplings share the bath, so thermal_rate (and
    lamb_shift_rate, when the bath has a cutoff) is evaluated once.

    Parameters
    ----------
    eig : EigenSystem
    weight : (D, D) float64 array
        sum_c |<m|A_c|n>|^2 over the couplings S_c = -i A_c, with A_c in
        the eigenbasis of eig (A_c = L - L^T for each L of bath_lowering).
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

    # gain[n, k]: rate k -> n needs chi at E_k - E_n = pair_omega[n, k]
    gain = thermal_rate(pair_omega, temperature, bath)
    gain *= weight
    np.fill_diagonal(gain, 0.0)
    loss = gain.sum(axis=0)  # total rate out of each state
    generator = gain - np.diag(loss)
    shift = eig.energies
    if bath.lamb_cutoff is not None:
        xi = lamb_shift_rate(pair_omega, temperature, bath) * weight
        shift = shift + 0.5 * xi.sum(axis=0)
    z = 0.5 * loss + 1j * shift

    return RateTable(
        temperature=temperature,
        z=z,
        gain=gain,
        generator=generator,
        bath=bath,
    )
