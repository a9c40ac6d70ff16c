"""Bath coupling rates in the dressed basis.

Every bath channel couples one Hermitian system operator (the cavity
quadrature or an emitter sigma_y) to its own Ohmic reservoir.  The
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

CAVITY_TAG = "cavity_X"
EMITTER_TAG = "emitter_sigma_y"


@dataclass(frozen=True)
class ChannelSpec:
    """One bath channel: coupling operator tag plus Ohmic density.

    operator_tag is "cavity_X" or "emitter_sigma_y"; the latter requires
    emitter_index.  lamb_cutoff switches the principal-value shift xi on
    and sets its hard cutoff (absolute frequency units); None disables it.
    """

    operator_tag: str
    gamma: float
    omega_ref: float
    emitter_index: int | None = None
    lamb_cutoff: float | None = None

    def __post_init__(self):
        if self.operator_tag not in (CAVITY_TAG, EMITTER_TAG):
            raise ValueError(f"unknown operator tag {self.operator_tag!r}")
        if self.operator_tag == EMITTER_TAG and self.emitter_index is None:
            raise ValueError("emitter channels need emitter_index")
        if self.gamma <= 0 or self.omega_ref <= 0:
            raise ValueError("gamma and omega_ref must be positive")
        if self.lamb_cutoff is not None and self.lamb_cutoff <= 0:
            raise ValueError("lamb_cutoff must be positive when given")


def default_channels(params, lamb_cutoff=None):
    """Cavity channel plus one channel per emitter, all with the same bath."""
    channels = [
        ChannelSpec(CAVITY_TAG, gamma=params.gamma, omega_ref=params.omega0,
                    lamb_cutoff=lamb_cutoff)
    ]
    for j in range(params.n_emitters):
        channels.append(
            ChannelSpec(EMITTER_TAG, gamma=params.gamma, omega_ref=params.omega0,
                        emitter_index=j, lamb_cutoff=lamb_cutoff)
        )
    return channels


def channel_operator(channel, ops):
    """The lab-frame coupling operator of a channel."""
    if channel.operator_tag == CAVITY_TAG:
        return ops.x
    return ops.sigma_y[channel.emitter_index]


def spectral_density(channel, omega):
    """Ohmic density gamma * omega / omega_ref for omega > 0, else 0."""
    w = np.asarray(omega, dtype=float)
    out = np.where(w > 0, channel.gamma * w / channel.omega_ref, 0.0)
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


def thermal_rate(omega, temperature, channel):
    """Emission/absorption rate chi(omega) of a channel, vectorized.

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
        out[pos] = spectral_density(channel, wp) * (_occupation_unchecked(wp, temperature) + 1.0)
    if np.any(neg):
        wn = -w[neg]
        out[neg] = spectral_density(channel, wn) * _occupation_unchecked(wn, temperature)
    out[w == 0] = channel.gamma * temperature / channel.omega_ref
    return float(out[0]) if scalar else out.reshape(np.shape(omega))


def pv_transform(omega, channel):
    """Principal-value transform of the Ohmic density at omega > 0.

    Closed form of (1/pi) P int_0^cutoff gamma(w') / (omega - w') dw'
    for the linear density; requires omega below the cutoff.
    """
    if channel.lamb_cutoff is None:
        raise ValueError("channel has no lamb_cutoff configured")
    w = np.asarray(omega, dtype=float)
    c = channel.lamb_cutoff
    if np.any(w <= 0) or np.any(w >= c):
        raise ValueError("pv_transform needs 0 < omega < lamb_cutoff")
    out = channel.gamma / (np.pi * channel.omega_ref) * (w * np.log(w / (c - w)) - c)
    return out if out.ndim else float(out)


def lamb_shift_rate(omega, temperature, channel):
    """Principal-value shift xi(omega); zero when the channel has no cutoff.

    Entries with omega exactly 0 are taken as 0 (they only rearrange a
    degenerate manifold).
    """
    w = np.asarray(omega, dtype=float)
    scalar = w.ndim == 0
    w = np.atleast_1d(w)
    out = np.zeros_like(w)
    if channel.lamb_cutoff is None:
        return 0.0 if scalar else out.reshape(np.shape(omega))
    pos = w > 0
    neg = w < 0
    if np.any(pos):
        wp = w[pos]
        out[pos] = pv_transform(wp, channel) * (_occupation_unchecked(wp, temperature) + 1.0)
    if np.any(neg):
        wn = -w[neg]
        out[neg] = -pv_transform(wn, channel) * _occupation_unchecked(wn, temperature)
    return float(out[0]) if scalar else out.reshape(np.shape(omega))


@dataclass
class RateTable:
    """Decay constants and population rates of the full channel set.

    gain[n, k] is the population rate from state k into state n (sum over
    channels); generator is the matching Pauli generator with columns
    summing to zero, acting on population column vectors.  z[n] collects
    half the total loss rate of state n, the accumulated principal-value
    shift and the state energy in its imaginary part.  channels lists the
    bath channels in input order.  The rate-equation propagator is built
    on the first g2(t) evaluation and cached on the table.
    """

    energies: np.ndarray
    temperature: float
    z: np.ndarray
    gain: np.ndarray
    generator: np.ndarray
    channels: tuple

    def __post_init__(self):
        self._propagator = None

    @property
    def dim(self):
        return self.energies.size


def build_rate_table(eig, channel_sets, temperature):
    """Combine the channels into secular decay and population rates.

    Every rate is evaluated at the difference of the group energies of
    eig, which is exactly 0 inside a degenerate level: this is the
    secular grouping of the transitions.  Frequency collisions are a
    property of eig alone (EigenSystem.collision_omegas) and do not enter
    the rates.

    Parameters
    ----------
    eig : EigenSystem
    channel_sets : list of (ChannelSpec, s_eigen)
        Each channel with its coupling operator in the eigenbasis of eig,
        eig.to_eigenbasis(channel_operator(channel, ops)).
    temperature : float

    Returns
    -------
    RateTable
    """
    dim = eig.dim
    ge = eig.group_energy[eig.group_index]
    # pair_omega[m, n] = E_n - E_m from group energies, exactly 0 inside
    # a degenerate group.
    pair_omega = ge[None, :] - ge[:, None]

    gain = np.zeros((dim, dim))
    xi_sum = np.zeros((dim, dim))
    for channel, s_eigen in channel_sets:
        chi_m = thermal_rate(pair_omega, temperature, channel)
        s2 = np.abs(s_eigen) ** 2
        np.fill_diagonal(s2, 0.0)
        # gain[n, k]: rate k -> n needs chi at E_k - E_n = pair_omega[n, k]
        gain += chi_m * s2
        if channel.lamb_cutoff is not None:
            xi_sum += lamb_shift_rate(pair_omega, temperature, channel) * s2

    loss = gain.sum(axis=0)  # total rate out of each state
    generator = gain - np.diag(loss)
    z = 0.5 * loss + 1j * (eig.energies + 0.5 * xi_sum.sum(axis=0))

    return RateTable(
        energies=eig.energies.copy(),
        temperature=temperature,
        z=z,
        gain=gain,
        generator=generator,
        channels=tuple(channel for channel, _ in channel_sets),
    )
