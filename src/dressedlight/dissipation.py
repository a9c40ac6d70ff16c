"""Bath coupling rates in the dressed basis.

The cavity quadrature and every emitter sigma_y couple to their own
reservoir, and all reservoirs share one Ohmic density gamma w.  Each
coupling is S = -i A with A = L - L^T real antisymmetric, from the index
map of the lowering operator L that bath_lowering lists for it
(spectral.group_transitions gives A in the eigenbasis), so the rates use
one rate function times the summed weight sum_c |<m|A_c|n>|^2.  The
emission/absorption rate at transition frequency w is

    chi(w) = gamma |w| [n(|w|, T) + 1]  for w > 0,
    chi(w) = gamma |w| n(|w|, T)        for w < 0,

with n the Bose occupation and w in units of omega0.  Both branches are
the one expression

    chi(w) = gamma T x / (1 - exp(-x)),  x = w / T,

whose w -> 0 limit is the Ohmic gamma T and which makes detailed balance
chi(-w) = exp(-w/T) chi(w) an identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# exp(-x) counts as exactly 0 from x = EXP_UNDERFLOW on (subnormal at 708)
EXP_UNDERFLOW = 700.0


def bath_lowering(ops):
    """Index map of the lowering operator L of every bath coupling.

    [x0 a, sigma_minus_0, ..., sigma_minus_{N-1}], cavity first: the
    couplings are the quadrature X = -i (L_0 - L_0^T) and
    sigma_y_j = -i (L_j - L_j^T).
    """
    return [ops.a._replace(amp=ops.params.x0 * ops.a.amp), *ops.sigma_minus]


def thermal_rate(omega, temperature, gamma):
    """Emission/absorption rate chi(omega) of the bath, vectorized.

    chi = gamma T x / (1 - exp(-x)) with x = omega / T, which is gamma T
    at omega = 0 and exactly 0 for x <= -EXP_UNDERFLOW; at T = 0 it is
    gamma max(omega, 0).  gamma is the Ohmic damping strength, > 0.
    """
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    w = np.asarray(omega, dtype=float)
    if temperature == 0:
        out = gamma * np.maximum(w, 0.0)
    else:
        x = w / temperature
        out = np.divide(x, -np.expm1(-np.maximum(x, -EXP_UNDERFLOW)),
                        out=np.ones_like(x), where=x != 0)
        out[x <= -EXP_UNDERFLOW] = 0.0
        out *= gamma * temperature
    return out if out.ndim else float(out)


@dataclass
class RateTable:
    """Decay constants and population rates of the bath couplings.

    generator is the Pauli generator acting on population column vectors:
    off the diagonal, generator[n, k] is the population rate from state k
    into state n (summed over the couplings), and its columns sum to
    zero.  z[n] is half the total loss rate of state n plus i times its
    energy.  gamma is the Ohmic damping the rates were evaluated with.
    """

    temperature: float
    z: np.ndarray
    generator: np.ndarray
    gamma: float


def build_rate_table(eig, weight, temperature, gamma):
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
    gamma : float
        Ohmic damping strength of the bath.

    Returns
    -------
    RateTable
    """
    ge = eig.group_energy[eig.group_index]
    # pair_omega[m, n] = E_n - E_m from group energies, exactly 0 inside
    # a degenerate group.
    pair_omega = ge[None, :] - ge[:, None]

    # generator[n, k]: rate k -> n needs chi at E_k - E_n = pair_omega[n, k]
    generator = thermal_rate(pair_omega, temperature, gamma)
    generator *= weight
    np.fill_diagonal(generator, 0.0)
    loss = generator.sum(axis=0)  # total rate out of each state
    np.fill_diagonal(generator, -loss)
    z = 0.5 * loss + 1j * eig.energies

    return RateTable(
        temperature=temperature,
        z=z,
        generator=generator,
        gamma=gamma,
    )
