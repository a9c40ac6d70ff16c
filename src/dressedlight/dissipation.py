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

from .spectral import BlockPairs

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
    # one copy of omega and, at T > 0, one denominator: the ufuncs run in
    # place (a 0-d copy stays an array, where omega / T would be a scalar)
    out = np.array(omega, dtype=float)
    if temperature == 0:
        np.maximum(out, 0.0, out=out)
        out *= gamma
    else:
        out /= temperature
        zero, frozen = out == 0, out <= -EXP_UNDERFLOW
        d = np.maximum(out, -EXP_UNDERFLOW, out=np.empty_like(out))
        np.negative(np.expm1(np.negative(d, out=d), out=d), out=d)
        out[zero] = d[zero] = 1.0  # the omega -> 0 limit, gamma T
        out /= d
        out[frozen] = 0.0
        out *= gamma * temperature
    return out if out.ndim else float(out)


@dataclass
class RateTable:
    """Decay constants and population rates of the bath couplings.

    generator is the Pauli generator acting on population column vectors,
    as spectral.BlockPairs: pair (b, c) holds the population rates from
    the levels of block c into those of block b (summed over the
    couplings), zero on the diagonal, and generator.diagonal is minus the
    total loss rate of each level, so the columns sum to zero.  z[n] is
    half the total loss rate of state n plus i times its energy.  gamma is
    the Ohmic damping the rates were evaluated with.
    """

    temperature: float
    z: np.ndarray
    generator: BlockPairs
    gamma: float


def build_rate_table(eig, weight, temperature, gamma):
    """Secular decay and population rates of the summed couplings.

    Every rate is evaluated at the difference of the group energies of
    eig, which is exactly 0 inside a degenerate level: this is the
    secular grouping of the transitions.  Frequency collisions
    (spectral.count_collisions) do not enter the rates.  All couplings
    share the bath, so thermal_rate is evaluated once, on the frequencies
    of every pair of weight; with weight, the frequencies and their rates
    are the peak of a solve where the blocks are large (dicke).

    Parameters
    ----------
    eig : EigenSystem
    weight : spectral.BlockPairs
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
    levels = weight.levels
    # gain[n, k]: rate k -> n needs chi at E_k - E_n, from group energies,
    # exactly 0 inside a degenerate group
    gain = thermal_rate(np.concatenate(
        [(ge[levels[c]] - ge[levels[b], None]).ravel() for b, c in weight]),
        temperature, gamma)
    generator = BlockPairs(levels)
    loss = np.zeros(ge.size)  # total rate out of each state
    start = 0
    for (b, c), w in weight.items():
        rate = gain[start:start + w.size].reshape(w.shape)
        start += w.size
        rate *= w
        if b == c:
            np.fill_diagonal(rate, 0.0)
        loss[levels[c]] += rate.sum(axis=0)
        generator[b, c] = rate
    generator.diagonal = -loss
    z = 0.5 * loss + 1j * eig.energies

    return RateTable(
        temperature=temperature,
        z=z,
        generator=generator,
        gamma=gamma,
    )
