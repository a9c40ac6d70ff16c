"""Closed-form benchmarks for the excitation-conserving coupling.

With the counter-rotating terms switched off the Hamiltonian is block
diagonal in the total excitation number, and the low blocks are small
enough to diagonalize by hand.  These ladders anchor the numerics, and
a few thermally weighted transition sequences give a closed-form
low-temperature estimate of the equal-time photon correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, sqrt

import numpy as np


def jc_energies(n, g):
    """Single-emitter doublet in the n-excitation sector, as (lower, upper).

    The sector splits to n -/+ sqrt(n) g; the uncoupled ground state
    completes the ladder at 0.
    """
    if n < 1:
        raise ValueError("sector index must be >= 1")
    split = sqrt(n) * g
    return (n - split, n + split)


def jc_ladder(max_sector, g):
    """All single-emitter levels through the given sector, ascending."""
    levels = [0.0]
    for n in range(1, max_sector + 1):
        levels.extend(jc_energies(n, g))
    return np.sort(np.asarray(levels))


def tc_energies_n2(n, g):
    """Two-emitter sector energies without counter-rotating terms, sorted.

    Sector n holds one state (n = 0), three (n = 1) or four (n >= 2).
    The antisymmetric emitter combination decouples and contributes the
    coupling-independent value n for n >= 1, degenerate for n >= 2 with
    the middle symmetric level.
    """
    if n < 0:
        raise ValueError("sector index must be >= 0")
    if n == 0:
        return np.array([0.0])
    if n == 1:
        split = sqrt(2.0) * g
        return np.sort(np.array([1.0 - split, 1.0, 1.0 + split]))
    split = sqrt(2.0) * sqrt(2.0 * n - 1.0) * g
    return np.sort(np.array([n - split, float(n), float(n), n + split]))


def scaling_energies(n_emitters, g):
    """Lowest two excited multiplets of the symmetric sector.

    Returns (first, second): the one-excitation pair 1 -/+ sqrt(N) g and
    the two-excitation set, which is a pair 2 -/+ sqrt(2) g for a single
    emitter and the triple {2, 2 -/+ sqrt(2) sqrt(2N-1) g} otherwise.
    The triple diagonalizes the tridiagonal symmetric-sector block with
    couplings sqrt(2N) g and sqrt(2(N-1)) g, so both splittings grow
    like sqrt(N) g.
    """
    if n_emitters < 1:
        raise ValueError("n_emitters must be >= 1")
    s1 = sqrt(n_emitters) * g
    first = np.array([1.0 - s1, 1.0 + s1])
    if n_emitters == 1:
        s2 = sqrt(2.0) * g
        second = np.array([2.0 - s2, 2.0 + s2])
    else:
        s2 = sqrt(2.0) * sqrt(2.0 * n_emitters - 1.0) * g
        second = np.array([2.0 - s2, 2.0, 2.0 + s2])
    return first, np.sort(second)


def scaling_map(n_emitters, g, limit):
    """Equivalent single-emitter coupling reproducing the low spectrum.

    Without counter-rotating terms the one-excitation splitting fixes
    g -> sqrt(N) g; with them the relevant collective coupling grows
    linearly, g -> N g.
    """
    if limit == "tc":
        return sqrt(n_emitters) * g
    if limit == "dicke":
        return n_emitters * g
    raise ValueError("limit must be 'tc' or 'dicke'")


@dataclass(frozen=True)
class G2Approximation:
    """Closed-form g2(0) estimate with its validity flag.

    trusted is False above the coupling where the second and third
    excited levels cross and the transition bookkeeping changes.
    """

    value: float
    trusted: bool
    crossing_g: float

    def __float__(self):
        return self.value


def tc_g2_approximation(g, temperature, refined=False):
    """Low-temperature estimate of g2(0) for one emitter, rotating coupling.

    Sums the decay sequences from the thermally weighted one- and
    two-excitation doublets to the ground state.  The basic variant
    takes only the lower doublet of each sector as populated; the
    refined variant adds the upper ones.  Valid well below the crossing
    coupling 1 / (1 + sqrt(2)).
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if g < 0:
        raise ValueError("g must be non-negative")
    beta = 1.0 / temperature
    r2 = sqrt(2.0)

    # Doublets |n, s> = (|n, g> + s |n-1, e>) / sqrt(2) at energies
    # n + s sqrt(n) g; a has <0|a|1 s> = 1 / sqrt(2) and
    # <1 s1|a|2 s2> = (sqrt(2) + s1 s2) / 2, and each emission
    # element carries the transition frequency.
    signs = (-1.0, +1.0)
    populated = signs if refined else (-1.0,)
    e_one = {s: 1.0 + s * g for s in signs}
    e_two = {s: 2.0 + s * r2 * g for s in signs}
    denominator = sum(0.5 * e_one[s] ** 2 * exp(-beta * e_one[s])
                      for s in populated)
    # each two-excitation doublet decays through both one-excitation ones
    numerator = sum(
        sum(e_one[s1] / r2 * (e_two[s2] - e_one[s1]) * (r2 + s1 * s2) / 2.0
            for s1 in signs) ** 2 * exp(-beta * e_two[s2])
        for s2 in populated)

    crossing = 1.0 / (1.0 + r2)
    return G2Approximation(
        value=float(numerator / denominator**2),
        trusted=bool(g < crossing),
        crossing_g=crossing,
    )
