"""Emission spectrum and photon statistics of the cavity output.

The emitted field is represented by the lowering part of the time
derivative of the cavity quadrature X = -i A_X, built in the dressed
basis: element (m, n) is -i (E_n - E_m) <m|X|n> = (E_m - E_n) <m|A_X|n>,
a real number, for E_n > E_m and zero otherwise.  The stationary
spectrum is a sum of Lorentzians, one per dressed transition, and the
degree-two correlation function follows from the regression rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dissipation import thermal_rate
from .dynamics import CHUNK_ELEMENTS, RegressionEvolver
from .spectral import BlockPairs, gap_clusters

DENOMINATOR_FLOOR = 1e-30
# Peaks whose (group, group) weight sum is below this fraction of the
# total weight are dropped from spectra.
WEIGHT_FLOOR = 1e-12
# Peak centers closer than this (absolute) are one frequency: split peaks
# of one level pair sit up to twice a degenerate group's span apart, and a
# group is a chain of gaps below spectral.LEVEL_TOL = 1e-9.
PEAK_CLUSTER_TOL = 1e-8


class DarkStateError(ValueError):
    """No stationary emission: photon statistics undefined."""


def emission_operator(eig, a_eig):
    """Lowering part of the quadrature derivative, in the eigenbasis.

    a_eig is the real antisymmetric A_X of the quadrature X = -i A_X in
    the eigenbasis, group_transitions(eig, bath_lowering(ops)[0]); element
    (m, n) of the real result is (E_m - E_n) a_eig[m, n] where the group
    of m lies below that of n, and 0 elsewhere.  It is strictly upper
    triangular in the energy ordering (rows below columns in energy);
    elements inside a degenerate level group are excluded, so the
    operator annihilates the ground level.  Returns spectral.BlockPairs,
    pair by pair from a_eig, without the pairs this leaves zero.
    """
    e, group, levels = eig.energies, eig.group_index, eig.levels
    xdot = BlockPairs(levels)
    for (b, c), a in a_eig.items():
        rows, cols = levels[b], levels[c]
        lower = group[rows, None] < group[cols]
        if lower.any():
            xdot[b, c] = (e[rows, None] - e[cols]) * lower * a
    return xdot


@dataclass
class SpectrumResult:
    """Lorentzian decomposition and sampled curve of the emission spectrum.

    Peaks are sorted by center; weights are |<m|Xdot|n>|^2 p_n, centers
    the bare transition frequencies E_n - E_m of the dressed levels, and
    half_widths the summed real decay rates.
    """

    centers: np.ndarray
    half_widths: np.ndarray
    weights: np.ndarray
    values: np.ndarray


def _emission_pairs(rates, stat, xdot, group_index):
    p = stat.populations
    rows, cols, w = BlockPairs(xdot.levels, {
        (b, c): x * x * p[xdot.levels[c]] for (b, c), x in xdot.items()
    }).elements()
    total = float(w.sum())
    if total > 0:
        # the split of a (group, group) weight between its level pairs
        # depends on the basis inside degenerate levels; its sum does not
        groups = group_index[-1] + 1
        at = np.unique(group_index[rows] * groups + group_index[cols],
                       return_inverse=True)[1]
        keep = np.bincount(at, weights=w)[at] >= WEIGHT_FLOOR * total
        rows, cols, w = rows[keep], cols[keep], w[keep]
    z = rates.z
    centers = (z[cols] - z[rows]).imag
    half_widths = (z[rows] + z[cols]).real
    order = np.lexsort((cols, rows, centers))
    return centers[order], half_widths[order], w[order]


def emission_spectrum(rates, stat, omega_grid, xdot, group_index):
    """Stationary emission spectrum sampled on a frequency grid.

    Parameters
    ----------
    rates, stat
        Rate table and stationary populations.
    omega_grid : array_like
        Frequencies at which to sample the curve.
    xdot : spectral.BlockPairs
        Emission operator from emission_operator().
    group_index : (D,) int array
        EigenSystem.group_index of the levels.  The peaks between two
        level groups are dropped together when their summed weight is
        below WEIGHT_FLOOR of the total weight.

    Returns
    -------
    SpectrumResult
    """
    centers, half_widths, weights = _emission_pairs(rates, stat, xdot,
                                                    group_index)
    if centers.size and np.any(half_widths <= 0):
        raise ValueError("non-positive linewidth; all decay rates must be > 0")

    omega_grid = np.asarray(omega_grid, dtype=float)
    values = np.zeros_like(omega_grid)
    # at most CHUNK_ELEMENTS (frequency, peak) elements at a time
    chunk = max(1, CHUNK_ELEMENTS // max(1, centers.size))
    for start in range(0, omega_grid.size, chunk):
        sl = slice(start, start + chunk)
        d = omega_grid[sl, None] - centers[None, :]
        values[sl] = (weights * half_widths / (d * d + half_widths**2)).sum(axis=1)
    # the Ohmic density gamma max(omega, 0) is the T = 0 rate
    values *= thermal_rate(omega_grid, 0.0, rates.gamma) / np.pi

    return SpectrumResult(
        centers=centers,
        half_widths=half_widths,
        weights=weights,
        values=values,
    )


def spectrum_sum_rule(spectrum):
    """Numerical integral of the spectrum over the bath density.

    Integrates the bare Lorentzian sum on a peak-adapted grid (dense
    core to 40 and logarithmic tails to 4000 half-widths of each peak);
    equals the total stationary emission up to integration and tail error.
    """
    points = [np.array([0.0])]
    for c, hw in zip(spectrum.centers, spectrum.half_widths):
        core = c + hw * np.linspace(-40.0, 40.0, 1601)
        tail = hw * np.geomspace(40.0, 4000.0, 240)
        points.extend((core, c + tail, c - tail))
    grid = np.unique(np.concatenate(points))
    dist = grid[:, None] - spectrum.centers[None, :]
    dens = (
        spectrum.weights
        * spectrum.half_widths
        / (dist * dist + spectrum.half_widths**2)
    ).sum(axis=1) / np.pi
    return float(np.trapezoid(dens, grid))


def cluster_weights(spectrum):
    """Peak weights summed over coincident centers, sorted ascending.

    Transitions that share a frequency split their weight between peaks
    in a way that depends on the basis inside a degenerate level; only
    the per-center sum is well defined.  Centers closer than
    PEAK_CLUSTER_TOL (gap_clusters) are one frequency.  Returns (centers,
    weights), one entry per cluster: mean center and summed weight.
    """
    index, centers = gap_clusters(spectrum.centers, PEAK_CLUSTER_TOL)
    return centers, np.bincount(index, weights=spectrum.weights)


def _expectation(stat, pairs):
    """sum_n p_n sum_m pairs[m, n]^2 over the stationary populations p."""
    p = stat.populations
    return float(sum(p[pairs.levels[c]] @ (m * m).sum(axis=0)
                     for (_, c), m in pairs.items()))


def _emission_rate(stat, xdot, floor=None):
    """Stationary emission sum_n p_n sum_m |<m|Xdot|n>|^2.

    With a floor this is the g2 denominator: below the floor the stationary
    state is dark and DarkStateError is raised.
    """
    rate = _expectation(stat, xdot)
    if floor is not None and rate < floor:
        raise DarkStateError(
            f"stationary emission {rate:.3e} below floor {floor:.1e}"
        )
    return rate


def integrated_emission(stat, xdot):
    """Total stationary emission rate sum <Xdot+ Xdot->."""
    return _emission_rate(stat, xdot)


def g2_zero(stat, xdot):
    """Equal-time degree-two coherence of the emitted field."""
    denominator = _emission_rate(stat, xdot, DENOMINATOR_FLOOR)
    # xdot @ xdot is one product per chained pair (b, c)(c, d) of blocks
    return _expectation(stat, xdot @ xdot) / denominator**2


@dataclass
class G2Result:
    """Delay dependence of the degree-two coherence.

    relaxation_gap is the slowest nonzero relaxation rate of the
    population rate equation that the conditional populations excite: the
    smallest nonzero Ritz rate of the Lanczos run behind the curve
    (dynamics.DiagonalPropagator.weighted_curve), converged to
    dynamics.RITZ_TOL.  g2(t) reaches its late-time value on the scale
    1 / relaxation_gap.  truncation_bound is the summed |coefficient| of
    the coherence pairs dropped below dynamics.COHERENCE_FLOOR over the
    squared denominator: no value moves by more than it.
    """

    values: np.ndarray
    zero_value: float
    relaxation_gap: float
    truncation_bound: float


def _regression_products(xdot, p):
    """Blocks ((b, d), O[d, b]^T * rho[b, d]) of the g2 regression.

    rho = Xdot P Xdot^T is the conditional matrix and O = Xdot^T Xdot the
    emission observable, both real block pairs.  They are formed one row
    block b of rho (and column block b of O) at a time and dropped as
    each product is handed over, so neither exists whole.
    """
    levels = xdot.levels
    by_row, by_col = {}, {}
    for (b, c), x in xdot.items():
        by_row.setdefault(b, []).append((c, x))
        by_col.setdefault(c, []).append((b, x))
    for b in sorted(by_row):
        rho, observable = BlockPairs(levels), BlockPairs(levels)
        for c, x in by_row[b]:
            for d, y in by_col[c]:
                rho.add((b, d), (x * p[levels[c]]) @ y.T)
        for a, x in by_col.get(b, ()):
            for d, y in by_row[a]:
                observable.add((d, b), y.T @ x)
        for key in list(rho):
            r, o = rho.pop(key), observable.pop(key[::-1], None)
            if o is not None:
                r *= o.T
                del o  # the caller then holds the product alone
                yield key, r


def g2_time(rates, stat, t_grid, xdot):
    """Degree-two coherence g2(t) on a grid of delays.

    The conditional matrix Xdot- rho Xdot+ and the emission observable
    Xdot+ Xdot- reach RegressionEvolver as their diagonals and the blocks
    of their elementwise product; it propagates the diagonal with the
    rate equation and every coherence pair with its decay factor, then
    closes with the observable.  zero_value comes from g2_zero, which
    sums nonnegative terms, rather than from the curve at t = 0, where the
    diagonal and coherence terms cancel at antibunched points.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("delays must be non-negative")
    denominator = _emission_rate(stat, xdot, DENOMINATOR_FLOOR)
    # before the evolver, so that xdot @ xdot does not stack on its K
    zero_value = g2_zero(stat, xdot)
    p, levels = stat.populations, xdot.levels
    rho_diagonal, observable_diagonal = np.zeros((2, p.size))
    for (b, c), x in xdot.items():
        rho_diagonal[levels[b]] += np.einsum("ij,ij,j->i", x, x,
                                             p[levels[c]])
        observable_diagonal[levels[c]] += np.einsum("ij,ij->j", x, x)
    evolver = RegressionEvolver(rates, stat, rho_diagonal,
                                observable_diagonal,
                                _regression_products(xdot, p))
    values, gap = evolver.curve(t_grid)
    return G2Result(
        values=values / denominator**2,
        zero_value=zero_value,
        relaxation_gap=gap,
        truncation_bound=evolver.dropped / denominator**2,
    )
