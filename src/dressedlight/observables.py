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
from .dynamics import RegressionEvolver
from .spectral import gap_clusters

DENOMINATOR_FLOOR = 1e-30
# Peaks below this fraction of the total weight are dropped from spectra.
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
    (m, n) of the real result is (E_m - E_n) a_eig[m, n].  It is strictly
    upper triangular in the energy ordering (rows below columns in
    energy); elements inside a degenerate level group are excluded, so
    the operator annihilates the ground level.
    """
    e = eig.energies
    lower = eig.group_index[None, :] > eig.group_index[:, None]
    return np.where(lower, (e[:, None] - e[None, :]) * a_eig, 0.0)


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


def _emission_pairs(rates, stat, xdot):
    weights_full = xdot * xdot * stat.populations[None, :]
    rows, cols = np.nonzero(weights_full)
    w = weights_full[rows, cols]
    total = float(w.sum())
    if total > 0:
        keep = w >= WEIGHT_FLOOR * total
        rows, cols, w = rows[keep], cols[keep], w[keep]
    z = rates.z
    centers = (z[cols] - z[rows]).imag
    half_widths = (z[rows] + z[cols]).real
    order = np.lexsort((cols, rows, centers))
    return centers[order], half_widths[order], w[order]


def emission_spectrum(rates, stat, omega_grid, xdot):
    """Stationary emission spectrum sampled on a frequency grid.

    Parameters
    ----------
    rates, stat
        Rate table and stationary populations.
    omega_grid : array_like
        Frequencies at which to sample the curve.
    xdot : (D, D) float64 array
        Emission operator from emission_operator().  Peaks below
        WEIGHT_FLOOR of the total weight are dropped.

    Returns
    -------
    SpectrumResult
    """
    centers, half_widths, weights = _emission_pairs(rates, stat, xdot)
    if centers.size and np.any(half_widths <= 0):
        raise ValueError("non-positive linewidth; all decay rates must be > 0")

    omega_grid = np.asarray(omega_grid, dtype=float)
    values = np.zeros_like(omega_grid)
    chunk = max(1, int(4e6 // max(1, centers.size)))
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


def _emission_rate(stat, xdot, floor=None):
    """Stationary emission sum_n p_n sum_m |<m|Xdot|n>|^2.

    With a floor this is the g2 denominator: below the floor the stationary
    state is dark and DarkStateError is raised.
    """
    col_norms = (xdot * xdot).sum(axis=0)
    rate = float(np.dot(stat.populations, col_norms))
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
    y = xdot @ xdot
    numerator = float(np.dot(stat.populations, (y * y).sum(axis=0)))
    return numerator / denominator**2


@dataclass
class G2Result:
    """Delay dependence of the degree-two coherence.

    relaxation_gap is the slowest nonzero relaxation rate of the
    population rate equation; g2(t) reaches its late-time value on the
    scale 1 / relaxation_gap.
    """

    values: np.ndarray
    zero_value: float
    relaxation_gap: float


def g2_time(rates, stat, t_grid, xdot):
    """Degree-two coherence g2(t) on a grid of delays.

    The conditional matrix Xdot- rho Xdot+ and the emission observable
    Xdot+ Xdot- are passed to RegressionEvolver as real dense (D, D)
    arrays; it propagates the diagonal with the rate equation and every
    coherence pair with its decay factor, then closes with the
    observable.  zero_value comes from g2_zero, which sums nonnegative
    terms, rather than from the curve at t = 0, where the diagonal and
    coherence terms cancel at antibunched points.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid < 0):
        raise ValueError("delays must be non-negative")
    denominator = _emission_rate(stat, xdot, DENOMINATOR_FLOOR)
    evolver = RegressionEvolver(rates, stat,
                                (xdot * stat.populations[None, :]) @ xdot.T,
                                xdot.T @ xdot)
    return G2Result(
        values=evolver.curve(t_grid) / denominator**2,
        zero_value=g2_zero(stat, xdot),
        relaxation_gap=evolver.propagator.relaxation_gap,
    )
