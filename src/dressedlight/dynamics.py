"""Time evolution of the dressed-basis density matrix.

Populations follow the Pauli rate equation dp/dt = G p; every
off-diagonal element (m, n) decouples and decays with the factor
exp(-(z_m + conj(z_n)) t), whose imaginary part carries the transition
phase.  The stationary state of the rate equation is the Boltzmann
distribution over the dressed levels, and the rates obey detailed
balance with respect to it (van Kampen, Stochastic Processes in Physics
and Chemistry), so the rate equation has a symmetric, sparse form K.
A weighted population curve is the Gauss quadrature of a Lanczos run on
K (Saad, SIAM J. Numer. Anal. 29, 209 (1992); Golub & Meurant,
Matrices, Moments and Quadrature with Applications (2010)), and no
dense matrix of the levels is formed.  The coherence pairs whose
coefficients sum to at most COHERENCE_FLOOR of all of them are dropped,
and that sum bounds the error it makes.
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
# Ritz values of K within this fraction of the largest |theta| count as
# stationary modes, not relaxation.
GAP_ZERO_TOL = 1e-12
# A Lanczos run stops once a step moves the curve by at most LANCZOS_TOL
# of its largest value at every requested time and the slowest nonzero
# Ritz rate by at most RITZ_TOL of itself, or once the next Lanczos
# vector is below LANCZOS_TOL of the largest diagonal element of T
# (breakdown: the Krylov space is invariant).  A Ritz value is resolved
# only to about 1e-16 of the largest, about 1e-11 of a slow mode at 1e-5
# of it, so the rate gets the looser tolerance.
LANCZOS_TOL = 1e-14
RITZ_TOL = 1e-12
# The curve and the rate are compared every LANCZOS_CHECK steps: each
# comparison costs a decomposition of T and an exponential per delay and
# Ritz value, a step only one product with K.
LANCZOS_CHECK = 4
# Coherence pairs with |c| <= COHERENCE_FLOOR * sum|c| / (pair count) are
# dropped.  Together they hold at most COHERENCE_FLOOR of sum|c|, and
# since |exp(-gamma t) cos(omega t)| <= 1 they move the curve by at most
# their own sum, which is kept as the error bound.
COHERENCE_FLOOR = 1e-13
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


def _check_balance(generator, p):
    """Raise unless G_nk p_k = G_kn p_n to BALANCE_TOL, pair by pair
    against the transposed pair: no D x D array.  A function of its own,
    so that its pair-sized temporaries are gone before K is built."""
    blocks = generator.levels
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


class DiagonalPropagator:
    """exp(G t) applied to population vectors, by Lanczos quadrature.

    The Pauli generator G obeys detailed balance with respect to the
    stationary populations p: G_nk p_k = G_kn p_n.  With D = diag(p) the
    matrix K = D^(-1/2) G D^(1/2) is therefore symmetric, with
    K_nk = sqrt(G_nk G_kn) off the diagonal and K_nn = G_nn; it is
    negative semidefinite and sqrt(p) is its stationary mode, and
    w^T exp(G t) p0 = a^T exp(K t) b with a = D^(1/2) w, b = D^(-1/2) p0.

    generator is RateTable.generator, spectral.BlockPairs with the
    diagonal: balance is checked pair by pair against the transposed pair.
    K's off-diagonal part is one scipy.sparse.csr_array over the populated
    levels, in block order (levels), scattered from the pairs restricted to
    those levels; its diagonal is kept apart.  Levels whose Boltzmann
    weight underflows to zero are left out of K; the couplings dropped
    with them carry weight ~exp(-700).  Start vectors with weight on such
    levels are rejected.  At T = 0 the generator is triangular and has no
    symmetrization, so it is rejected too.
    """

    def __init__(self, generator, stationary):
        if stationary.temperature == 0:
            raise ValueError(
                "T = 0 rates have no detailed-balance symmetrization"
            )
        p = stationary.populations
        _check_balance(generator, p)
        blocks = generator.levels
        self._dropped = p == 0
        # Boltzmann weights fall with energy, so the populated levels of a
        # block are its lowest: K reads each pair through slices
        sizes = [np.count_nonzero(p[levels]) for levels in blocks]
        if any(np.any(self._dropped[levels[:size]])
               for levels, size in zip(blocks, sizes)):
            raise ValueError("populated levels must be the lowest of each "
                             "block")
        self.levels = np.concatenate([levels[:size] for levels, size
                                      in zip(blocks, sizes)])
        start = np.cumsum([0] + sizes)
        # every row of block b holds the populated columns of each block c
        # it shares both pairs (b, c) and (c, b) with: one dense
        # (rows x width) slab of the CSR arrays per block
        partners = [[c for c in range(len(blocks)) if sizes[c]
                     and (b, c) in generator and (c, b) in generator]
                    for b in range(len(blocks))]
        widths = [sum(sizes[c] for c in cs) for cs in partners]
        indptr = np.zeros(self.levels.size + 1, dtype=np.int32)
        np.cumsum(np.repeat(widths, sizes), out=indptr[1:])
        data = np.empty(indptr[-1])
        indices = np.empty(indptr[-1], dtype=np.int32)
        for b, cs in enumerate(partners):
            span = slice(indptr[start[b]], indptr[start[b + 1]])
            slab = data[span].reshape(sizes[b], widths[b])
            columns = indices[span].reshape(sizes[b], widths[b])
            at = 0
            for c in cs:
                k = slab[:, at:at + sizes[c]]
                k[...] = generator[b, c][:sizes[b], :sizes[c]]
                k *= generator[c, b].T[:sizes[b], :sizes[c]]
                np.sqrt(k, out=k)
                columns[:, at:at + sizes[c]] = np.arange(start[c],
                                                         start[c + 1])
                at += sizes[c]
        self._k = scipy.sparse.csr_array((data, indices, indptr),
                                         shape=(self.levels.size,) * 2)
        self._diagonal = generator.diagonal[self.levels]
        self._p = p[self.levels]

    def weighted_curve(self, weights, p0, times):
        """sum_n weights[n] * (exp(G t) p0)[n] for every t.

        Returns (curve, gap).  The stationary part (weights . p) sum(p0)
        is exact.  The rest is a^T exp(K t) b for the part b of
        D^(-1/2) p0 orthogonal to sqrt(p): one Lanczos run from b, with
        full reorthogonalization, gives the Lanczos vectors Q and the
        tridiagonal T = S diag(theta) S^T, and the curve is
        |b| (Q a)^T S exp(theta t) S^T e_1.  gap is the smallest nonzero
        -theta, the slowest relaxation rate that p0 excites.  The run
        stops as LANCZOS_TOL and RITZ_TOL say.
        """
        p0 = np.asarray(p0, dtype=float)
        if np.any(p0[self._dropped] != 0):
            raise ValueError(
                "start vector has weight on levels with zero Boltzmann weight"
            )
        times = np.asarray(times, dtype=float)
        p, root = self._p, np.sqrt(self._p)
        weights = np.asarray(weights, dtype=float)[self.levels]
        p0 = p0[self.levels]
        total = p0.sum()
        stationary = (weights @ p) * total
        a = weights * root
        b = (p0 - total * p) / root
        norm = np.linalg.norm(b)
        curve, gap = np.full(times.shape, stationary), 0.0
        if norm == 0:
            return curve, gap
        n = b.size
        q = np.empty((min(n, 16), n))  # the Lanczos vectors, as rows
        q[0] = b / norm
        alpha, beta = [], []
        for m in range(1, n + 1):
            v = self._k @ q[m - 1] + self._diagonal * q[m - 1]
            alpha.append(q[m - 1] @ v)
            for _ in range(2):  # Gram-Schmidt twice keeps Q orthonormal
                v -= (q[:m] @ v) @ q[:m]
            step = np.linalg.norm(v)
            # max|alpha| <= |T|: -T is positive semidefinite
            ends = step <= LANCZOS_TOL * np.abs(alpha).max() or m == n
            if ends or m % LANCZOS_CHECK == 0:
                # and so its singular value decomposition is its
                # eigendecomposition: theta = -sigma
                s, sigma, _ = np.linalg.svd(-(np.diag(alpha)
                                              + np.diag(beta, 1)
                                              + np.diag(beta, -1)))
                last, last_gap = curve, gap
                curve = stationary + np.exp(np.multiply.outer(
                    times, -sigma)) @ (norm * ((q[:m] @ a) @ s) * s[0])
                decay = sigma[sigma > GAP_ZERO_TOL * sigma.max()]
                gap = float(decay.min()) if decay.size else 0.0
                if ends or (np.max(np.abs(curve - last), initial=0.0)
                            <= LANCZOS_TOL * np.max(np.abs(curve),
                                                    initial=0.0)
                            and abs(gap - last_gap) <= RITZ_TOL * gap):
                    return curve, gap
            beta.append(step)
            if m == q.shape[0]:
                q = np.concatenate([q, np.empty_like(q)])[:n]
            q[m] = v / step


def _coherences(levels, products):
    """Coherence pairs m < n of Re Tr[observable * Phi_t(rho)].

    products yields ((b, c), observable[c, b]^T * rho[b, c]), blocks on
    levels that the function may overwrite.  The coefficient of (m, n) is
    observable[n, m] rho[m, n] + observable[m, n] rho[n, m].  Pairs with
    |c| <= COHERENCE_FLOOR * sum|c| / (pair count) are dropped block by
    block, so no list of every pair is formed.  Returns (rows, cols,
    coefficients, dropped) of the pairs kept, dropped the sum of |c| over
    the pairs dropped.
    """
    upper = BlockPairs(levels)
    for (b, c), term in products:
        rows, cols = levels[b], levels[c]
        if b == c:
            term += term.T
        else:
            upper.add((c, b), term.T * (cols[:, None] < rows))
        term *= rows[:, None] < cols
        upper.add((b, c), term)
    total = sum(np.abs(m).sum() for m in upper.values())
    floor = COHERENCE_FLOOR * total / max(
        1, sum(np.count_nonzero(m) for m in upper.values()))
    dropped = 0.0
    parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    for key in list(upper):
        m = upper.pop(key)
        size = np.abs(m)
        dropped += float(size.sum(where=size <= floor))
        i, j = np.nonzero(size > floor)
        parts.append((levels[key[0]][i], levels[key[1]][j], m[i, j]))
    return (*(np.concatenate(part) for part in zip(*parts)), dropped)


class RegressionEvolver:
    """Two-time expectation values through the quantum regression rule.

    The evolver keeps what it needs to evaluate Re Tr[observable *
    Phi_t(rho)] for real rho and observable in the eigenbasis of the rates
    and a batch of times, where Phi_t propagates the diagonal of rho
    through the rate equation and each off-diagonal element (m, n) through
    exp(-(z_m + conj(z_n)) t).  rho and observable enter through their
    diagonals, (D,) arrays, and through products, the blocks of the
    elementwise observable^T * rho on the pairs of level blocks where both
    have elements (see _coherences), which the evolver reads once.  For
    real rho and observable the (m, n) and (n, m) terms sum to a real
    coefficient times exp(-gamma t) cos(omega t), with
    gamma = Re z_m + Re z_n and omega = Im z_m - Im z_n, so only the
    elements m < n are stored.  dropped is the summed |coefficient| of
    the pairs below the floor, a bound on what they move the curve by.
    """

    def __init__(self, rates, stationary, rho_diagonal, observable_diagonal,
                 products):
        self._obs_diag = observable_diagonal
        self._rho_diag = rho_diagonal
        rows, cols, self._coeff, self.dropped = _coherences(
            rates.generator.levels, products)
        self._rate = rates.z.real[rows] + rates.z.real[cols]
        self._omega = rates.z.imag[rows] - rates.z.imag[cols]
        self.propagator = DiagonalPropagator(rates.generator, stationary)

    def curve(self, times):
        """(values, gap): the expectation value at every time, float64,
        and the relaxation gap of the population curve (weighted_curve)."""
        times = np.asarray(times, dtype=float)
        out, gap = self.propagator.weighted_curve(self._obs_diag,
                                                  self._rho_diag, times)
        # at most CHUNK_ELEMENTS (time, pair) elements at a time
        chunk = max(1, CHUNK_ELEMENTS // max(1, self._coeff.size))
        for start in range(0, times.size, chunk):
            t = times[start:start + chunk, None]
            out[start:start + chunk] += (
                np.exp(-t * self._rate) * np.cos(t * self._omega)
            ) @ self._coeff
        return out, gap
