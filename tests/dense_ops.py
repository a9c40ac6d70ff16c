"""Dense oracle for the index-mapped operators, the block pairs and the
population propagator of dressedlight."""

import numpy as np
import scipy.linalg

from dressedlight.model import IndexMap
from dressedlight.spectral import BlockPairs


def dense(lower, dim):
    """The IndexMap lower as a dense float64 (dim, dim) array."""
    out = np.zeros((dim, dim))
    out[lower.dst, lower.src] = lower.amp
    return out


def dense_hamiltonian(h):
    """H given as (diagonal, couplings) as a dense (D, D) array.

    Each coupling adds its amplitude at (dst, src) and at (src, dst).
    """
    diagonal, couplings = h
    out = np.diag(diagonal)
    for rows, cols in ((couplings.dst, couplings.src),
                       (couplings.src, couplings.dst)):
        np.add.at(out, (rows, cols), couplings.amp)
    return out


def hamiltonian_entries(h):
    """A dense symmetric (D, D) array as (diagonal, couplings).

    The couplings are the nonzero elements below the diagonal, the
    triangle eigh reads; the upper triangle is not read.
    """
    h = np.asarray(h)
    dst, src = np.nonzero(np.tril(h, -1))
    return np.diag(h).copy(), IndexMap(src, dst, h[dst, src])


def level_block(eig):
    """The block of every level of an EigenSystem, from its levels."""
    out = np.zeros(eig.energies.size, dtype=int)
    for b, levels in enumerate(eig.levels):
        out[levels] = b
    return out


def dense_vectors(eig):
    """The eigenvectors of an EigenSystem as one dense (D, D) array."""
    dim = eig.energies.size
    out = np.zeros((dim, dim))
    for states, levels, block in zip(eig.states, eig.levels, eig.vectors):
        assert block.shape == (states.size, levels.size)
        out[np.ix_(states, levels)] = block
    return out


def state_block(eig):
    """The block of every basis state of an EigenSystem, from its states,
    which must hold each state once."""
    dim = eig.energies.size
    assert np.array_equal(np.sort(np.concatenate(eig.states)), np.arange(dim))
    out = np.zeros(dim, dtype=int)
    for b, states in enumerate(eig.states):
        out[states] = b
    return out


def scatter(pairs):
    """BlockPairs as a dense float64 (D, D) array, its diagonal included."""
    dim = sum(levels.size for levels in pairs.levels)
    out = np.zeros((dim, dim))
    for (b, c), block in pairs.items():
        assert block.shape == (pairs.levels[b].size, pairs.levels[c].size)
        out[np.ix_(pairs.levels[b], pairs.levels[c])] = block
    if pairs.diagonal is not None:
        out[np.diag_indices(dim)] += pairs.diagonal
    return out


def gather(array, levels=None, diagonal=None):
    """A dense (D, D) array as BlockPairs on levels, every pair kept.

    levels defaults to one block of all D levels; diagonal becomes the
    BlockPairs diagonal as it is.
    """
    array = np.asarray(array, dtype=float)
    if levels is None:
        levels = [np.arange(array.shape[0])]
    return BlockPairs(levels, {(b, c): array[np.ix_(rows, cols)]
                               for b, rows in enumerate(levels)
                               for c, cols in enumerate(levels)}, diagonal)


def summed_squares(couplings):
    """sum_c A_c**2 of BlockPairs, pair by pair in the order of couplings:
    the order in which solve_system sums the coupling weight."""
    weight = BlockPairs(couplings[0].levels)
    for coupling in couplings:
        for key, block in coupling.items():
            weight[key] = (weight[key] + block * block if key in weight
                           else block * block)
    return weight


def generator_pairs(generator):
    """A dense Pauli generator as one-block BlockPairs with its diagonal."""
    generator = np.asarray(generator, dtype=float)
    return gather(generator - np.diag(np.diag(generator)),
                  diagonal=np.diag(generator).copy())


def regression_products(rho, observable, levels):
    """Dense rho and observable as the RegressionEvolver products: every
    pair of level blocks, ((b, c), observable[c, b]^T * rho[b, c])."""
    return [((b, c), observable[np.ix_(cols, rows)].T
             * rho[np.ix_(rows, cols)])
            for b, rows in enumerate(levels) for c, cols in enumerate(levels)]


class DensePropagator:
    """exp(G t) on population vectors from one dense symmetric eigh.

    The propagator dressedlight used before its Lanczos form: with
    D = diag(p), K = D^(-1/2) G D^(1/2), dense over the populated levels
    and scattered from the generator pairs, and one eigh
    K = U diag(mu) U^T gives exp(G t) = D^(1/2) U diag(exp(mu t))
    U^T D^(-1/2) for every t.  No checks: a reference for balanced
    generators at T > 0.
    """

    def __init__(self, generator, stationary):
        p = stationary.populations
        blocks = generator.levels
        dropped = p == 0
        self.levels = np.flatnonzero(~dropped)
        at = np.cumsum(~dropped) - 1
        k = np.zeros((self.levels.size, self.levels.size))
        for (b, c), g in generator.items():
            if (c, b) in generator:
                rows, cols = ~dropped[blocks[b]], ~dropped[blocks[c]]
                k[np.ix_(at[blocks[b][rows]], at[blocks[c][cols]])] = (
                    np.sqrt(g * generator[c, b].T)[np.ix_(rows, cols)])
        np.fill_diagonal(k, generator.diagonal[self.levels])
        self.eigenvalues, u = scipy.linalg.eigh(k)
        self._p = p[self.levels]
        self._left = np.sqrt(self._p)[:, None] * u

    @property
    def relaxation_gap(self):
        """Slowest nonzero relaxation rate, the smallest nonzero -mu."""
        decay = -self.eigenvalues
        return float(decay[decay > 1e-12 * np.abs(decay).max()].min())

    def weighted_curve(self, weights, p0, times):
        """sum_n weights[n] * (exp(G t) p0)[n] for every t."""
        levels = self.levels
        u = ((np.asarray(weights)[levels] @ self._left)
             * (self._left.T @ (np.asarray(p0)[levels] / self._p)))
        return np.exp(np.multiply.outer(np.asarray(times, dtype=float),
                                        self.eigenvalues)) @ u
