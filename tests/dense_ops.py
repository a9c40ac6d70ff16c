"""Dense oracle for the index-mapped operators and the block pairs of
dressedlight."""

import numpy as np

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
