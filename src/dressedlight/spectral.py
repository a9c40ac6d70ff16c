"""Eigensystem of the coupled Hamiltonian in the dressed basis.

Secular treatment of the dissipators splits every system operator S into
components S_w that connect eigenstates separated by a fixed energy w.
Levels are clustered into degenerate groups (spacing below LEVEL_TOL),
and every rate is evaluated at the difference of the group energies, so
the secular grouping is carried by those energies alone: elements inside
a degenerate level sit at exactly w = 0, and an operator only needs its
matrix elements in the eigenbasis.  Distinct level pairs whose
frequencies coincide within LEVEL_TOL (collisions) are where the
secular equations of motion are not reliable; they depend only on the
group energies and are counted once per eigensystem as a diagnostic.

The Hamiltonian falls into blocks that do not couple (the excitation
sectors without counter-rotating terms, the two parities with them;
Tavis & Cummings, Phys. Rev. 170, 379 (1968)).  diagonalize finds them
in the nonzero couplings of H (model.build_hamiltonian) and runs one
eigh per block, filled from its elements alone, and every transform is
one small product per pair of blocks an operator connects.  Every
operator in the eigenbasis stays in that form (BlockPairs): a dense
sub-block per pair of level blocks, and no D x D array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# Levels, and transition frequencies, closer than this (in units of
# omega0) are one degenerate level, or one frequency.
LEVEL_TOL = 1e-9


def gap_clusters(values, tol):
    """Split ascending values wherever the gap to the next one is >= tol.

    Returns (index, means): index[k] is the cluster of values[k], counted
    from 0 upward, and means[c] is the mean of the members of cluster c.
    """
    index = np.zeros(values.size, dtype=int)
    index[1:] = np.cumsum(np.diff(values) >= tol)
    return index, np.bincount(index, weights=values) / np.bincount(index)


def _join(label, rows, cols):
    """Join the components of label along the edges rows[k] -- cols[k].

    label[i] is a vertex of the component of i, at most i, and a root
    (label[r] == r) stands for its component.  Returns the joined labels,
    every entry pointing straight at its component's least vertex.
    """
    while True:
        ends = label[rows], label[cols]
        if np.array_equal(*ends):
            return label
        low = np.minimum(*ends)
        for end in ends:
            np.minimum.at(label, end, low)
        jumped = label[label]
        while not np.array_equal(jumped, label):
            label, jumped = jumped, jumped[jumped]


def _members(labels, count=0):
    """Indices carrying each label 0, 1, ... (at least count labels)."""
    order = np.argsort(labels, kind="stable")
    return np.split(order,
                    np.cumsum(np.bincount(labels, minlength=count))[:-1])


class BlockPairs(dict):
    """A (D, D) operator in the eigenbasis, as dense blocks of level pairs.

    self[b, c] holds the elements between the levels of block b (rows)
    and those of block c (columns), levels[b] and levels[c]
    (EigenSystem.levels); an absent pair is zero.  diagonal, when not
    None, is a (D,) array added on the diagonal.
    """

    def __init__(self, levels, pairs=(), diagonal=None):
        super().__init__(pairs)
        self.levels = levels
        self.diagonal = diagonal

    @property
    def T(self):
        """The transpose, as views of the blocks."""
        return BlockPairs(self.levels,
                          {(c, b): m.T for (b, c), m in self.items()},
                          self.diagonal)

    def add(self, key, block):
        """Add block to pair key; an absent pair becomes block itself."""
        if key in self:
            self[key] += block
        else:
            self[key] = block

    def elements(self):
        """(rows, cols, values) of the nonzero elements, by level index."""
        parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
        for (b, c), m in self.items():
            i, j = np.nonzero(m)
            parts.append((self.levels[b][i], self.levels[c][j], m[i, j]))
        return tuple(np.concatenate(part) for part in zip(*parts))

    def __matmul__(self, other):
        """Product with a (D,) vector, or with pairs that have no diagonal.

        Pairs multiply block by block: (b, c) with (c, d) adds to (b, d).
        """
        if isinstance(other, BlockPairs):
            by_row = {}
            for (c, d), m in other.items():
                by_row.setdefault(c, []).append((d, m))
            out = BlockPairs(self.levels)
            for (b, c), m in self.items():
                for d, n in by_row.get(c, ()):
                    out.add((b, d), m @ n)
            return out
        out = (np.zeros(other.shape) if self.diagonal is None
               else self.diagonal * other)
        for (b, c), m in self.items():
            out[self.levels[b]] += m @ other[self.levels[c]]
        return out

    def copy(self):
        """The operator as a dense (D, D) ndarray, for array code."""
        dim = sum(levels.size for levels in self.levels)
        out = np.zeros((dim, dim))
        for (b, c), m in self.items():
            out[np.ix_(self.levels[b], self.levels[c])] = m
        if self.diagonal is not None:
            out[np.diag_indices(dim)] += self.diagonal
        return out


@dataclass
class EigenSystem:
    """Sorted eigensystem of a real symmetric matrix, levels clustered.

    energies are ascending and vectors[:, k], float64, belongs to
    energies[k].  Outputs read the vectors only through quadratic forms
    such as |<m|A|n>|^2, so the sign of a vector changes no result.
    Levels closer than LEVEL_TOL form one degenerate group: group_index[k]
    is the group of level k (ascending from 0) and group_energy[a] is the
    mean energy of group a.

    block[i] is the block of basis state i and levels[b] the ascending
    levels of block b: vectors[i, k] is exactly 0 unless k is in
    levels[block[i]].  Blocks are numbered from 0, and every degenerate
    group lies in one block, so any rotation inside a group keeps them.
    """

    energies: np.ndarray
    vectors: np.ndarray
    group_index: np.ndarray
    group_energy: np.ndarray
    block: np.ndarray
    levels: list

    @property
    def degenerate(self):
        return self.group_energy.size < self.energies.size

    def to_eigenbasis(self, lower):
        """Matrix elements <m|L|n> of a lab-frame model.IndexMap L.

        V^T L V as real BlockPairs.  The map's elements are sorted by the
        pair (block of dst, block of src); each pair gives one product over
        the levels of its two blocks.
        """
        v = self.vectors
        levels = self.levels
        out = BlockPairs(levels)
        count = len(levels)
        pairs, index = np.unique(
            self.block[lower.dst] * count + self.block[lower.src],
            return_inverse=True)
        for pair, sel in zip(pairs.tolist(), _members(index)):
            b, c = divmod(pair, count)
            out[b, c] = (
                v[np.ix_(lower.dst[sel], levels[b])].T
                @ (lower.amp[sel, None]
                   * v[np.ix_(lower.src[sel], levels[c])]))
        return out

    def collision_omegas(self):
        """Frequencies w >= 0 shared by more than one pair of level groups.

        The ordered group pairs (a, b) are sorted by E_b - E_a and split
        wherever consecutive frequencies differ by at least LEVEL_TOL, the
        tolerance the levels were grouped with.  Each cluster with more
        than one pair at a positive mean frequency is a collision.  The
        cluster nearest 0 is pinned at exactly 0; it holds the diagonal
        pairs (a, a) and collides only beyond them.
        """
        ge = self.group_energy
        index, omegas = gap_clusters(
            np.sort((ge[None, :] - ge[:, None]).ravel()), LEVEL_TOL)
        sizes = np.bincount(index)
        collides = (sizes > 1) & (omegas > 0)
        zero = int(np.argmin(np.abs(omegas)))
        omegas[zero] = 0.0
        collides[zero] = sizes[zero] > ge.size
        return omegas[collides]


def diagonalize(h):
    """Diagonalize a real symmetric matrix and cluster degenerate levels.

    Parameters
    ----------
    h : (diagonal, couplings)
        The matrix as model.build_hamiltonian returns it: the float64
        (D,) diagonal, D >= 1, and a model.IndexMap of the off-diagonal
        elements, each also standing for its transpose, repeated ones
        summed.  Complex input raises ValueError.

    Returns
    -------
    EigenSystem
        The levels and float64 vectors, with levels grouped by
        gap_clusters at LEVEL_TOL; see EigenSystem.  The blocks are the
        connected components of the nonzero couplings, merged wherever a
        degenerate group spans several.  Each block's np.linalg.eigh, of
        the lower triangle filled from its elements, fills its rows and
        its levels' columns of the zero vectors array.
    """
    diagonal, couplings = h
    if np.iscomplexobj(diagonal) or np.iscomplexobj(couplings.amp):
        raise ValueError("matrix must be real symmetric, got complex input")
    linked = couplings.amp != 0
    cols, rows, values = (part[linked] for part in couplings)
    block = np.unique(_join(np.arange(diagonal.size), rows, cols),
                      return_inverse=True)[1]
    states = _members(block)
    parts = []
    for members, sel in zip(states, _members(block[rows], len(states))):
        # the lower triangle, which eigh reads, by position in the block
        i, j = (np.searchsorted(members, end[sel]) for end in (rows, cols))
        lower = np.diag(diagonal[members])
        np.add.at(lower, (np.maximum(i, j), np.minimum(i, j)), values[sel])
        parts.append(np.linalg.eigh(lower))
    energies = np.concatenate([e for e, _ in parts])
    order = np.argsort(energies, kind="stable")
    column = np.argsort(order)
    vectors = np.zeros((block.size, block.size))
    start = 0
    for members, (_, v) in zip(states, parts):
        vectors[np.ix_(members, column[start:start + members.size])] = v
        start += members.size
    energies = energies[order]
    level_block = block[np.concatenate(states)][order]
    group_index, group_energy = gap_clusters(energies, LEVEL_TOL)
    # merge the blocks that share a degenerate group
    pair = np.flatnonzero((np.diff(group_index) == 0)
                          & (np.diff(level_block) != 0))
    if pair.size:
        merged = _join(np.arange(block.max() + 1), level_block[pair],
                       level_block[pair + 1])
        merged = np.unique(merged, return_inverse=True)[1]
        block, level_block = merged[block], merged[level_block]
    return EigenSystem(energies, vectors, group_index, group_energy,
                       block, _members(level_block))


def total_spin_gauge(eig, sigma_minus):
    """Rotate eig.vectors inside each degenerate group onto J^2 eigenvectors.

    J^2 = J+ J- + Jz^2 - Jz, with J- the sum of the sigma_minus index
    maps and Jz half the excited count minus the unexcited one.  It
    commutes with the Hamiltonian, whose emitters share one frequency and
    one coupling, so the rotated vectors are still eigenvectors and J^2
    keeps every block.  Where levels of different total spin j coincide
    this fixes the basis, on which the secular rates depend; inside copies
    of one j the basis stays free, and every output is invariant under it
    to round-off.  Per block, the group is restricted to the block's
    states and J^2 to (J- V)^T (J- V) + V^T (Jz^2 - Jz) V: no D x D
    operator is formed.  Returns eig, rotated in place.
    """
    v = eig.vectors
    dim = v.shape[0]
    jz = sum(np.bincount(sm.src, minlength=dim) for sm in sigma_minus)
    jz = jz - len(sigma_minus) / 2
    diagonal = jz * jz - jz
    src, dst, amp = (np.concatenate(parts) for parts in zip(*sigma_minus))
    states = _members(eig.block)
    sizes = np.bincount(eig.group_index)
    degenerate = sizes[eig.group_index] > 1
    elements = _members(eig.block[src], len(states))
    for rows, levels, sel in zip(states, eig.levels, elements):
        cols = levels[degenerate[levels]]
        if not cols.size:
            continue
        group = v[np.ix_(rows, cols)]
        image, at = np.unique(dst[sel], return_inverse=True)
        lowered = np.zeros((image.size, cols.size))
        np.add.at(lowered, at, amp[sel, None] * v[np.ix_(src[sel], cols)])
        spin = (lowered.T @ lowered
                + group.T @ (diagonal[rows, None] * group))
        rotation = np.zeros_like(spin)
        # not a bare np.unique: on NumPy 2 it imports numpy.ma (~12 ms)
        bounds = np.r_[0, np.flatnonzero(np.diff(eig.group_index[cols])) + 1,
                       cols.size]
        for a, b in zip(bounds[:-1], bounds[1:]):
            rotation[a:b, a:b] = np.linalg.eigh(spin[a:b, a:b])[1]
        v[np.ix_(rows, cols)] = group @ rotation
    return eig


def group_transitions(eig, lower):
    """A = L - L^T of a bath coupling S = -i A, in the eigenbasis.

    lower is the real model.IndexMap L; with M = eig.to_eigenbasis(L),
    A = M - M^T, real antisymmetric BlockPairs: pair (b, c) of A is
    M[b, c] - M[c, b]^T, with either term left out where M lacks it.  The
    blocks of M are reused for A.  The secular grouping needs nothing
    else: the rates are evaluated at the group energies of eig.  The
    pipeline calls this once per bath coupling, and bench/spans.py times
    those calls under this name.
    """
    a = BlockPairs(eig.levels)
    for (b, c), m in eig.to_eigenbasis(lower).items():
        a.add((b, c), m)
        a.add((c, b), -m.T)
    return a
