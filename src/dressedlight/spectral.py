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


@dataclass
class EigenSystem:
    """Sorted eigensystem of a real symmetric matrix, levels clustered.

    energies are ascending and vectors[:, k], float64, belongs to
    energies[k], both as np.linalg.eigh returns them.  Outputs read the
    vectors only through quadratic forms such as |<m|A|n>|^2, so the sign
    of a vector changes no result.  Levels closer than LEVEL_TOL form one
    degenerate group: group_index[k] is the group of state k (ascending
    from 0) and group_energy[a] is the mean energy of group a.
    """

    energies: np.ndarray
    vectors: np.ndarray
    group_index: np.ndarray
    group_energy: np.ndarray

    @property
    def degenerate(self):
        return self.group_energy.size < self.energies.size

    def to_eigenbasis(self, lower):
        """Matrix elements <m|L|n> of a lab-frame model.IndexMap L.

        V^T L V as a real (D, D) array: one gather of the rows of vectors
        and one matrix product.
        """
        v = self.vectors
        return v[lower.dst].T @ (lower.amp[:, None] * v[lower.src])

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
    h : (D, D) real array_like, D >= 1
        Real symmetric matrix, such as the float64 model Hamiltonian;
        symmetry is checked to 1e-12 relative.  Complex input raises
        ValueError.

    Returns
    -------
    EigenSystem
        The levels and float64 vectors of np.linalg.eigh, with levels
        grouped by gap_clusters at LEVEL_TOL; see EigenSystem.
    """
    h = np.asarray(h)
    if np.iscomplexobj(h):
        raise ValueError("matrix must be real symmetric, got complex input")
    # ||h - h^T||_F^2 over row blocks: no D x D temporary is allocated
    step = max(1, 2**16 // max(1, h.shape[0]))
    skew = 0.0
    for start in range(0, h.shape[0], step):
        block = h[start:start + step] - h[:, start:start + step].T
        skew += np.vdot(block, block)
    if np.sqrt(skew) > 1e-12 * np.linalg.norm(h):
        raise ValueError("matrix is not Hermitian")
    energies, vectors = np.linalg.eigh(h)
    return EigenSystem(energies, vectors, *gap_clusters(energies, LEVEL_TOL))


def group_transitions(eig, lower):
    """A = L - L^T of a bath coupling S = -i A, in the eigenbasis.

    lower is the real model.IndexMap L; with M = eig.to_eigenbasis(L),
    A = M - M^T, a real antisymmetric array.  The secular grouping needs
    nothing else: the rates are evaluated at the group energies of eig.
    The pipeline calls this once per bath coupling, and bench/spans.py
    times those calls under this name.
    """
    m = eig.to_eigenbasis(lower)
    return m - m.T
