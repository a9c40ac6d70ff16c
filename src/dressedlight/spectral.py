"""Eigensystem of the coupled Hamiltonian in the dressed basis.

Secular treatment of the dissipators splits every system operator S into
components S_w that connect eigenstates separated by a fixed energy w.
Levels are clustered into degenerate groups (spacing below delta_e), and
every rate is evaluated at the difference of the group energies, so the
secular grouping is carried by those energies alone: elements inside a
degenerate level sit at exactly w = 0, and an operator only needs its
matrix elements in the eigenbasis.  Distinct level pairs whose
frequencies coincide within delta_e (collisions) are where the
secular equations of motion are not reliable; they depend only on the
group energies and are counted once per eigensystem as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def level_tolerance(omega0):
    """The delta_e every model solve groups its levels with: 1e-9 omega0."""
    return 1e-9 * omega0


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
    """Sorted eigensystem with degenerate levels clustered.

    energies are ascending; vectors[:, k] belongs to energies[k] with the
    largest-magnitude component rotated to the positive real axis.
    vectors has the dtype eigh returns for the input: float64 for a real
    symmetric matrix such as the model Hamiltonian, complex otherwise.
    Levels closer than delta_e form one degenerate group: group_index[k]
    is the group of state k (ascending from 0, so the members of group a
    are the states with group_index == a) and group_energy[a] is the mean
    energy of group a.
    """

    energies: np.ndarray
    vectors: np.ndarray
    delta_e: float
    group_index: np.ndarray
    group_energy: np.ndarray

    @property
    def degenerate(self):
        return self.group_energy.size < self.energies.size

    def to_eigenbasis(self, lower):
        """Matrix elements <m|L|n> of a lab-frame model.IndexMap L.

        One gather of the rows of vectors and one matrix product.
        """
        v = self.vectors
        return v[lower.dst].conj().T @ (lower.amp[:, None] * v[lower.src])

    def collision_omegas(self):
        """Frequencies w >= 0 shared by more than one pair of level groups.

        The ordered group pairs (a, b) are sorted by E_b - E_a and split
        wherever consecutive frequencies differ by at least delta_e, the
        tolerance the levels were grouped with.  Each cluster with more
        than one pair at a positive mean frequency is a collision.  The
        cluster nearest 0 is pinned at exactly 0; it holds the diagonal
        pairs (a, a) and collides only beyond them.
        """
        ge = self.group_energy
        index, omegas = gap_clusters(
            np.sort((ge[None, :] - ge[:, None]).ravel()), self.delta_e)
        sizes = np.bincount(index)
        collides = (sizes > 1) & (omegas > 0)
        zero = int(np.argmin(np.abs(omegas)))
        omegas[zero] = 0.0
        collides[zero] = sizes[zero] > ge.size
        return omegas[collides]


def diagonalize(h, delta_e):
    """Diagonalize a Hermitian matrix and cluster degenerate levels.

    Parameters
    ----------
    h : (D, D) array_like, D >= 1
        Hermitian matrix; hermiticity is checked to 1e-12 relative.  A
        real symmetric h (the float64 model Hamiltonian) takes the real
        eigh path and gives float64 vectors, whose gauge fix reduces to
        making the largest component positive.
    delta_e : float
        Absolute energy tolerance for treating two levels as degenerate,
        and for telling transition frequencies apart in collision_omegas;
        level_tolerance(omega0) for a model Hamiltonian.

    Returns
    -------
    EigenSystem
        The sorted levels split into groups wherever consecutive energies
        differ by at least delta_e; see EigenSystem for the fields.
    """
    h = np.asarray(h)
    # Both passes over D x D arrays go a block at a time, so neither
    # allocates a D x D temporary.
    step = max(1, 2**16 // max(1, h.shape[0]))
    # ||h - h^H||_F^2, summed over row blocks.
    skew = 0.0
    for start in range(0, h.shape[0], step):
        block = h[start:start + step] - h[:, start:start + step].conj().T
        skew += np.vdot(block, block).real
    if np.sqrt(skew) > 1e-12 * np.linalg.norm(h):
        raise ValueError("matrix is not Hermitian")
    energies, vectors = np.linalg.eigh(h)
    vectors = np.ascontiguousarray(vectors)

    # Fixed gauge: rotate the largest-magnitude component of each unit
    # vector onto the positive real axis (first index wins on ties),
    # over blocks of columns.
    for start in range(0, energies.size, step):
        block = vectors[:, start:start + step]
        pivot = block[np.argmax(np.abs(block), axis=0),
                      np.arange(block.shape[1])]
        block *= np.conj(pivot) / np.abs(pivot)

    group_index, group_energy = gap_clusters(energies, delta_e)
    return EigenSystem(
        energies=energies,
        vectors=vectors,
        delta_e=delta_e,
        group_index=group_index,
        group_energy=group_energy,
    )


def group_transitions(eig, lower):
    """A = L - L^T of a bath coupling S = -i A, in the eigenbasis.

    lower is the real model.IndexMap L; with M = eig.to_eigenbasis(L),
    A = M - M^H (real antisymmetric for real eigenvectors).  The secular
    grouping needs nothing else: the rates are evaluated at the group
    energies of eig.  The pipeline calls this once per bath coupling,
    and bench/spans.py times those calls under this name.
    """
    m = eig.to_eigenbasis(lower)
    return m - m.conj().T
