"""Eigensystem of the coupled Hamiltonian and grouping of transitions.

Secular treatment of the dissipators needs every system operator S split
into components S_w that connect eigenstates separated by a fixed energy
w.  Levels are first clustered into degenerate groups (spacing below
delta_e); transition frequencies are then built from group energies and
clustered with tolerance delta_omega, so elements inside a degenerate
level land exactly in the w = 0 group.  The frequency grouping depends
only on the group energies, so it belongs to the eigensystem: it is
computed once per tolerance and shared by the transition sets of every
operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_DELTA = 1e-9


@dataclass
class EigenSystem:
    """Sorted eigensystem with degenerate levels clustered.

    energies are ascending; vectors[:, k] belongs to energies[k] with the
    largest-magnitude component rotated to the positive real axis.
    vectors has the dtype eigh returns for the input: float64 for a real
    symmetric matrix such as the model Hamiltonian, complex otherwise.
    group_index[k] is the degenerate group of state k and group_energy[a]
    the mean energy of group a.
    """

    energies: np.ndarray
    vectors: np.ndarray
    delta_e: float
    group_index: np.ndarray
    group_energy: np.ndarray
    group_members: tuple
    _groupings: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def dim(self):
        return self.energies.size

    @property
    def n_groups(self):
        return self.group_energy.size

    @property
    def degenerate(self):
        return any(len(m) > 1 for m in self.group_members)

    def to_eigenbasis(self, operator):
        """Matrix elements <m|S|n> of a lab-frame operator."""
        return self.vectors.conj().T @ operator @ self.vectors

    def transition_grouping(self, delta_omega=DEFAULT_DELTA):
        """Frequency grouping of the level pairs, computed once per tolerance."""
        grouping = self._groupings.get(delta_omega)
        if grouping is None:
            grouping = _group_frequencies(self.group_energy, delta_omega)
            self._groupings[delta_omega] = grouping
        return grouping


def diagonalize(h, delta_e=DEFAULT_DELTA):
    """Diagonalize a Hermitian matrix and cluster degenerate levels.

    Parameters
    ----------
    h : (D, D) array_like
        Hermitian matrix; hermiticity is checked to 1e-12 relative.  A
        real symmetric h (the float64 model Hamiltonian) takes the real
        eigh path and gives float64 vectors, whose gauge fix reduces to
        making the largest component positive.
    delta_e : float
        Absolute energy tolerance for treating two levels as degenerate.

    Returns
    -------
    EigenSystem
    """
    h = np.asarray(h)
    scale = np.linalg.norm(h)
    if scale > 0 and np.linalg.norm(h - h.conj().T) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian")
    energies, vectors = np.linalg.eigh(h)
    vectors = np.ascontiguousarray(vectors)

    # Fixed gauge: rotate the largest-magnitude component of each vector
    # onto the positive real axis (first index wins on ties).
    for k in range(energies.size):
        col = vectors[:, k]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if piv != 0:
            vectors[:, k] = col * (np.conj(piv) / np.abs(piv))

    # Gap-based clustering of the sorted energies.
    if energies.size:
        breaks = np.nonzero(np.diff(energies) >= delta_e)[0]
        starts = np.concatenate(([0], breaks + 1))
        stops = np.concatenate((breaks + 1, [energies.size]))
    else:
        starts = stops = np.array([], dtype=int)
    members = tuple(np.arange(b, e) for b, e in zip(starts, stops))
    group_index = np.empty(energies.size, dtype=int)
    group_energy = np.empty(len(members))
    for a, idx in enumerate(members):
        group_index[idx] = a
        group_energy[a] = energies[idx].mean()

    return EigenSystem(
        energies=energies,
        vectors=vectors,
        delta_e=delta_e,
        group_index=group_index,
        group_energy=group_energy,
        group_members=members,
    )


@dataclass(frozen=True)
class TransitionGrouping:
    """Ordered level-group pairs of an eigensystem grouped by frequency.

    Ordered pair (a, b) holds the elements <m in a|S|n in b> of any
    operator S at frequency E_b - E_a of the group energies.  pair_a and
    pair_b list the pairs sorted by frequency; group k is the slice
    starts[k]:stops[k] of that list, at mean frequency omegas[k], and
    zero_group is the group pinned at exactly 0.  collision_omegas holds
    the frequencies (w >= 0) of groups that merge more than one distinct
    level pair, the situation in which the secular equations of motion
    are not reliable.  The arrays are read-only because every operator's
    TransitionSet shares them.
    """

    delta_omega: float
    omegas: np.ndarray
    pair_a: np.ndarray
    pair_b: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    zero_group: int
    collision_omegas: np.ndarray

    @property
    def n_groups(self):
        return self.omegas.size

    @property
    def collision_count(self):
        return self.collision_omegas.size


def _group_frequencies(group_energy, delta_omega):
    n_grp = group_energy.size
    pair_omega = (group_energy[None, :] - group_energy[:, None]).ravel()
    order = np.argsort(pair_omega, kind="stable")
    sorted_omega = pair_omega[order]
    pair_a, pair_b = np.divmod(order, n_grp)

    # A new group starts wherever the sorted frequencies jump by delta_omega.
    starts = np.flatnonzero(np.diff(sorted_omega, prepend=-np.inf) >= delta_omega)
    sizes = np.diff(np.append(starts, sorted_omega.size))
    omegas = np.add.reduceat(sorted_omega, starts) / sizes

    # A group merging distinct level pairs means distinct transitions
    # share a frequency within delta_omega.
    collides = (sizes > 1) & (omegas > 0)
    zero_group = 0
    if omegas.size:
        # The diagonal pairs (a, a) sit at exactly 0.0; pin their group
        # there.  It naturally holds those n_grp pairs; anything beyond
        # them collides.
        zero_group = int(np.argmin(np.abs(omegas)))
        omegas[zero_group] = 0.0
        collides[zero_group] = sizes[zero_group] > n_grp

    stops = starts + sizes
    collision_omegas = omegas[collides]
    for a in (omegas, pair_a, pair_b, starts, stops, collision_omegas):
        a.flags.writeable = False
    return TransitionGrouping(
        delta_omega=delta_omega,
        omegas=omegas,
        pair_a=pair_a,
        pair_b=pair_b,
        starts=starts,
        stops=stops,
        zero_group=zero_group,
        collision_omegas=collision_omegas,
    )


@dataclass
class TransitionSet:
    """Components S_w of one operator, grouped by transition frequency.

    s_eigen holds the operator in the eigenbasis and s_abs2 its squared
    moduli.  The frequency grouping belongs to the eigensystem and is
    shared by the transition sets of all operators; element blocks of a
    group are materialized on demand with block().
    """

    eig: EigenSystem
    s_eigen: np.ndarray
    s_abs2: np.ndarray
    grouping: TransitionGrouping

    def block(self, k):
        """Elements of group k as (rows, cols, values) index triples."""
        rows = []
        cols = []
        members = self.eig.group_members
        g = self.grouping
        for a, b in zip(
            g.pair_a[g.starts[k] : g.stops[k]],
            g.pair_b[g.starts[k] : g.stops[k]],
        ):
            r, c = np.meshgrid(members[a], members[b], indexing="ij")
            rows.append(r.ravel())
            cols.append(c.ravel())
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        return rows, cols, self.s_eigen[rows, cols]

    def component(self, k):
        """Group k as a dense matrix in the eigenbasis."""
        out = np.zeros_like(self.s_eigen)
        rows, cols, vals = self.block(k)
        out[rows, cols] = vals
        return out

    def reconstruct(self):
        """Sum of all components; equals the full operator."""
        out = np.zeros_like(self.s_eigen)
        for k in range(self.grouping.n_groups):
            rows, cols, vals = self.block(k)
            out[rows, cols] = vals
        return out


def group_transitions(eig, s, delta_omega=DEFAULT_DELTA):
    """Group the matrix elements of an operator by transition frequency.

    Parameters
    ----------
    eig : EigenSystem
    s : (D, D) array_like
        Operator in the lab frame.
    delta_omega : float
        Absolute clustering tolerance for transition frequencies.

    Returns
    -------
    TransitionSet
        Its grouping is eig.transition_grouping(delta_omega), shared with
        every other operator grouped on the same eigensystem.
    """
    s_eigen = eig.to_eigenbasis(np.asarray(s))
    return TransitionSet(
        eig=eig,
        s_eigen=s_eigen,
        s_abs2=np.abs(s_eigen) ** 2,
        grouping=eig.transition_grouping(delta_omega),
    )
