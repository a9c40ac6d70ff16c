"""Eigen decomposition by blocks, gauge and sign invariance, collisions."""

import tracemalloc

import numpy as np
import pytest
from dense_ops import (dense, dense_hamiltonian, dense_vectors,
                       hamiltonian_entries, level_block, scatter, state_block,
                       summed_squares)

from dressedlight import (
    ModelParams,
    build_hamiltonian,
    build_operators,
    build_rate_table,
    cluster_weights,
    diagonalize,
    group_transitions,
    pipeline,
    solve_system,
    spectral,
    thermal_rate,
)
from dressedlight.dissipation import bath_lowering


def _quadrature(ops):
    """The Hermitian cavity quadrature X = -i A_X, as a dense array."""
    lower = dense(bath_lowering(ops)[0], ops.params.dim)
    return -1j * (lower - lower.T)


def _random_symmetric_with_spectrum(energies, seed):
    rng = np.random.default_rng(seed)
    n = len(energies)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(energies) @ q.T


def test_diagonalize_recovers_spectrum():
    energies = np.array([-1.5, 0.0, 0.3, 2.2, 7.1])
    h = _random_symmetric_with_spectrum(energies, seed=11)
    eig = diagonalize(hamiltonian_entries(h))
    np.testing.assert_allclose(eig.energies, energies, atol=1e-12)
    # eigenvector property, column by column
    v = dense_vectors(eig)
    for k in range(5):
        np.testing.assert_allclose(h @ v[:, k], energies[k] * v[:, k],
                                   atol=1e-12)
    assert not eig.degenerate
    assert eig.group_index.tolist() == [0, 1, 2, 3, 4]
    # the model Hamiltonian gives float64 vectors that solve the eigen
    # equation, and the same input gives the same vectors
    p = ModelParams(2, 0.4, 0.4, 0.1, n_max=8)
    h = build_hamiltonian(build_operators(p))
    eig = diagonalize(h)
    assert all(block.dtype == np.float64 for block in eig.vectors)
    v = dense_vectors(eig)
    np.testing.assert_allclose(dense_hamiltonian(h) @ v, v * eig.energies,
                               atol=1e-12)
    np.testing.assert_array_equal(
        dense_vectors(diagonalize(build_hamiltonian(build_operators(p)))),
        v)


def test_diagonalize_rejects_complex_input():
    h = _random_symmetric_with_spectrum([0.0, 0.4, 1.1, 3.0], seed=2)
    diagonal, couplings = hamiltonian_entries(h)
    with pytest.raises(ValueError, match="complex"):
        diagonalize((diagonal,
                     couplings._replace(amp=couplings.amp + 1e-3j)))
    # a complex dtype is refused even when every imaginary part is zero
    with pytest.raises(ValueError, match="complex"):
        diagonalize((diagonal.astype(complex), couplings))
    with pytest.raises(ValueError, match="complex"):
        diagonalize((diagonal,
                     couplings._replace(amp=couplings.amp.astype(complex))))


def _traced_peak(fn):
    """Peak bytes tracemalloc sees allocated during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagonalize_holds_little_beyond_the_vectors():
    # each block is filled from its elements alone and its vectors are
    # kept as they are: tc (65 blocks of at most 16 states) holds almost
    # nothing (0.04 D x D), and dicke (two parities of D/2) at most its
    # two blocks, their vectors and eigh's copies (0.90 to 1.15)
    for params, dense_arrays in (
            (ModelParams(4, 0.3, 0.0, 0.1, n_max=60), 0.1),
            (ModelParams(2, 0.5, 0.5, 0.07, n_max=100), 1.5)):
        h = build_hamiltonian(params)
        peak = _traced_peak(lambda: diagonalize(h))
        assert peak < dense_arrays * params.dim**2 * 8


def _reachable_arrays(obj, seen=None):
    """Every ndarray reachable from obj through containers and attributes."""
    seen = {} if seen is None else seen
    if id(obj) in seen:
        return
    seen[id(obj)] = obj  # kept alive, so no id is reused
    if isinstance(obj, np.ndarray):
        yield obj
        return
    items = list(obj.items()) if isinstance(obj, dict) else []
    items += list(obj) if isinstance(obj, (list, tuple)) else []
    items += [vars(obj)] if hasattr(obj, "__dict__") else []
    for item in items:
        yield from _reachable_arrays(item, seen)


@pytest.mark.parametrize("params", [
    ModelParams(4, 0.3, 0.0, 0.1, n_max=30),
    ModelParams(2, 0.5, 0.5, 0.07, n_max=40),
], ids=["tc-n4", "dicke-n2"])
def test_no_dense_array_is_reachable_from_a_solve(params):
    # the eigenvectors are one array per block and every eigenbasis
    # operator is block pairs: the largest array a solve keeps is a tc
    # excitation sector, or one of the two dicke parities of D/2 states
    system = solve_system(params)
    arrays = list(_reachable_arrays(system))
    assert all(4 * array.size <= params.dim**2 for array in arrays)
    assert any(array is system.eig.energies for array in arrays)
    assert any(array is system.eig.vectors[0] for array in arrays)


@pytest.mark.parametrize("g", [0.3, 0.0], ids=["coupled", "g0"])
def test_weight_on_matches_the_dense_vectors(g):
    # the weight of every level on a set of basis states, read block by
    # block, is the sum of the squared rows of the dense V
    p = ModelParams(3, g, 0.0, 0.1, n_max=6)
    eig = diagonalize(build_hamiltonian(p))
    v = dense_vectors(eig)
    for states in (np.arange(6, p.dim, 7), np.array([0]), np.arange(p.dim)):
        np.testing.assert_array_equal(eig.weight_on(states),
                                      (v[states] ** 2).sum(axis=0))


def test_degenerate_grouping():
    energies = [0.0, 1.0, 1.0 + 1e-12, 2.0, 2.0 + 5e-13, 2.0 + 9e-13]
    h = _random_symmetric_with_spectrum(energies, seed=5)
    eig = diagonalize(hamiltonian_entries(h))
    assert eig.degenerate
    assert eig.group_index.tolist() == [0, 1, 1, 2, 2, 2]
    assert np.bincount(eig.group_index).tolist() == [1, 2, 3]
    np.testing.assert_allclose(eig.group_energy, [0.0, 1.0, 2.0],
                               atol=1e-11)
    # a tighter tolerance splits the groups again
    index, _ = spectral.gap_clusters(eig.energies, 1e-14)
    assert index.tolist() == list(range(len(energies)))


def test_group_energy_is_member_mean():
    energies = [-0.5, 1.0, 1.0 + 3e-10, 1.0 + 7e-10, 2.5]
    eig = diagonalize(hamiltonian_entries(np.diag(energies)))
    assert eig.group_index.tolist() == [0, 1, 1, 1, 2]
    for a, energy in enumerate(eig.group_energy):
        assert energy == eig.energies[eig.group_index == a].mean()
    assert eig.group_energy[1] == np.mean(energies[1:4])


def test_to_eigenbasis_matches_direct_projection():
    for p in (ModelParams(1, 0.3, 0.1, 0.1, n_max=4),
              ModelParams(1, 0.25, 0.25, 0.15, n_max=4)):
        ops = build_operators(p)
        eig = diagonalize(build_hamiltonian(ops))
        v = dense_vectors(eig)
        for lower in bath_lowering(ops):
            np.testing.assert_allclose(scatter(eig.to_eigenbasis(lower)),
                                       v.T @ dense(lower, p.dim) @ v,
                                       atol=1e-13)
        x = _quadrature(ops)
        s = -1j * scatter(group_transitions(eig, bath_lowering(ops)[0]))
        np.testing.assert_allclose(s, v.conj().T @ x @ v, atol=1e-14)
        # Hermitian operators stay Hermitian in the new basis
        np.testing.assert_allclose(s, s.conj().T, atol=1e-13)


def _solve_with_weight(params):
    """solve_system(params) and its summed coupling weight, rebuilt in the
    order the pipeline sums it."""
    system = solve_system(params)
    weight = summed_squares([group_transitions(system.eig, lower) for lower
                             in bath_lowering(build_operators(params))])
    return system, weight


def _loop_collisions(eig, weight):
    """Reference collisions: the mean frequency of every cluster of two or
    more weighted group pairs, found by loops over the dense W."""
    w = scatter(weight)
    ge = eig.group_energy
    members = [np.flatnonzero(eig.group_index == a) for a in range(ge.size)]
    pairs = [(w[np.ix_(members[a], members[b])].sum(), ge[b] - ge[a])
             for a in range(ge.size) for b in range(a + 1, ge.size)]
    total = sum(s for s, _ in pairs)
    clusters = []
    for omega in sorted(omega for s, omega in pairs
                        if s > spectral.WEIGHT_FLOOR * total):
        if clusters and omega - clusters[-1][-1] < spectral.LEVEL_TOL:
            clusters[-1].append(omega)
        else:
            clusters.append([omega])
    return np.array([np.mean(c) for c in clusters if len(c) > 1])


def test_harmonic_ladder_collisions_flagged():
    # uncoupled cavity: every weighted upward transition has frequency 1
    system, weight = _solve_with_weight(ModelParams(1, 0.0, 0.0, 0.1, n_max=5))
    collisions = _loop_collisions(system.eig, weight)
    assert system.collision_count == collisions.size == 1
    assert 1.0 in np.round(collisions, 12)


@pytest.mark.parametrize("params, n_collisions", [
    (ModelParams(2, 0.4, 0.4, 0.1, n_max=6), 1),  # Dicke limit, g' = g
    (ModelParams(2, 0.3, 0.0, 0.1, n_max=6), 15),  # TC: degenerate levels
    (ModelParams(1, 0.0, 0.0, 0.1, n_max=5), 1),  # harmonic ladder
    (ModelParams(1, 0.3, 0.0, 0.1, n_max=4), 0),  # JC ladder: none
], ids=["dicke-n2", "tc-n2-degenerate", "harmonic-ladder", "jc-n1"])
def test_vectorized_grouping_matches_loop_reference(params, n_collisions):
    system, weight = _solve_with_weight(params)
    assert system.collision_count == n_collisions
    assert spectral.count_collisions(system.eig, weight) == n_collisions
    assert _loop_collisions(system.eig, weight).size == n_collisions


def test_couplings_share_one_grouping(monkeypatch):
    # the secular grouping lives in the one eigensystem: collisions are
    # counted once per solve, and every coupling is projected onto the same
    # eigenbasis whose group energies the rate table reads
    calls = []
    original = spectral.count_collisions

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(pipeline, "count_collisions", counted)
    p = ModelParams(2, 0.3, 0.3, 0.1, n_max=4)
    system = solve_system(p)
    assert len(calls) == 1
    assert system.rates.gamma == p.gamma
    ops = build_operators(p)
    couplings = [group_transitions(system.eig, lower)
                 for lower in bath_lowering(ops)]
    assert len(couplings) == 3
    weight = summed_squares(couplings)
    rebuilt = build_rate_table(system.eig, weight, p.temperature,
                               system.rates.gamma)
    np.testing.assert_array_equal(scatter(system.rates.generator),
                                  scatter(rebuilt.generator))


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("g_prime", [0.0, 0.31], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
def test_group_transitions_matches_dense_projection(n_emitters, g_prime,
                                                    detuned):
    # the index-map transform equals V^T (L - L^T) V of the dense operator
    # for every bath coupling, including the x0-scaled cavity
    extra = dict(omega_c=1.1, omega_x=0.95) if detuned else {}
    p = ModelParams(n_emitters, 0.31, g_prime, 0.1, n_max=7, x0=1.3, **extra)
    ops = build_operators(p)
    eig = diagonalize(build_hamiltonian(ops))
    v = dense_vectors(eig)
    for lower in bath_lowering(ops):
        coupling = scatter(group_transitions(eig, lower))
        assert all(block.dtype == np.float64
                   for block in group_transitions(eig, lower).values())
        np.testing.assert_array_equal(coupling, -coupling.T)
        lower = dense(lower, p.dim)
        np.testing.assert_allclose(coupling, v.T @ (lower - lower.T) @ v,
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("params", [
    ModelParams(2, 0.4, 0.4, 0.1, n_max=8),
    ModelParams(4, 0.3, 0.0, 0.1, n_max=5),
    ModelParams(3, 0.35, 0.35, 0.15, n_max=6),
    ModelParams(1, 0.3, 0.0, 0.1, n_max=8),
    ModelParams(2, 0.3, 0.0, 0.1, n_max=6, omega_c=1.1, omega_x=0.95),
], ids=["dicke-n2", "tc-n4", "dicke-n3", "tc-n1", "tc-n2-detuned"])
def test_outputs_invariant_under_eigenvector_signs(monkeypatch, params):
    # every output reads the eigenvectors through quadratic forms, so
    # flipping the sign of any column changes no bit of any of them
    omega = np.linspace(0.0, 3.0, 300)
    times = np.linspace(0.0, 50.0 / params.gamma, 20)

    def outputs():
        system = solve_system(params)
        spectrum = system.spectrum(omega)
        return (system.g2_zero(), system.integrated_emission(),
                system.cutoff_tail(), system.collision_count,
                scatter(system.rates.generator), system.rates.z,
                spectrum.values,
                spectrum.centers, spectrum.weights, spectrum.half_widths,
                system.g2_time(times).values)

    reference = outputs()
    rng = np.random.default_rng(17)
    for _ in range(3):
        flipped = []

        def diagonalize_flipped(h):
            eig = spectral.diagonalize(h)
            flip = rng.random(eig.energies.size) < 0.5
            for v, levels in zip(eig.vectors, eig.levels):
                v[:, flip[levels]] *= -1.0
            flipped.append(flip.sum())
            return eig

        monkeypatch.setattr(pipeline, "diagonalize", diagonalize_flipped)
        for got, want in zip(outputs(), reference):
            np.testing.assert_array_equal(got, want)
        assert flipped[0] > 0


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("g_prime", [0.0, 0.31], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
def test_block_eigh_matches_dense_eigh(n_emitters, g_prime, detuned):
    # one eigh per block gives the levels of one dense eigh, eigenvectors
    # that solve H V = V E, and columns exactly zero outside their block;
    # g = 0 leaves H diagonal, and its one-state blocks join along
    # degenerate levels until each block is one group
    extra = dict(omega_c=1.1, omega_x=0.95) if detuned else {}
    for g in (0.31, 0.0):
        p = ModelParams(n_emitters, g, g_prime * (g > 0), 0.1, n_max=7,
                        **extra)
        h = build_hamiltonian(p)
        eig = diagonalize(h)
        h = dense_hamiltonian(h)
        scale = np.abs(eig.energies).max()
        np.testing.assert_allclose(eig.energies, np.linalg.eigh(h)[0],
                                   rtol=1e-12, atol=1e-12 * scale)
        v = dense_vectors(eig)
        np.testing.assert_allclose(h @ v, v * eig.energies,
                                   rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(v.T @ v, np.eye(p.dim), atol=1e-12)
        levels = level_block(eig)
        assert np.all(v[state_block(eig)[:, None] != levels] == 0)
        # every degenerate group lies in one block
        assert np.all(np.diff(levels)[np.diff(eig.group_index) == 0] == 0)
        if g == 0:
            assert len(eig.states) == eig.group_energy.size


def test_blocks_are_the_conserved_sectors():
    # without counter-rotating terms the blocks are the excitation sectors
    # n + #excited, 0..n_max + N; with them, the two parities
    p = ModelParams(4, 0.3, 0.0, 0.1, n_max=60)
    eig = diagonalize(build_hamiltonian(p))
    config, fock = np.divmod(np.arange(p.dim), p.n_max + 1)
    excitation = fock + np.array([bin(c).count("1") for c in config])
    assert len(eig.states) == 65
    np.testing.assert_array_equal(state_block(eig), excitation)
    for n_emitters in (1, 2, 3, 4):
        p = ModelParams(n_emitters, 0.3, 0.3, 0.1, n_max=10)
        eig = diagonalize(build_hamiltonian(p))
        assert state_block(eig).max() + 1 == 2
    # a random symmetric matrix is one block
    eig = diagonalize(hamiltonian_entries(
        _random_symmetric_with_spectrum([0.0, 1.0, 2.0], 3)))
    assert state_block(eig).tolist() == level_block(eig).tolist() == [0, 0, 0]


def _rotate_degenerate_groups(eig, rng):
    """Rotate the vectors of every degenerate group by a random orthogonal,
    inside the one block that holds the group."""
    sizes = np.bincount(eig.group_index)
    blocks = level_block(eig)
    for stop, size in zip(np.cumsum(sizes), sizes):
        if size > 1:
            q, _ = np.linalg.qr(rng.standard_normal((size, size)))
            v, levels = (part[blocks[stop - 1]]
                         for part in (eig.vectors, eig.levels))
            cols = eig.group_index[levels] == eig.group_index[stop - 1]
            v[:, cols] = v[:, cols] @ q
    return eig


@pytest.mark.parametrize("params", [
    ModelParams(2, 0.3, 0.0, 0.1, n_max=40),
    ModelParams(4, 0.3, 0.0, 0.1, n_max=30),
], ids=["tc-n2-cross-j", "tc-n4-same-j-copies"])
def test_outputs_invariant_under_rotations_inside_degenerate_levels(
        monkeypatch, params):
    # tc N=2 has an antisymmetric (j = 0) level beside a symmetric (j = 1)
    # one; tc N=4 adds three copies of j = 1 and two of j = 0.  The total
    # spin gauge undoes any rotation inside a degenerate level: every
    # output stays put, and the loss operator
    # Gamma_mm' = sum_n chi(E_m - E_n) sum_c A_c[n, m] A_c[n, m'] is
    # diagonal inside each group, with 2 Re z on its diagonal.  Inside
    # copies of one j the split of a peak between pairs stays free; the
    # weight floor reads (group, group) sums, so it keeps or drops the
    # pairs of a group pair together, whatever the basis, and so does the
    # collision count (an integer, so the 1e-12 bound below is exact)
    omega = np.linspace(0.0, 3.0, 3000)
    times = np.linspace(0.0, 50.0 / params.gamma, 60)

    def outputs():
        system = solve_system(params)
        spectrum = system.spectrum(omega)
        return system, [
            system.collision_count,
            system.g2_zero(), system.integrated_emission(),
            *cluster_weights(spectrum), system.g2_time(times).values,
            spectrum.values, np.sort(system.rates.z.real)]

    system, reference = outputs()
    eig = system.eig
    sizes = np.bincount(eig.group_index)
    assert sizes.max() > 1
    chi = thermal_rate(eig.group_energy[eig.group_index][None, :]
                       - eig.group_energy[eig.group_index][:, None],
                       params.temperature, params.gamma)
    couplings = [scatter(group_transitions(eig, lower))
                 for lower in bath_lowering(build_operators(params))]
    for stop, size in zip(np.cumsum(sizes), sizes):
        cols = slice(stop - size, stop)
        gamma = sum(a[:, cols].T @ (chi[:, [stop - 1]] * a[:, cols])
                    for a in couplings)
        off = gamma - np.diag(np.diag(gamma))
        assert np.abs(off).max() <= 1e-12 * np.abs(gamma).max()
        np.testing.assert_allclose(np.diag(gamma),
                                   2 * system.rates.z.real[cols], rtol=1e-12)

    rng = np.random.default_rng(29)
    monkeypatch.setattr(pipeline, "diagonalize", lambda h: (
        _rotate_degenerate_groups(spectral.diagonalize(h), rng)))
    for _ in range(2):
        for got, want in zip(outputs()[1], reference):
            got, want = np.atleast_1d(got), np.atleast_1d(want)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
