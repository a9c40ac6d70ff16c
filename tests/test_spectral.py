"""Eigen decomposition, phase gauge, and transition-frequency collisions."""

import tracemalloc

import numpy as np
import pytest
from dense_ops import dense

from dressedlight import (
    ModelParams,
    build_hamiltonian,
    build_operators,
    build_rate_table,
    diagonalize,
    group_transitions,
    solve_system,
    spectral,
)
from dressedlight.dissipation import Bath, bath_lowering


def _quadrature(ops):
    """The Hermitian cavity quadrature X = -i A_X, as a dense array."""
    lower = dense(bath_lowering(ops)[0], ops.params.dim)
    return -1j * (lower - lower.T)


def _random_hermitian_with_spectrum(energies, seed):
    rng = np.random.default_rng(seed)
    n = len(energies)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q @ np.diag(energies) @ q.conj().T


def test_diagonalize_recovers_spectrum():
    energies = np.array([-1.5, 0.0, 0.3, 2.2, 7.1])
    h = _random_hermitian_with_spectrum(energies, seed=11)
    eig = diagonalize(h, 1e-9)
    np.testing.assert_allclose(eig.energies, energies, atol=1e-12)
    # eigenvector property, column by column
    for k in range(5):
        np.testing.assert_allclose(h @ eig.vectors[:, k],
                                   energies[k] * eig.vectors[:, k],
                                   atol=1e-12)
    assert not eig.degenerate
    assert eig.group_index.tolist() == [0, 1, 2, 3, 4]


def test_diagonalize_rejects_non_hermitian():
    h = np.array([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        diagonalize(h, 1e-9)
    # the check runs over row blocks; a defect in the last block, paired
    # with a column of the first, is caught at the same bound
    big = np.eye(700)
    big[699, 3] = 1e-9
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize(big, 1e-9)


def _traced_peak(fn):
    """Peak bytes tracemalloc sees allocated during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagonalize_allocates_no_dense_temporary():
    # the hermiticity check and the gauge fix go over blocks: beyond what
    # eigh itself allocates, diagonalize holds less than a quarter of
    # one D x D array
    n = 1000
    h = np.random.default_rng(5).standard_normal((n, n))
    h += h.T
    extra = (_traced_peak(lambda: diagonalize(h, 1e-9))
             - _traced_peak(lambda: np.linalg.eigh(h)))
    assert extra < 0.25 * n * n * 8


def test_phase_gauge_largest_component_real_positive():
    h = _random_hermitian_with_spectrum([0.0, 0.4, 1.1, 3.0], seed=2)
    eig = diagonalize(h, 1e-9)
    for k in range(4):
        v = eig.vectors[:, k]
        idx = np.argmax(np.abs(v))
        assert abs(v[idx].imag) < 1e-14
        assert v[idx].real > 0
    # the gauge makes the decomposition reproducible across equivalent inputs
    again = diagonalize(h.copy(), 1e-9)
    np.testing.assert_allclose(eig.vectors, again.vectors, atol=0)


def test_real_hamiltonian_gives_real_vectors_in_the_gauge():
    p = ModelParams(2, 0.4, 0.4, 0.1, n_max=8)
    h = build_hamiltonian(p)
    eig = diagonalize(h, 1e-9)
    assert eig.vectors.dtype == np.float64
    idx = np.argmax(np.abs(eig.vectors), axis=0)
    assert np.all(eig.vectors[idx, np.arange(p.dim)] > 0)
    np.testing.assert_allclose(h @ eig.vectors, eig.vectors * eig.energies,
                               atol=1e-12)


def test_degenerate_grouping():
    energies = [0.0, 1.0, 1.0 + 1e-12, 2.0, 2.0 + 5e-13, 2.0 + 9e-13]
    h = _random_hermitian_with_spectrum(energies, seed=5)
    eig = diagonalize(h, delta_e=1e-9)
    assert eig.degenerate
    assert eig.group_index.tolist() == [0, 1, 1, 2, 2, 2]
    assert np.bincount(eig.group_index).tolist() == [1, 2, 3]
    np.testing.assert_allclose(eig.group_energy, [0.0, 1.0, 2.0],
                               atol=1e-11)
    # tightening the tolerance splits the groups again
    fine = diagonalize(h, delta_e=1e-14)
    assert not fine.degenerate


def test_group_energy_is_member_mean():
    energies = [-0.5, 1.0, 1.0 + 3e-10, 1.0 + 7e-10, 2.5]
    eig = diagonalize(np.diag(energies), delta_e=1e-9)
    assert eig.group_index.tolist() == [0, 1, 1, 1, 2]
    for a, energy in enumerate(eig.group_energy):
        assert energy == eig.energies[eig.group_index == a].mean()
    assert eig.group_energy[1] == np.mean(energies[1:4])


def test_to_eigenbasis_matches_direct_projection():
    for p in (ModelParams(1, 0.3, 0.1, 0.1, n_max=4),
              ModelParams(1, 0.25, 0.25, 0.15, n_max=4)):
        ops = build_operators(p)
        eig = diagonalize(build_hamiltonian(p), 1e-9)
        v = eig.vectors
        for lower in bath_lowering(ops):
            np.testing.assert_allclose(eig.to_eigenbasis(lower),
                                       v.T @ dense(lower, p.dim) @ v,
                                       atol=1e-13)
        x = _quadrature(ops)
        s = -1j * group_transitions(eig, bath_lowering(ops)[0])
        np.testing.assert_allclose(s, v.conj().T @ x @ v, atol=1e-14)
        # Hermitian operators stay Hermitian in the new basis
        np.testing.assert_allclose(s, s.conj().T, atol=1e-13)


def test_harmonic_ladder_collisions_flagged():
    # uncoupled cavity: all upward transitions share the same frequency
    p = ModelParams(1, 0.0, 0.0, 0.1, n_max=5)
    eig = diagonalize(build_hamiltonian(p), 1e-9)
    collisions = eig.collision_omegas()
    assert collisions.size > 0
    assert 1.0 in np.round(collisions, 12)


def _loop_collisions(eig, delta_omega):
    """Reference collisions: one mean per frequency group, found by a loop."""
    ge = eig.group_energy
    sorted_omega = np.sort((ge[None, :] - ge[:, None]).ravel())
    breaks = np.nonzero(np.diff(sorted_omega) >= delta_omega)[0]
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [sorted_omega.size]))
    omegas = np.array([sorted_omega[b:e].mean() for b, e in zip(starts, stops)])
    zero_group = int(np.argmin(np.abs(omegas)))
    collisions = []
    for k, (b, e) in enumerate(zip(starts, stops)):
        size = e - b
        if k == zero_group:
            if size > ge.size:
                collisions.append(0.0)
        elif size > 1 and omegas[k] > 0:
            collisions.append(omegas[k])
    return np.asarray(collisions)


@pytest.mark.parametrize("params, n_collisions", [
    (ModelParams(2, 0.4, 0.4, 0.1, n_max=6), 5),  # Dicke limit, g' = g
    (ModelParams(2, 0.3, 0.0, 0.1, n_max=6), 46),  # TC: degenerate levels
    (ModelParams(1, 0.0, 0.0, 0.1, n_max=5), 5),  # harmonic ladder
    (ModelParams(1, 0.3, 0.0, 0.1, n_max=4), 0),  # JC ladder: none
], ids=["dicke-n2", "tc-n2-degenerate", "harmonic-ladder", "jc-n1"])
def test_vectorized_grouping_matches_loop_reference(params, n_collisions):
    eig = diagonalize(build_hamiltonian(params), 1e-9)
    collisions = eig.collision_omegas()
    assert collisions.size == n_collisions
    np.testing.assert_allclose(collisions, _loop_collisions(eig, 1e-9),
                               rtol=1e-12, atol=0)


def test_couplings_share_one_grouping(monkeypatch):
    # the secular grouping lives in the one eigensystem: collisions are
    # counted once per solve, and every coupling is projected onto the same
    # eigenbasis whose group energies the rate table reads
    calls = []
    original = spectral.EigenSystem.collision_omegas

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(spectral.EigenSystem, "collision_omegas", counted)
    p = ModelParams(2, 0.3, 0.3, 0.1, n_max=4)
    system = solve_system(p)
    assert len(calls) == 1
    assert system.rates.bath == Bath(p.gamma, p.omega0)
    ops = build_operators(p)
    couplings = [group_transitions(system.eig, lower)
                 for lower in bath_lowering(ops)]
    assert len(couplings) == 3
    weight = sum(s_eigen**2 for s_eigen in couplings)
    rebuilt = build_rate_table(system.eig, weight, p.temperature,
                               system.rates.bath)
    np.testing.assert_array_equal(system.rates.generator, rebuilt.generator)


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("g_prime", [0.0, 0.31], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
def test_group_transitions_matches_dense_projection(n_emitters, g_prime,
                                                    detuned):
    # the index-map transform equals V^T (L - L^T) V of the dense operator
    # for every bath coupling, including the x0-scaled cavity
    extra = dict(omega_c=1.1, omega_x=0.95) if detuned else {}
    p = ModelParams(n_emitters, 0.31, g_prime, 0.1, n_max=7, x0=1.3, **extra)
    eig = diagonalize(build_hamiltonian(p), 1e-9)
    v = eig.vectors
    for lower in bath_lowering(build_operators(p)):
        coupling = group_transitions(eig, lower)
        assert coupling.dtype == np.float64
        np.testing.assert_array_equal(coupling, -coupling.T)
        lower = dense(lower, p.dim)
        np.testing.assert_allclose(coupling, v.T @ (lower - lower.T) @ v,
                                   rtol=0, atol=1e-13)
