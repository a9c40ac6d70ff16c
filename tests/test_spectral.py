"""Eigen decomposition, phase gauge, and transition-frequency collisions."""

import numpy as np
import pytest

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
from dressedlight.dissipation import Bath, bath_lowering, cavity_quadrature


def _quadrature(ops):
    """The Hermitian cavity quadrature X = -i A_X."""
    return -1j * cavity_quadrature(ops)


def _random_hermitian_with_spectrum(energies, seed):
    rng = np.random.default_rng(seed)
    n = len(energies)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q @ np.diag(energies) @ q.conj().T


def test_diagonalize_recovers_spectrum():
    energies = np.array([-1.5, 0.0, 0.3, 2.2, 7.1])
    h = _random_hermitian_with_spectrum(energies, seed=11)
    eig = diagonalize(h)
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
        diagonalize(h)


def test_phase_gauge_largest_component_real_positive():
    h = _random_hermitian_with_spectrum([0.0, 0.4, 1.1, 3.0], seed=2)
    eig = diagonalize(h)
    for k in range(4):
        v = eig.vectors[:, k]
        idx = np.argmax(np.abs(v))
        assert abs(v[idx].imag) < 1e-14
        assert v[idx].real > 0
    # the gauge makes the decomposition reproducible across equivalent inputs
    again = diagonalize(h.copy())
    np.testing.assert_allclose(eig.vectors, again.vectors, atol=0)


def test_real_hamiltonian_gives_real_vectors_in_the_gauge():
    p = ModelParams(2, 0.4, 0.4, 0.1, n_max=8)
    h = build_hamiltonian(p)
    eig = diagonalize(h)
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
    p = ModelParams(1, 0.3, 0.1, 0.1, n_max=4)
    ops = build_operators(p)
    eig = diagonalize(build_hamiltonian(p))
    x = _quadrature(ops)
    s = eig.to_eigenbasis(x)
    np.testing.assert_allclose(
        s, eig.vectors.conj().T @ x @ eig.vectors, atol=1e-13)
    # Hermitian operators stay Hermitian in the new basis
    np.testing.assert_allclose(s, s.conj().T, atol=1e-13)


def test_transition_frequencies_and_zero_group():
    p = ModelParams(1, 0.3, 0.0, 0.1, n_max=4)
    eig = diagonalize(build_hamiltonian(p))
    grp = _loop_grouping(eig, 1e-9)
    # the pinned zero-frequency group sits exactly at 0
    assert grp["omegas"][grp["zero_group"]] == 0.0
    # every group frequency is realized by its member pairs
    for k, (b, e) in enumerate(zip(grp["starts"], grp["stops"])):
        for a, c in zip(grp["pair_a"][b:e], grp["pair_b"][b:e]):
            omega_ac = eig.group_energy[c] - eig.group_energy[a]
            assert abs(omega_ac - grp["omegas"][k]) < 1e-8
    # frequencies come out sorted and unique at this coupling
    assert np.all(np.diff(grp["omegas"]) > 0)
    assert eig.collision_omegas().size == 0


def test_reconstruct_roundtrip():
    # the frequency groups split every operator into disjoint components
    # that add up to it, so rates evaluated per group energy pair cover
    # every matrix element exactly once
    p = ModelParams(2, 0.4, 0.2, 0.1, n_max=3)
    ops = build_operators(p)
    eig = diagonalize(build_hamiltonian(p))
    s = eig.to_eigenbasis(_quadrature(ops))
    grp = _loop_grouping(eig, 1e-9)
    members = [np.flatnonzero(eig.group_index == a)
               for a in range(eig.group_energy.size)]
    covered = np.zeros(s.shape, dtype=int)
    total = np.zeros_like(s)
    for b, e in zip(grp["starts"], grp["stops"]):
        component = np.zeros_like(s)
        for a, c in zip(grp["pair_a"][b:e], grp["pair_b"][b:e]):
            block = np.ix_(members[a], members[c])
            component[block] = s[block]
            covered[block] += 1
        total += component
    np.testing.assert_array_equal(covered, 1)
    np.testing.assert_allclose(total, s, atol=1e-13)


def test_harmonic_ladder_collisions_flagged():
    # uncoupled cavity: all upward transitions share the same frequency
    p = ModelParams(1, 0.0, 0.0, 0.1, n_max=5)
    eig = diagonalize(build_hamiltonian(p))
    collisions = eig.collision_omegas()
    assert collisions.size > 0
    assert 1.0 in np.round(collisions, 12)


def test_squared_elements_match():
    p = ModelParams(1, 0.25, 0.25, 0.15, n_max=4)
    ops = build_operators(p)
    eig = diagonalize(build_hamiltonian(p))
    x = _quadrature(ops)
    np.testing.assert_allclose(group_transitions(eig, x),
                               eig.to_eigenbasis(x), atol=1e-14)


def _loop_grouping(eig, delta_omega):
    """Reference grouping: one mean per group and a loop over collisions."""
    ge = eig.group_energy
    n_grp = ge.size
    pair_omega = (ge[None, :] - ge[:, None]).ravel()
    order = np.argsort(pair_omega, kind="stable")
    sorted_omega = pair_omega[order]
    breaks = np.nonzero(np.diff(sorted_omega) >= delta_omega)[0]
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks + 1, [sorted_omega.size]))
    omegas = np.array([sorted_omega[b:e].mean() for b, e in zip(starts, stops)])
    zero_group = int(np.argmin(np.abs(omegas)))
    omegas[zero_group] = 0.0
    collisions = []
    for k, (b, e) in enumerate(zip(starts, stops)):
        size = e - b
        if k == zero_group:
            if size > n_grp:
                collisions.append(0.0)
        elif size > 1 and omegas[k] > 0:
            collisions.append(omegas[k])
    return dict(omegas=omegas, pair_a=order // n_grp, pair_b=order % n_grp,
                starts=starts, stops=stops, zero_group=zero_group,
                collision_omegas=np.asarray(collisions))


@pytest.mark.parametrize("params", [
    ModelParams(2, 0.4, 0.4, 0.1, n_max=6),  # Dicke limit, g' = g
    ModelParams(2, 0.3, 0.0, 0.1, n_max=6),  # TC limit: degenerate levels
    ModelParams(1, 0.0, 0.0, 0.1, n_max=5),  # harmonic ladder, collisions
], ids=["dicke-n2", "tc-n2-degenerate", "harmonic-ladder"])
def test_vectorized_grouping_matches_loop_reference(params):
    eig = diagonalize(build_hamiltonian(params))
    collisions = eig.collision_omegas()
    ref = _loop_grouping(eig, 1e-9)
    assert collisions.size == ref["collision_omegas"].size
    np.testing.assert_allclose(collisions, ref["collision_omegas"],
                               rtol=1e-12, atol=0)


def test_channel_sets_share_one_grouping(monkeypatch):
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
    couplings = [group_transitions(system.eig, lower - lower.T)
                 for lower in bath_lowering(ops)]
    assert len(couplings) == 3
    weight = sum(s_eigen**2 for s_eigen in couplings)
    rebuilt = build_rate_table(system.eig, weight, p.temperature,
                               system.rates.bath)
    np.testing.assert_array_equal(system.rates.gain, rebuilt.gain)
