"""Bath rates, detailed balance, and the dressed-basis rate table.

The rate-table oracle recomputes every gain element from scratch with plain
numpy.linalg.eigh and nested loops, so the table's vectorized assembly is
checked against an independent implementation of the same physics.
"""

from dataclasses import fields

import numpy as np
import pytest
from dense_ops import dense, dense_hamiltonian, scatter, summed_squares

from dressedlight import (
    ModelParams,
    OperatorSet,
    bath_lowering,
    build_hamiltonian,
    build_operators,
    build_rate_table,
    dissipation,
    group_transitions,
    pipeline,
    qo_liouvillian,
    qoptical,
    solve_system,
    spectral,
    thermal_rate,
)


def test_bath_lowering_order():
    # the cavity coupling first, then one per emitter in index order
    p = ModelParams(3, 0.2, 0.1, 0.1, n_max=3, x0=1.7)
    ops = build_operators(p)
    lowering = bath_lowering(ops)
    assert len(lowering) == 4
    np.testing.assert_array_equal(dense(lowering[0], p.dim),
                                  p.x0 * dense(ops.a, p.dim))
    for j, lower in enumerate(lowering[1:]):
        assert lower is ops.sigma_minus[j]


def test_channel_operators():
    p = ModelParams(2, 0.2, 0.1, 0.1, n_max=3)
    ops = build_operators(p)
    lowering = [dense(lower, p.dim) for lower in bath_lowering(ops)]
    a = dense(ops.a, p.dim)
    sigma_minus_1 = dense(ops.sigma_minus[1], p.dim)
    # X = -i x0 (a - a+) and sigma_y = i (s+ - s-), built by hand
    x = -1j * p.x0 * (a - a.T)
    sigma_y_1 = 1j * (sigma_minus_1.T - sigma_minus_1)
    np.testing.assert_allclose(-1j * (lowering[0] - lowering[0].T), x)
    np.testing.assert_allclose(-1j * (lowering[2] - lowering[2].T), sigma_y_1)


@pytest.mark.parametrize("g_prime", [0.0, 0.3], ids=["tc", "dicke"])
def test_dressed_pipeline_is_real(g_prime, monkeypatch):
    # every coupling is S = -i A with A real antisymmetric, and the
    # eigenvectors are real blocks, so no complex array is needed from the
    # operators to the emission operator
    transforms = []

    def recorded(eig, s):
        transforms.append(group_transitions(eig, s))
        return transforms[-1]

    monkeypatch.setattr(pipeline, "group_transitions", recorded)
    p = ModelParams(2, 0.3, g_prime, 0.1, n_max=4)
    ops = build_operators(p)
    assert [f.name for f in fields(OperatorSet)] == ["params", "a",
                                                     "sigma_minus"]
    assert all(op.amp.dtype == np.float64
               for op in (ops.a, *ops.sigma_minus))
    system = solve_system(p)
    assert all(block.dtype == np.float64 for block in system.eig.vectors)
    assert len(transforms) == 3
    for s_eigen in transforms:
        assert all(block.dtype == np.float64 for block in s_eigen.values())
    assert all(block.dtype == np.float64
               for block in summed_squares(transforms).values())
    assert all(block.dtype == np.float64 for block in system.xdot.values())
    a = dense(ops.a, p.dim)
    sigma_minus = [dense(sm, p.dim) for sm in ops.sigma_minus]
    hermitian = [-1j * p.x0 * (a - a.T)]
    hermitian += [1j * (sm.T - sm) for sm in sigma_minus]
    for lower, s in zip(bath_lowering(ops), hermitian, strict=True):
        lower = dense(lower, p.dim)
        np.testing.assert_array_equal(-1j * (lower - lower.T), s)


def test_rates_are_evaluated_once_per_solve(monkeypatch):
    # every coupling sees the same bath, so the rates of the level-block
    # pairs are evaluated once, however many emitters couple to it; the
    # comparison solver takes its two resonance rates from the same function
    calls = []

    def counted(*args):
        calls.append(args)
        return thermal_rate(*args)

    monkeypatch.setattr(dissipation, "thermal_rate", counted)
    monkeypatch.setattr(qoptical, "thermal_rate", counted)
    p = ModelParams(3, 0.3, 0.0, 0.1, n_max=4)
    solve_system(p)
    assert len(calls) == 1
    qo_liouvillian(p)
    assert len(calls) == 2
    omega, temperature, gamma = calls[1]
    np.testing.assert_array_equal(omega, [1.0, -1.0])
    assert temperature == p.temperature
    assert gamma == p.gamma


def test_bose_occupation_values():
    # with gamma = 1 the absorption rate at -w is w * n(w)
    def occupation(w, temperature):
        return thermal_rate(-w, temperature, 1.0) / w

    # direct formula at moderate argument
    assert occupation(1.0, 0.5) == pytest.approx(1.0 / (np.exp(2.0) - 1.0))
    # high-temperature expansion n ~ T/w - 1/2
    assert occupation(1e-4, 1.0) == pytest.approx(1e4 - 0.5, abs=1e-3)
    # frozen bath
    assert occupation(1.0, 0.0) == 0.0
    assert occupation(800.0, 1.0) == 0.0  # underflow guard
    with pytest.raises(ValueError):
        occupation(1.0, -0.1)


def test_thermal_rate_branches():
    gamma = 0.02
    T = 0.25
    w = 0.7
    n = 1.0 / (np.exp(w / T) - 1.0)
    assert thermal_rate(w, T, gamma) == pytest.approx(0.02 * w * (n + 1.0))
    assert thermal_rate(-w, T, gamma) == pytest.approx(0.02 * w * n)
    assert thermal_rate(0.0, T, gamma) == pytest.approx(0.02 * T)
    # vectorized mixed signs agree with scalar calls
    grid = np.array([-1.3, -0.2, 0.0, 0.4, 2.0])
    vec = thermal_rate(grid, T, gamma)
    np.testing.assert_allclose(vec, [thermal_rate(v, T, gamma) for v in grid])
    # high-temperature expansion n ~ T/w - 1/2 of the occupation
    small = 1e-4
    assert thermal_rate(small, 1.0, gamma) / (0.02 * small) == pytest.approx(
        1e4 + 0.5, abs=1e-3)
    assert thermal_rate(-small, 1.0, gamma) / (0.02 * small) == pytest.approx(
        1e4 - 0.5, abs=1e-3)
    # zero temperature kills absorption entirely, emission is spontaneous
    assert thermal_rate(w, 0.0, gamma) == pytest.approx(0.02 * w)
    assert thermal_rate(-w, 0.0, gamma) == 0.0
    assert thermal_rate(0.0, 0.0, gamma) == 0.0
    # occupation underflow guard at omega / T = 800
    assert thermal_rate(800.0, 1.0, gamma) == 0.02 * 800.0
    assert thermal_rate(-800.0, 1.0, gamma) == 0.0
    # the damping must be positive
    with pytest.raises(ValueError, match="gamma"):
        thermal_rate(1.0, 0.1, 0.0)


def test_thermal_rate_detailed_balance():
    gamma = 0.01
    rng = np.random.default_rng(12)
    T = 0.21
    for w in rng.uniform(0.05, 2.5, 8):
        lhs = thermal_rate(-w, T, gamma)
        rhs = np.exp(-w / T) * thermal_rate(w, T, gamma)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _coupling_weight(system):
    """sum_c A_c**2 over the bath couplings S_c = -i A_c, in the eigenbasis,
    summed in the order the pipeline sums them."""
    ops = build_operators(system.params)
    return summed_squares([group_transitions(system.eig, lower)
                           for lower in bath_lowering(ops)])


def _gain(rates):
    """Population rates k -> n: the generator off its diagonal."""
    gain = scatter(rates.generator)
    np.fill_diagonal(gain, 0.0)
    return gain


def _brute_force_gain(params, temperature):
    """Independent rate table: plain eigh + nested loops over level pairs."""
    ops = build_operators(params)
    h = dense_hamiltonian(build_hamiltonian(ops))
    energies, vectors = np.linalg.eigh(h)
    dim = params.dim
    gain = np.zeros((dim, dim))
    for lower in bath_lowering(ops):
        lower = dense(lower, dim)
        s = vectors.conj().T @ (lower - lower.T) @ vectors
        for n in range(dim):
            for k in range(dim):
                if n == k:
                    continue
                w = energies[k] - energies[n]
                if abs(w) < 1e-9:
                    w = 0.0
                gain[n, k] += (thermal_rate(w, temperature, params.gamma)
                               * abs(s[n, k]) ** 2)
    return energies, gain


@pytest.mark.parametrize("n_emitters,g,gp", [(1, 0.3, 0.0), (2, 0.37, 0.21)])
def test_rate_table_matches_brute_force(n_emitters, g, gp):
    T = 0.17
    p = ModelParams(n_emitters, g, gp, T, n_max=4)
    system = solve_system(p)
    energies, gain = _brute_force_gain(p, T)
    np.testing.assert_allclose(system.eig.energies, energies, atol=1e-12)
    np.testing.assert_allclose(_gain(system.rates), gain, atol=1e-13)
    # generator = gain off the diagonal, columns summing to zero
    gen = scatter(system.rates.generator)
    np.testing.assert_allclose(gen.sum(axis=0), 0.0, atol=1e-15)
    off = gen - np.diag(np.diag(gen))
    np.testing.assert_allclose(off, gain, atol=1e-13)
    assert np.all(off >= 0)


def test_generator_detailed_balance():
    T = 0.23
    p = ModelParams(2, 0.41, 0.41, T, n_max=4)
    system = solve_system(p)
    gain = _gain(system.rates)
    boltz = np.exp(-(system.eig.energies - system.eig.energies[0]) / T)
    lhs = gain * boltz[None, :]       # rate k->n times weight of k
    np.testing.assert_allclose(lhs, lhs.T, rtol=1e-9, atol=1e-18)


def test_decay_constants_structure():
    T = 0.15
    p = ModelParams(1, 0.28, 0.0, T, n_max=4)
    system = solve_system(p)
    table = build_rate_table(system.eig, _coupling_weight(system), T,
                             system.rates.gamma)
    z = table.z
    np.testing.assert_allclose(z, system.rates.z, atol=0)
    # real part is half the total escape rate out of each level, imaginary
    # part the level energy
    # summed pair by pair, in the order of the generator's pairs
    loss = np.zeros(z.size)
    for (_, c), gain in table.generator.items():
        loss[table.generator.levels[c]] += gain.sum(axis=0)
    np.testing.assert_array_equal(z.real, 0.5 * loss)
    np.testing.assert_array_equal(z.imag, system.eig.energies)
    assert np.all(z.real > 0)  # every level relaxes at T > 0


def test_zero_frequency_rate_inside_degenerate_group():
    # two exactly degenerate levels exchange population at the Ohmic
    # zero-frequency rate, not at all at T=0
    T = 0.2
    p = ModelParams(2, 0.3, 0.0, T, n_max=4)  # dark states sit in the ladder
    system = solve_system(p)
    eig = system.eig
    groups = [np.flatnonzero(eig.group_index == a)
              for a in range(eig.group_energy.size)]
    degenerate_groups = [m for m in groups if len(m) > 1]
    assert degenerate_groups  # the model really has a degenerate pair
    cold = build_rate_table(eig, _coupling_weight(system), 0.0,
                            system.rates.gamma)
    cold_generator = scatter(cold.generator)
    for members in degenerate_groups:
        for a in members:
            for b in members:
                if a != b:
                    assert cold_generator[a, b] == 0.0


def test_collision_count_is_counted_once_per_eigensystem(monkeypatch):
    # collisions depend on the group energies alone: one count per
    # eigensystem, not one per coupling, and one weight summed over them
    calls = []
    original = spectral.EigenSystem.collision_omegas

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(spectral.EigenSystem, "collision_omegas", counted)
    p = ModelParams(2, 0.0, 0.0, 0.1, n_max=5)
    system = solve_system(p)
    assert len(calls) == 1
    assert system.collision_count == original(system.eig).size > 0
    ops = build_operators(p)
    # the weight sums the squared real A = M - M^T of every coupling
    # S = -i A, M the eigenbasis elements of its lowering operator
    operators = [ops.a._replace(amp=p.x0 * ops.a.amp), *ops.sigma_minus]
    elements = [scatter(system.eig.to_eigenbasis(op)) for op in operators]
    weight = sum((m - m.T) ** 2 for m in elements)
    pairs = _coupling_weight(system)
    np.testing.assert_array_equal(weight, scatter(pairs))
    rebuilt = build_rate_table(system.eig, pairs, p.temperature,
                               system.rates.gamma)
    np.testing.assert_array_equal(scatter(system.rates.generator),
                                  scatter(rebuilt.generator))
