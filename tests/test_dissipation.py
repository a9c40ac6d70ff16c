"""Bath rates, detailed balance, and the dressed-basis rate table.

The rate-table oracle recomputes every gain element from scratch with plain
numpy.linalg.eigh and nested loops, so the table's vectorized assembly is
checked against an independent implementation of the same physics.
"""

from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from dressedlight import (
    Bath,
    ModelParams,
    OperatorSet,
    bath_lowering,
    bose_occupation,
    build_hamiltonian,
    build_operators,
    build_rate_table,
    dissipation,
    group_transitions,
    pipeline,
    solve_system,
    spectral,
    thermal_rate,
)
from dressedlight.dissipation import (
    lamb_shift_rate,
    pv_transform,
    spectral_density,
)


def test_bath_lowering_order():
    # the cavity coupling first, then one per emitter in index order
    p = ModelParams(3, 0.2, 0.1, 0.1, n_max=3, x0=1.7)
    ops = build_operators(p)
    lowering = bath_lowering(ops)
    assert len(lowering) == 4
    np.testing.assert_array_equal(lowering[0], p.x0 * ops.a)
    for j, lower in enumerate(lowering[1:]):
        assert lower is ops.sigma_minus[j]


def test_channel_operators():
    p = ModelParams(2, 0.2, 0.1, 0.1, n_max=3)
    ops = build_operators(p)
    lowering = bath_lowering(ops)
    # X = -i x0 (a - a+) and sigma_y = i (s+ - s-), built by hand
    x = -1j * p.x0 * (ops.a - ops.a.T)
    sigma_y_1 = 1j * (ops.sigma_minus[1].T - ops.sigma_minus[1])
    np.testing.assert_allclose(-1j * (lowering[0] - lowering[0].T), x)
    np.testing.assert_allclose(-1j * (lowering[2] - lowering[2].T), sigma_y_1)


@pytest.mark.parametrize("g_prime", [0.0, 0.3], ids=["tc", "dicke"])
def test_dressed_pipeline_is_real(g_prime, monkeypatch):
    # every coupling is S = -i A with A real antisymmetric, and the
    # eigenvectors are real, so no complex D x D array is needed from the
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
    assert all(op.dtype == np.float64 for op in (ops.a, *ops.sigma_minus))
    system = solve_system(p)
    assert system.eig.vectors.dtype == np.float64
    assert len(transforms) == 3
    for s_eigen in transforms:
        assert s_eigen.dtype == np.float64
    assert sum(s_eigen * s_eigen for s_eigen in transforms).dtype == np.float64
    assert system.xdot.dtype == np.float64
    hermitian = [-1j * p.x0 * (ops.a - ops.a.T)]
    hermitian += [1j * (sm.T - sm) for sm in ops.sigma_minus]
    for lower, s in zip(bath_lowering(ops), hermitian, strict=True):
        np.testing.assert_array_equal(-1j * (lower - lower.T), s)


def test_rates_are_evaluated_once_per_solve(monkeypatch):
    # every coupling sees the same bath, so the D x D rate arrays are
    # evaluated once, however many emitters couple to it
    calls = {"thermal": 0, "lamb": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(dissipation, "thermal_rate",
                        counted("thermal", dissipation.thermal_rate))
    monkeypatch.setattr(dissipation, "lamb_shift_rate",
                        counted("lamb", dissipation.lamb_shift_rate))
    p = ModelParams(3, 0.3, 0.0, 0.1, n_max=4)
    solve_system(p)
    assert calls == {"thermal": 1, "lamb": 0}
    solve_system(p, lamb_cutoff=50.0)
    assert calls == {"thermal": 2, "lamb": 1}


def test_spectral_density_linear():
    ch = Bath(gamma=0.03, omega_ref=2.0)
    w = np.array([0.5, 1.0, 4.0])
    np.testing.assert_allclose(spectral_density(ch, w), 0.03 * w / 2.0)


def test_bose_occupation_values():
    # direct formula at moderate argument
    assert bose_occupation(1.0, 0.5) == pytest.approx(1.0 / (np.exp(2.0) - 1.0))
    # high-temperature expansion n ~ T/w - 1/2
    assert bose_occupation(1e-4, 1.0) == pytest.approx(1e4 - 0.5, abs=1e-3)
    # frozen bath
    assert bose_occupation(1.0, 0.0) == 0.0
    assert bose_occupation(800.0, 1.0) == 0.0  # underflow guard
    with pytest.raises(ValueError):
        bose_occupation(0.0, 0.1)
    with pytest.raises(ValueError):
        bose_occupation(-1.0, 0.1)


def test_thermal_rate_branches():
    ch = Bath(gamma=0.02, omega_ref=1.0)
    T = 0.25
    w = 0.7
    n = 1.0 / (np.exp(w / T) - 1.0)
    assert thermal_rate(w, T, ch) == pytest.approx(0.02 * w * (n + 1.0))
    assert thermal_rate(-w, T, ch) == pytest.approx(0.02 * w * n)
    assert thermal_rate(0.0, T, ch) == pytest.approx(0.02 * T)
    # vectorized mixed signs agree with scalar calls
    grid = np.array([-1.3, -0.2, 0.0, 0.4, 2.0])
    vec = thermal_rate(grid, T, ch)
    np.testing.assert_allclose(vec, [thermal_rate(v, T, ch) for v in grid])
    # zero temperature kills absorption entirely
    assert thermal_rate(-w, 0.0, ch) == 0.0
    assert thermal_rate(0.0, 0.0, ch) == 0.0


def test_thermal_rate_detailed_balance():
    ch = Bath(gamma=0.01, omega_ref=1.0)
    rng = np.random.default_rng(12)
    T = 0.21
    for w in rng.uniform(0.05, 2.5, 8):
        lhs = thermal_rate(-w, T, ch)
        rhs = np.exp(-w / T) * thermal_rate(w, T, ch)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_pv_transform_against_quadrature():
    ch = Bath(gamma=0.04, omega_ref=1.3, lamb_cutoff=10.0)
    for w in (0.3, 1.0, 4.5, 9.0):
        # quad's cauchy weight integrates f(x)/(x - wvar); flip the sign to
        # match the (omega - w') convention of the closed form
        val, _ = quad(lambda x: spectral_density(ch, x), 0.0, ch.lamb_cutoff,
                      weight="cauchy", wvar=w)
        assert pv_transform(w, ch) == pytest.approx(-val / np.pi, rel=1e-10)
    with pytest.raises(ValueError):
        pv_transform(0.0, ch)
    with pytest.raises(ValueError):
        pv_transform(10.5, ch)
    with pytest.raises(ValueError):
        pv_transform(1.0, Bath(gamma=0.01, omega_ref=1.0))  # no cutoff configured


def test_lamb_shift_rate_branches():
    ch = Bath(gamma=0.01, omega_ref=1.0, lamb_cutoff=20.0)
    T = 0.2
    w = 0.8
    n = 1.0 / (np.exp(w / T) - 1.0)
    assert lamb_shift_rate(w, T, ch) == pytest.approx(
        pv_transform(w, ch) * (n + 1.0))
    assert lamb_shift_rate(-w, T, ch) == pytest.approx(
        -pv_transform(w, ch) * n)
    assert lamb_shift_rate(0.0, T, ch) == 0.0
    # disabled channel reports zero shift everywhere
    off = Bath(gamma=0.01, omega_ref=1.0)
    np.testing.assert_allclose(
        lamb_shift_rate(np.array([-1.0, 0.0, 1.0]), T, off), 0.0)


def _coupling_weight(system):
    """sum_c A_c**2 over the bath couplings S_c = -i A_c, in the eigenbasis,
    summed in the order the pipeline sums them."""
    ops = build_operators(system.params)
    return sum(group_transitions(system.eig, lower - lower.T) ** 2
               for lower in bath_lowering(ops))


def _brute_force_gain(params, temperature):
    """Independent rate table: plain eigh + nested loops over level pairs."""
    ops = build_operators(params)
    h = build_hamiltonian(params)
    energies, vectors = np.linalg.eigh(h)
    bath = Bath(params.gamma, params.omega0)
    dim = params.dim
    gain = np.zeros((dim, dim))
    for lower in bath_lowering(ops):
        s = vectors.conj().T @ (lower - lower.T) @ vectors
        for n in range(dim):
            for k in range(dim):
                if n == k:
                    continue
                w = energies[k] - energies[n]
                if abs(w) < 1e-9:
                    w = 0.0
                gain[n, k] += thermal_rate(w, temperature, bath) * abs(s[n, k]) ** 2
    return energies, gain


@pytest.mark.parametrize("n_emitters,g,gp", [(1, 0.3, 0.0), (2, 0.37, 0.21)])
def test_rate_table_matches_brute_force(n_emitters, g, gp):
    T = 0.17
    p = ModelParams(n_emitters, g, gp, T, n_max=4)
    system = solve_system(p)
    energies, gain = _brute_force_gain(p, T)
    np.testing.assert_allclose(system.eig.energies, energies, atol=1e-12)
    np.testing.assert_allclose(system.rates.gain, gain, atol=1e-13)
    # generator = gain off the diagonal, columns summing to zero
    gen = system.rates.generator
    np.testing.assert_allclose(gen.sum(axis=0), 0.0, atol=1e-15)
    off = gen - np.diag(np.diag(gen))
    np.testing.assert_allclose(off, gain, atol=1e-13)
    assert np.all(off >= 0)


def test_generator_detailed_balance():
    T = 0.23
    p = ModelParams(2, 0.41, 0.41, T, n_max=4)
    system = solve_system(p)
    gain = system.rates.gain
    boltz = np.exp(-(system.eig.energies - system.eig.energies[0]) / T)
    lhs = gain * boltz[None, :]       # rate k->n times weight of k
    np.testing.assert_allclose(lhs, lhs.T, rtol=1e-9, atol=1e-18)


def test_decay_constants_structure():
    T = 0.15
    p = ModelParams(1, 0.28, 0.0, T, n_max=4)
    system = solve_system(p)
    z = build_rate_table(system.eig, _coupling_weight(system), T,
                         system.rates.bath).z
    np.testing.assert_allclose(z, system.rates.z, atol=0)
    # real part is half the total escape rate out of each level
    np.testing.assert_allclose(2.0 * z.real, system.rates.gain.sum(axis=0),
                               rtol=1e-12)
    assert np.all(z.real > 0)  # every level relaxes at T > 0
    # without the principal-value shift the imaginary part is the bare energy
    np.testing.assert_allclose(z.imag, system.eig.energies, atol=1e-15)


def test_lamb_shift_moves_frequencies():
    T = 0.15
    p = ModelParams(1, 0.28, 0.0, T, n_max=4)
    plain = solve_system(p)
    shifted = solve_system(p, lamb_cutoff=50.0)
    # populations relax identically; only the coherence frequencies move
    np.testing.assert_allclose(shifted.rates.gain, plain.rates.gain,
                               atol=1e-15)
    assert np.abs(shifted.rates.z.imag - plain.rates.z.imag).max() > 1e-5


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
                            system.rates.bath)
    for members in degenerate_groups:
        for a in members:
            for b in members:
                if a != b:
                    assert cold.gain[a, b] == 0.0


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
    # the weight sums the squared real A of every coupling S = -i A
    operators = [p.x0 * (ops.a - ops.a.T)]
    operators += [sm - sm.T for sm in ops.sigma_minus]
    weight = sum(system.eig.to_eigenbasis(op) ** 2 for op in operators)
    np.testing.assert_array_equal(weight, _coupling_weight(system))
    rebuilt = build_rate_table(system.eig, weight, p.temperature,
                               system.rates.bath)
    np.testing.assert_array_equal(system.rates.gain, rebuilt.gain)
