"""Population relaxation, coherence decay, and regression evolution."""

import tracemalloc

import numpy as np
import pytest
from dense_ops import gather, generator_pairs, hamiltonian_entries, scatter
from scipy.linalg import expm

from dressedlight import (
    DarkStateError,
    DegenerateGroundError,
    DiagonalPropagator,
    ModelParams,
    StationaryState,
    build_rate_table,
    diagonalize,
    solve_system,
    stationary_state,
)
from dressedlight.dynamics import CHUNK_ELEMENTS, RegressionEvolver


def _random_distribution(rng, n):
    p = rng.random(n)
    return p / p.sum()


def _synthetic_system(energies, temperature, seed=0):
    """Rate table for a hand-picked spectrum with a dense coupling matrix."""
    rng = np.random.default_rng(seed)
    n = len(energies)
    diagonal = np.asarray(energies, dtype=float)
    eig = diagonalize(hamiltonian_entries(np.diag(diagonal)))
    s = rng.standard_normal((n, n))
    s = s + s.T
    weight = (eig.vectors.T @ s @ eig.vectors) ** 2
    return eig, build_rate_table(eig, gather(weight, eig.levels),
                                 temperature, 0.01)


def _propagate(system, p0, t):
    """Populations exp(G t) p0, one weighted curve per level."""
    prop = DiagonalPropagator(system.rates.generator, system.stationary)
    return np.array([prop.weighted_curve(row, p0, [t])[0]
                     for row in np.eye(p0.size)])


def _regression(system, rho, observable, times):
    """Re Tr[observable Lambda_t(rho)] at every delay, as a float64 array."""
    return RegressionEvolver(system.rates, system.stationary, gather(rho),
                             gather(observable)).curve(
                                 np.asarray(times, dtype=float))


def _dense_g2_reference(system, times):
    """g2(t) with the diagonal propagated by dense expm of the generator
    and every off-diagonal element by its decay factor."""
    xdot = scatter(system.xdot)
    pop = system.stationary.populations
    rho_c = (xdot * pop[None, :]) @ xdot.conj().T
    observable = xdot.conj().T @ xdot
    off = rho_c.copy()
    np.fill_diagonal(off, 0.0)
    rows, cols = np.nonzero(off)
    coeff = observable[cols, rows] * off[rows, cols]
    z = system.rates.z
    zsum = z[rows] + np.conj(z[cols])
    denominator = pop @ (np.abs(xdot) ** 2).sum(axis=0)
    out = []
    for t in times:
        diag = np.diag(observable) @ (
            expm(scatter(system.rates.generator) * t) @ np.diag(rho_c))
        out.append((diag + np.exp(-zsum * t) @ coeff).real / denominator**2)
    return np.array(out)


def test_stationary_is_boltzmann():
    p = ModelParams(1, 0.5, 0.5, 0.1, n_max=8)
    system = solve_system(p)
    e = system.eig.energies
    boltz = np.exp(-(e - e[0]) / 0.1)
    boltz /= boltz.sum()
    np.testing.assert_allclose(system.stationary.populations, boltz,
                               rtol=1e-12)
    assert system.stationary.residual < 1e-9
    assert system.stationary.populations.min() >= 0
    assert system.stationary.populations.sum() == pytest.approx(1.0)


def test_stationary_zero_temperature_ground():
    p = ModelParams(1, 0.4, 0.0, 0.0, n_max=6)
    system = solve_system(p)
    expect = np.zeros(p.dim)
    expect[0] = 1.0
    np.testing.assert_allclose(system.stationary.populations, expect)


def test_stationary_degenerate_ground_rejected():
    eig, rates = _synthetic_system([0.0, 0.0, 1.0], temperature=0.0)
    with pytest.raises(DegenerateGroundError):
        stationary_state(eig, rates)
    # at T > 0 the same spectrum is fine and the pair shares weight equally
    eig, rates = _synthetic_system([0.0, 0.0, 1.0], temperature=0.3)
    stat = stationary_state(eig, rates)
    assert stat.populations[0] == pytest.approx(stat.populations[1], rel=1e-12)


@pytest.mark.parametrize("temperature", [0.0, 0.3])
def test_single_level_holds_all_population(temperature):
    # one level is one group: no degenerate ground at T = 0, and at T > 0
    # its Boltzmann weight is the whole population
    eig, rates = _synthetic_system([0.0], temperature)
    assert eig.group_index.tolist() == [0]
    assert not eig.degenerate
    stat = stationary_state(eig, rates)
    np.testing.assert_array_equal(stat.populations, [1.0])
    assert stat.residual == 0.0


def test_propagate_matches_expm():
    p = ModelParams(1, 0.35, 0.2, 0.15, n_max=4)
    system = solve_system(p)
    rng = np.random.default_rng(4)
    p0 = _random_distribution(rng, p.dim)
    gen = scatter(system.rates.generator)
    for t in (0.0, 3.0, 40.0, 700.0):
        direct = expm(gen * t) @ p0
        np.testing.assert_allclose(_propagate(system, p0, t),
                                   direct, atol=1e-11)


def test_propagate_conserves_and_stays_positive():
    p = ModelParams(2, 0.45, 0.45, 0.12, n_max=3)
    system = solve_system(p)
    rng = np.random.default_rng(9)
    p0 = _random_distribution(rng, p.dim)
    for t in np.geomspace(0.01, 2e4, 12):
        pt = _propagate(system, p0, t)
        assert pt.sum() == pytest.approx(1.0, abs=1e-10)
        assert pt.min() >= -1e-12


def test_propagate_semigroup():
    p = ModelParams(1, 0.3, 0.3, 0.2, n_max=4)
    system = solve_system(p)
    rng = np.random.default_rng(11)
    p0 = _random_distribution(rng, p.dim)
    one_step = _propagate(system, p0, 130.0)
    two_step = _propagate(system, _propagate(system, p0, 50.0), 80.0)
    np.testing.assert_allclose(one_step, two_step, atol=1e-9)


def test_long_time_limit_is_thermal():
    p = ModelParams(1, 0.3, 0.0, 0.1, n_max=5)
    system = solve_system(p)
    rng = np.random.default_rng(2)
    p0 = _random_distribution(rng, p.dim)
    late = _propagate(system, p0, 50.0 / p.gamma)
    np.testing.assert_allclose(late, system.stationary.populations, atol=1e-8)


def test_fixed_point_independent_of_start():
    for gp in (0.0, 0.3):
        p = ModelParams(1, 0.3, gp, 0.1, n_max=5)
        system = solve_system(p)
        rng = np.random.default_rng(21)
        a = _propagate(system, _random_distribution(rng, p.dim),
                       50.0 / p.gamma)
        b = _propagate(system, _random_distribution(rng, p.dim),
                       50.0 / p.gamma)
        assert np.abs(a - b).max() < 1e-7


def test_two_level_closed_form_decay():
    # two levels at T > 0: the upper population relaxes exponentially to
    # its thermal value with the summed down and up rates
    eig, rates = _synthetic_system([0.0, 1.0], temperature=0.4, seed=3)
    generator = scatter(rates.generator)
    down, up = generator[0, 1], generator[1, 0]
    assert down > up > 0
    stat = stationary_state(eig, rates)
    prop = DiagonalPropagator(rates.generator, stat)
    p1_eq = up / (down + up)
    assert stat.populations[1] == pytest.approx(p1_eq, rel=1e-12)
    p0 = np.array([0.0, 1.0])
    for t in (0.5, 5.0, 50.0):
        upper = prop.weighted_curve(np.array([0.0, 1.0]), p0, [t])[0]
        expect = p1_eq + (1.0 - p1_eq) * np.exp(-(down + up) * t)
        assert upper == pytest.approx(expect, rel=1e-12)


def test_generator_without_detailed_balance_rejected():
    # directed 3-level chain with equal rates: the generator has a Jordan
    # block and no detailed balance with respect to any weights
    gen = np.array([[-1.0, 0.0, 0.0],
                    [1.0, -1.0, 0.0],
                    [0.0, 1.0, 0.0]])
    stat = StationaryState(populations=np.array([0.5, 0.3, 0.2]),
                           temperature=0.5, residual=0.0)
    with pytest.raises(ValueError, match="detailed balance"):
        DiagonalPropagator(generator_pairs(gen), stat)
    # balanced on 300 levels but for one rate, from the last level into
    # the first
    n = 300
    rng = np.random.default_rng(3)
    p = _random_distribution(rng, n)
    s = rng.random((n, n))
    gen = (s + s.T) * np.sqrt(p[:, None] / p[None, :])
    stat = StationaryState(populations=p, temperature=0.5, residual=0.0)
    DiagonalPropagator(generator_pairs(gen), stat)
    gen[n - 1, 0] *= 1.5
    with pytest.raises(ValueError, match="detailed balance"):
        DiagonalPropagator(generator_pairs(gen), stat)


def test_weighted_curve_matches_pointwise_propagation():
    p = ModelParams(1, 0.4, 0.4, 0.18, n_max=4)
    system = solve_system(p)
    rng = np.random.default_rng(8)
    p0 = _random_distribution(rng, p.dim)
    weights = rng.standard_normal(p.dim)
    times = np.array([0.0, 1.7, 12.0, 300.0])
    prop = DiagonalPropagator(system.rates.generator, system.stationary)
    curve = prop.weighted_curve(weights, p0, times)
    generator = scatter(system.rates.generator)
    expect = [weights @ expm(generator * t) @ p0 for t in times]
    np.testing.assert_allclose(curve, expect, atol=1e-11)


def test_offdiagonal_factor_decay_and_phase():
    p = ModelParams(1, 0.3, 0.0, 0.1, n_max=5)
    system = solve_system(p)
    z = system.rates.z
    m, n = 1, 3
    # a lone real (m, n) element, read back through the (n, m) observable
    # entry, evolves with its own decay factor exp(-(z_m + conj(z_n)) t),
    # whose real part is exp(-gamma t) cos(omega t)
    rho = np.zeros((p.dim, p.dim))
    rho[m, n] = 1.0
    observable = np.zeros((p.dim, p.dim))
    observable[n, m] = 1.0
    times = np.array([0.0, 0.7, 8.0, 150.0])
    factors = _regression(system, rho, observable, times)
    assert factors.dtype == np.float64
    gamma = z[m].real + z[n].real
    omega = z[m].imag - z[n].imag
    np.testing.assert_allclose(
        factors, np.exp(-gamma * times) * np.cos(omega * times),
        rtol=1e-12, atol=1e-12)
    # the winding rate is the bare energy difference
    e = system.eig.energies
    assert z[m].imag - z[n].imag == pytest.approx(e[m] - e[n], abs=1e-14)


def test_regression_kernel_limits():
    p = ModelParams(1, 0.4, 0.0, 0.15, n_max=4)
    system = solve_system(p)
    xdot = scatter(system.xdot)
    stat = system.stationary.populations
    rho_c = (xdot * stat[None, :]) @ xdot.conj().T
    observable = xdot.conj().T @ xdot
    at_zero, late = _regression(system, rho_c, observable,
                                [0.0, 50.0 / p.gamma])
    # tau = 0: plain trace
    assert at_zero == pytest.approx(np.trace(observable @ rho_c))
    # late times factorize into stationary expectation times total weight
    factorized = (np.diag(observable).real @ stat) * np.trace(rho_c).real
    assert late == pytest.approx(factorized, rel=1e-6)


def test_regression_kernel_matches_brute_force():
    """Independent evaluation: dense expm for the diagonal part plus an
    explicit loop over off-diagonal entries."""
    p = ModelParams(1, 0.35, 0.35, 0.2, n_max=3)
    system = solve_system(p)
    xdot = scatter(system.xdot)
    stat = system.stationary.populations
    rho_c = (xdot * stat[None, :]) @ xdot.conj().T
    observable = xdot.conj().T @ xdot
    gen = scatter(system.rates.generator)
    z = system.rates.z
    for tau in (0.0, 2.5, 31.0):
        diag_part = np.diag(observable) @ (expm(gen * tau) @ np.diag(rho_c))
        off_part = 0.0 + 0.0j
        dim = rho_c.shape[0]
        for m in range(dim):
            for n in range(dim):
                if m != n:
                    off_part += (observable[n, m] * rho_c[m, n]
                                 * np.exp(-(z[m] + np.conj(z[n])) * tau))
        expect = diag_part + off_part
        got = _regression(system, rho_c, observable, [tau])[0]
        assert got == pytest.approx(expect, rel=1e-10)


def test_relaxation_gap_matches_generator_spectrum():
    system = solve_system(ModelParams(2, 0.45, 0.45, 0.12, n_max=6))
    gap = system.g2_time(np.array([0.0])).relaxation_gap
    decay = -np.linalg.eigvals(scatter(system.rates.generator)).real
    assert gap == pytest.approx(decay[decay > 1e-10].min(), rel=1e-9)


@pytest.mark.parametrize("g_prime", [0.4, 0.0])
def test_g2_time_matches_dense_expm_with_underflowing_weights(g_prime):
    # N = 1, T = 0.02: most Boltzmann weights underflow to exactly zero and
    # the propagator works on the populated levels only; g' = 0 (tc) adds
    # degenerate levels
    system = solve_system(ModelParams(1, 0.4, g_prime, 0.02, n_max=100))
    assert np.count_nonzero(system.stationary.populations == 0) > 100
    times = np.array([0.0, 3.0, 60.0, 900.0, 5000.0])
    got = system.g2_time(times).values
    np.testing.assert_allclose(got, _dense_g2_reference(system, times),
                               rtol=1e-9)


def test_g2_time_is_real_across_time_chunks():
    # 1000 delays times the stored coherence pairs exceed the
    # CHUNK_ELEMENTS RegressionEvolver.curve evaluates at once, so the curve
    # is built in at least two chunks; sampled delays straddle the first
    # boundary
    system = solve_system(ModelParams(2, 0.5, 0.5, 0.07, n_max=40))
    xdot = scatter(system.xdot)
    rho_c = (xdot * system.stationary.populations[None, :]) @ xdot.T
    pairs = np.count_nonzero(np.triu(xdot.T @ xdot * rho_c, 1))
    times = np.linspace(0.0, 500.0, 1000)
    chunk = CHUNK_ELEMENTS // pairs
    assert 0 < chunk < times.size
    values = system.g2_time(times).values
    assert values.dtype == np.float64
    sample = np.unique(np.r_[0:times.size:50, chunk - 1, chunk,
                             times.size - 1])
    np.testing.assert_allclose(
        values[sample], _dense_g2_reference(system, times[sample]),
        rtol=1e-12)


@pytest.fixture(scope="module")
def g2time_point():
    """The D = 404 solve of the g2time-dicke-n2 benchmark at seed 0."""
    return solve_system(ModelParams(2, 0.5989, 0.5989, 0.0657, n_max=100))


def test_g2_time_allocates_few_dense_arrays(g2time_point):
    # D = 404: the conditional matrix and the observable are block pairs,
    # one (D/2, D/2) block per parity, and their coherence coefficients
    # are O(pairs) lists; measured 2.70 D x D arrays
    system = g2time_point
    dim = system.params.dim
    assert dim == 404
    times = np.linspace(0.0, 5000.0, 10)
    tracemalloc.start()
    try:
        system.g2_time(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.95 * dim * dim * 8


def test_g2_time_over_many_delays_stays_below_four_dense_arrays(
        g2time_point):
    # the (delay, pair) temporaries of the coherences are evaluated
    # CHUNK_ELEMENTS at a time, so 500 delays cost no more than 10 do
    system = g2time_point
    dim = system.params.dim
    times = np.linspace(0.0, 5000.0, 500)
    tracemalloc.start()
    try:
        system.g2_time(times)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * dim * dim * 8


def test_propagator_build_stays_below_two_dense_arrays(g2time_point):
    # the detailed-balance check runs pair by pair, and K holds only the
    # 182 populated levels of 404; measured 0.96 D x D arrays
    system = g2time_point
    dim = system.params.dim
    tracemalloc.start()
    try:
        DiagonalPropagator(system.rates.generator, system.stationary)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(system.stationary.populations) == 182
    assert peak < 1.05 * dim * dim * 8


def test_zero_temperature_has_no_propagator():
    system = solve_system(ModelParams(2, 0.5, 0.5, 0.0, n_max=20))
    with pytest.raises(DarkStateError):
        system.g2_time(np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="T = 0"):
        DiagonalPropagator(system.rates.generator, system.stationary)


def test_start_weight_on_unpopulated_levels_rejected():
    system = solve_system(ModelParams(1, 0.4, 0.4, 0.02, n_max=100))
    pop = system.stationary.populations
    prop = DiagonalPropagator(system.rates.generator, system.stationary)
    p0 = pop.copy()
    p0[np.flatnonzero(pop == 0)[0]] = 1e-3
    with pytest.raises(ValueError, match="zero Boltzmann weight"):
        prop.weighted_curve(np.ones(pop.size), p0, [1.0])
