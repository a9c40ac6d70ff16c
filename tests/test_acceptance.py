"""Release gate: every shipped guarantee checked end to end.

One test per guarantee, in a fixed order, so running this file with -v
prints one pass/fail line for each.  Parameter points shared between
checks are solved once and cached.
"""

from functools import lru_cache

import numpy as np
import pytest
from dense_ops import dense_hamiltonian

from dressedlight import (
    ModelParams,
    build_hamiltonian,
    cluster_weights,
    jc_ladder,
    qo_g2_zero,
    scaling_energies,
    solve_system,
    spectrum_sum_rule,
    tc_energies_n2,
    tc_g2_approximation,
)

GAMMA = 1e-2

# two-emitter reference points (g, T) from strong to ultrastrong coupling
STRONG_POINTS = ((0.5, 0.07), (0.7, 0.23), (0.8, 0.1))

# coarse chart axes shared by the topology, bare-operator, and cutoff checks
CHART_G = np.linspace(0.1, 0.8, 8)
CHART_T = np.linspace(0.02, 0.3, 8)


def _g_prime(limit, g):
    return g if limit == "dicke" else 0.0


@lru_cache(maxsize=None)
def _reference_point(limit, g, temperature, n_max):
    """Two-emitter stationary emission summary at one parameter point."""
    params = ModelParams(2, g, _g_prime(limit, g), temperature, n_max=n_max)
    system = solve_system(params)
    spec = system.spectrum(np.array([1.0]))
    centers, weights = cluster_weights(spec)
    return {
        "g2": float(system.g2_zero()),
        "centers": centers,
        "weights": weights,
        "total": float(system.integrated_emission()),
        "integral": float(spectrum_sum_rule(spec)),
    }


@lru_cache(maxsize=None)
def _point_g2(n_emitters, limit, g, temperature, n_max):
    params = ModelParams(n_emitters, g, _g_prime(limit, g), temperature,
                         n_max=n_max)
    return float(solve_system(params).g2_zero())


def _chart(n_emitters, limit, n_max):
    return np.array([[_point_g2(n_emitters, limit, float(g), float(t), n_max)
                      for t in CHART_T] for g in CHART_G])


def _assert_in_spectrum(levels, values, tol=1e-10):
    for value in np.atleast_1d(values):
        gap = np.abs(levels - value).min()
        assert gap <= tol * max(1.0, abs(value))


def test_closed_form_ladders_match_full_diagonalization():
    for g in (0.1, 0.3, 0.5):
        for n_emitters in (1, 2, 3):
            h = dense_hamiltonian(build_hamiltonian(
                ModelParams(n_emitters, g, 0.0, 0.1, n_max=12)))
            levels = np.linalg.eigvalsh(h)
            first, second = scaling_energies(n_emitters, g)
            _assert_in_spectrum(levels, first)
            _assert_in_spectrum(levels, second)
            if n_emitters == 1:
                _assert_in_spectrum(levels, jc_ladder(4, g))
            if n_emitters == 2:
                for sector in range(5):
                    _assert_in_spectrum(levels, tc_energies_n2(sector, g))


def test_random_thermal_configurations_satisfy_detailed_balance():
    rng = np.random.default_rng(20260823)
    for _ in range(20):
        n_emitters = int(rng.integers(1, 4))
        g = float(rng.uniform(0.05, 0.6))
        g_prime = (0.0, g, float(rng.uniform(0.0, g)))[int(rng.integers(3))]
        temperature = float(rng.uniform(0.05, 0.4))
        system = solve_system(
            ModelParams(n_emitters, g, g_prime, temperature, n_max=8))

        energies = system.eig.energies
        boltz = np.exp(-(energies - energies.min()) / temperature)
        boltz /= boltz.sum()
        assert np.abs(system.rates.generator @ boltz).max() < 1e-9

        gain = system.rates.generator.copy()
        np.fill_diagonal(gain, 0.0)  # population rates k -> n
        flow = gain * boltz[None, :]
        scale = np.maximum(flow, flow.T)
        # selection-rule zeros survive only as eigensolver noise far below
        # any physical flow; relative balance is checked above that floor
        mask = scale > 1e-20 * scale.max()
        assert np.all(np.abs(flow - flow.T)[mask] <= 1e-9 * scale[mask])


def test_spectrum_integral_recovers_stationary_emission():
    for limit in ("dicke", "tc"):
        for g, temperature in STRONG_POINTS:
            point = _reference_point(limit, g, temperature, 100)
            assert point["integral"] == pytest.approx(point["total"],
                                                      rel=5e-3)


def test_peak_structure_at_reference_points():
    def mean_frequency(point):
        return ((point["centers"] * point["weights"]).sum()
                / point["weights"].sum())

    single = _reference_point("dicke", 0.5, 0.07, 100)
    assert single["weights"].max() / single["weights"].sum() > 0.95

    several = _reference_point("dicke", 0.7, 0.23, 100)
    shares = several["weights"] / several["weights"].sum()
    assert (shares > 0.05).sum() >= 2

    shifted = _reference_point("tc", 0.7, 0.23, 100)
    assert mean_frequency(shifted) < mean_frequency(several)


def test_counterrotating_terms_suppress_ultrastrong_emission():
    dicke = _reference_point("dicke", 0.8, 0.1, 100)
    tc = _reference_point("tc", 0.8, 0.1, 100)
    assert 10.0 * dicke["total"] <= tc["total"]


def test_vanishing_coupling_gives_thermal_statistics():
    for n_emitters in (1, 2):
        for temperature in (0.1, 0.3):
            for limit in ("dicke", "tc"):
                value = _point_g2(n_emitters, limit, 1e-3, temperature, 40)
                assert value == pytest.approx(2.0, abs=1e-3)


def test_antibunching_pocket_sits_beside_the_bunching_band():
    values = _chart(1, "dicke", 100)
    sub = values < 1.0
    strong = values > 2.0
    assert sub.any() and strong.any()
    # antibunching happens only at low temperature
    assert np.all(CHART_T[np.where(sub)[1]] <= 0.15)
    # the bunching band needs strong coupling and spans many temperatures
    assert np.all(CHART_G[np.where(strong)[0]] >= 0.35)
    assert len(set(np.where(strong)[1])) >= 3
    # triangular flank: the pocket widens in T as the coupling grows
    assert np.all(np.diff(sub.sum(axis=1)) >= 0)
    # rows holding both classes pass from sub to super as T rises
    rows = [i for i in range(CHART_G.size) if sub[i].any() and strong[i].any()]
    assert rows
    for i in rows:
        assert np.where(sub[i])[0].max() < np.where(strong[i])[0].min()


def test_bare_operator_equation_never_shows_nonclassical_light():
    for n_emitters in (1, 2):
        for g in (0.1, 0.5, 0.8):
            for temperature in (0.05, 0.3):
                value = qo_g2_zero(
                    ModelParams(n_emitters, g, 0.0, temperature, n_max=15))
                assert value == pytest.approx(2.0, abs=1e-6)
    for n_emitters in (1, 2):
        for g in CHART_G:
            for temperature in CHART_T:
                value = qo_g2_zero(
                    ModelParams(n_emitters, float(g), float(g),
                                float(temperature), n_max=15))
                assert value >= 1.0 - 1e-3


def test_delayed_correlation_relaxes_to_one_with_matching_slope():
    window = np.linspace(0.0, 10.0 / GAMMA, 400)
    for limit in ("dicke", "tc"):
        for g, temperature in STRONG_POINTS:
            system = solve_system(
                ModelParams(2, g, _g_prime(limit, g), temperature, n_max=60))
            zero = float(system.g2_zero())

            # horizon adapted to the slowest relaxation mode
            gap = system.g2_time(np.array([0.0])).relaxation_gap
            t_end = max(50.0 / GAMMA, 30.0 / gap)
            final = float(system.g2_time(np.array([0.0, t_end])).values[-1])
            assert final == pytest.approx(1.0, abs=1e-3)

            curve = system.g2_time(window).values
            steps = np.diff(curve)
            assert np.sign(steps[0]) == np.sign(1.0 - zero)
            if zero < 1.0:
                assert steps.min() > -1e-9
            elif zero > 2.0:
                assert steps.max() < 1e-9
            else:
                # small oscillations allowed here, but still a net decay
                assert abs(curve[-1] - 1.0) < abs(zero - 1.0)


def test_refined_closed_form_tracks_numerics_within_twenty_percent():
    for g in np.linspace(0.05, 0.4, 6):
        for temperature in np.linspace(0.02, 0.3, 6):
            numeric = _point_g2(1, "tc", float(g), float(temperature), 40)
            closed = float(tc_g2_approximation(float(g), float(temperature),
                                               refined=True))
            assert abs(closed - numeric) <= 0.2 * numeric


def test_single_emitter_rescaling_reproduces_statistics_classes():
    def category(value):
        if value < 1.0:
            return "sub"
        if value > 2.0:
            return "super"
        return "middle"

    g_axis = np.linspace(0.05, 0.35, 8)
    for limit, factor in (("tc", np.sqrt(2.0)), ("dicke", 2.0)):
        matches = 0
        for g in g_axis:
            for temperature in CHART_T:
                two = _point_g2(2, limit, float(g), float(temperature), 30)
                one = _point_g2(1, limit, float(factor * g),
                                float(temperature), 30)
                matches += category(two) == category(one)
        assert matches >= 0.8 * g_axis.size * CHART_T.size


def test_outputs_stable_under_cutoff_increase():
    for limit in ("dicke", "tc"):
        for g, temperature in STRONG_POINTS:
            low = _reference_point(limit, g, temperature, 100)
            high = _reference_point(limit, g, temperature, 120)
            assert abs(high["g2"] - low["g2"]) < 1e-6
            keep = low["weights"] > 1e-3 * low["weights"].sum()
            for center, weight in zip(low["centers"][keep],
                                      low["weights"][keep]):
                j = int(np.argmin(np.abs(high["centers"] - center)))
                other = high["weights"][j]
                assert abs(other - weight) <= 1e-4 * max(weight, other)
    assert np.abs(_chart(1, "dicke", 120) - _chart(1, "dicke", 100)).max() \
        < 1e-6
