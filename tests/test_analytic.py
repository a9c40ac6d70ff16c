"""Closed-form ladders, scaling rules, and the approximate g2(0)."""

import numpy as np
import pytest

from dressedlight import (
    ModelParams,
    build_hamiltonian,
    build_operators,
    jc_energies,
    jc_ladder,
    scaling_energies,
    scaling_map,
    solve_system,
    tc_energies_n2,
    tc_g2_approximation,
)


def _contains(spectrum, values, tol=1e-10):
    """Every requested value appears in the computed spectrum."""
    spectrum = np.asarray(spectrum)
    for v in np.atleast_1d(values):
        assert np.min(np.abs(spectrum - v)) < tol, v


def test_jc_energies_against_block_matrix():
    for n in (1, 2, 5):
        for g in (0.1, 0.3):
            block = np.array([[n * 1.0, g * np.sqrt(n)],
                              [g * np.sqrt(n), n * 1.0]])
            low, high = np.linalg.eigvalsh(block)
            minus, plus = jc_energies(n, g)
            assert minus == pytest.approx(low, abs=1e-14)
            assert plus == pytest.approx(high, abs=1e-14)
    assert jc_energies(1, 0.2) == pytest.approx((0.8, 1.2))
    assert jc_energies(3, 0.0) == pytest.approx((3.0, 3.0))


def test_jc_ladder_composition():
    g = 0.27
    ladder = jc_ladder(3, g)
    expect = sorted([0.0] + [n + s * np.sqrt(n) * g
                             for n in (1, 2, 3) for s in (-1, 1)])
    np.testing.assert_allclose(ladder, expect, atol=1e-14)


def test_jc_matches_full_diagonalization():
    g = 0.34
    system = solve_system(ModelParams(1, g, 0.0, 0.1, n_max=12))
    for n in (1, 2, 3, 4):
        _contains(system.eig.energies, jc_energies(n, g))


def test_tc_n2_sectors():
    g = 0.3
    np.testing.assert_allclose(tc_energies_n2(1, g),
                               [1 - np.sqrt(2) * g, 1.0, 1 + np.sqrt(2) * g],
                               atol=1e-14)
    np.testing.assert_allclose(
        tc_energies_n2(2, g),
        [2 - np.sqrt(6) * g, 2.0, 2.0, 2 + np.sqrt(6) * g], atol=1e-14)
    # generic n: splitting sqrt(2) sqrt(2n-1) g, double root at n
    n = 4
    vals = tc_energies_n2(n, g)
    split = np.sqrt(2.0) * np.sqrt(2 * n - 1.0) * g
    np.testing.assert_allclose(vals, [n - split, n, n, n + split], atol=1e-14)


def test_tc_n2_matches_full_diagonalization():
    g = 0.25
    h = build_hamiltonian(
        build_operators(ModelParams(2, g, 0.0, 0.1, n_max=10)))
    energies = np.linalg.eigvalsh(h)
    for n in (1, 2, 3):
        _contains(energies, tc_energies_n2(n, g))
        if n >= 2:
            # the double root really is doubly degenerate
            hits = np.sum(np.abs(energies - n) < 1e-10)
            assert hits >= 2


def test_scaling_energies_forms():
    first, second = scaling_energies(1, 0.25)
    np.testing.assert_allclose(first, [0.75, 1.25], atol=1e-14)
    np.testing.assert_allclose(second, jc_energies(2, 0.25), atol=1e-14)
    # N = 2 must agree with the dedicated two-emitter ladder.
    first, second = scaling_energies(2, 0.3)
    np.testing.assert_allclose(second, np.unique(tc_energies_n2(2, 0.3)),
                               atol=1e-14)
    first, second = scaling_energies(3, 0.2)
    np.testing.assert_allclose(first, [1 - np.sqrt(3) * 0.2,
                                       1 + np.sqrt(3) * 0.2], atol=1e-14)
    # Tridiagonal symmetric block with couplings sqrt(6) g and sqrt(4) g.
    np.testing.assert_allclose(second,
                               [2 - np.sqrt(10) * 0.2, 2.0,
                                2 + np.sqrt(10) * 0.2], atol=1e-14)


def test_scaling_energies_match_full_diagonalization():
    for n_emitters in (1, 2, 3):
        g = 0.3
        h = build_hamiltonian(build_operators(
            ModelParams(n_emitters, g, 0.0, 0.1, n_max=8)))
        energies = np.linalg.eigvalsh(h)
        first, second = scaling_energies(n_emitters, g)
        _contains(energies, first)
        _contains(energies, second)


def test_scaling_map():
    assert scaling_map(1, 0.3, "tc") == pytest.approx(0.3)
    assert scaling_map(1, 0.3, "dicke") == pytest.approx(0.3)
    assert scaling_map(2, 0.3, "tc") == pytest.approx(0.3 * np.sqrt(2))
    assert scaling_map(2, 0.3, "dicke") == pytest.approx(0.6)
    assert scaling_map(3, 0.2, "dicke") == pytest.approx(0.6)
    with pytest.raises(ValueError):
        scaling_map(2, 0.3, "rwa")


def test_approximation_metadata():
    basic = tc_g2_approximation(0.3, 0.1)
    refined = tc_g2_approximation(0.3, 0.1, refined=True)
    assert basic.crossing_g == pytest.approx(1.0 / (1.0 + np.sqrt(2.0)))
    assert refined.trusted
    assert not tc_g2_approximation(0.45, 0.1, refined=True).trusted
    assert float(refined) == refined.value
    with pytest.raises(ValueError):
        tc_g2_approximation(0.3, 0.0)


def test_refined_value_frozen():
    # regression pin for the assembled transition-sequence formula
    value = tc_g2_approximation(0.3, 0.1, refined=True).value
    assert value == pytest.approx(0.9376858109329984, abs=1e-12)


def test_basic_value_frozen():
    # regression pin for the basic estimate, the lower-doublet sequences
    assert tc_g2_approximation(0.3, 0.1).value == pytest.approx(
        0.9525834844827454, abs=1e-12)
    assert tc_g2_approximation(0.2, 0.05).value == pytest.approx(
        0.48229593941897697, abs=1e-12)


def test_basic_variant_near_numeric_at_validated_point():
    numeric = solve_system(ModelParams(1, 0.3, 0.0, 0.05, n_max=40)).g2_zero()
    basic = float(tc_g2_approximation(0.3, 0.05))
    assert abs(basic - numeric) / numeric < 0.2


def test_refined_beats_basic_on_validated_region():
    for g in (0.1, 0.2, 0.3):
        for temperature in (0.05, 0.15, 0.3):
            numeric = solve_system(
                ModelParams(1, g, 0.0, temperature, n_max=40)).g2_zero()
            basic = float(tc_g2_approximation(g, temperature))
            refined = float(tc_g2_approximation(g, temperature, refined=True))
            err_basic = abs(basic - numeric)
            err_refined = abs(refined - numeric)
            assert err_refined <= err_basic + 1e-12
            assert err_refined / numeric < 0.2


def test_deep_cold_limit_vanishes():
    # exponential ratio e^{-beta(2-sqrt(2))g} drives the estimate to zero
    assert float(tc_g2_approximation(0.3, 0.005)) < 1e-10


def test_deep_cold_matches_exponential_scaling():
    g = 0.3
    ratio = (float(tc_g2_approximation(g, 0.010))
             / float(tc_g2_approximation(g, 0.011)))
    beta_diff = 1.0 / 0.010 - 1.0 / 0.011
    expect = np.exp(-(2.0 - np.sqrt(2.0)) * g * beta_diff)
    assert ratio == pytest.approx(expect, rel=0.05)
