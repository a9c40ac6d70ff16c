"""Emission operator, Lorentzian spectrum, and Glauber correlations."""

import numpy as np
import pytest
from dense_ops import dense, dense_vectors, scatter

from dressedlight import (
    DarkStateError,
    ModelParams,
    SpectrumResult,
    build_operators,
    cluster_weights,
    emission_operator,
    solve_system,
    spectrum_sum_rule,
)
from dressedlight.dissipation import bath_lowering


def test_emission_operator_bare_cavity():
    # uncoupled cavity: the energy-decreasing part of X is the lowering
    # operator, so rotating back to the lab frame must give -X0 a (the
    # cavity frequency is the unit)
    p = ModelParams(1, 0.0, 0.0, 0.1, n_max=6, x0=1.4)
    system = solve_system(p)
    u = dense_vectors(system.eig)
    lab = u @ scatter(system.xdot) @ u.conj().T
    a = dense(build_operators(p).a, p.dim)
    np.testing.assert_allclose(lab, -p.x0 * a, atol=1e-12)


def test_emission_operator_structure():
    p = ModelParams(2, 0.45, 0.3, 0.1, n_max=4)
    system = solve_system(p)
    xdot = scatter(system.xdot)
    group = system.eig.group_index
    # only energy-decreasing elements survive; in-group elements excluded
    for m in range(p.dim):
        for n in range(p.dim):
            if group[m] >= group[n]:
                assert xdot[m, n] == 0.0
    # annihilates the ground state
    ground = np.zeros(p.dim)
    ground[0] = 1.0
    np.testing.assert_allclose(xdot @ ground, 0.0)
    # prefactor: element-wise ratio against the projected quadrature
    # the cavity quadrature X = -i A_X
    lower = dense(bath_lowering(build_operators(p))[0], p.dim)
    u = dense_vectors(system.eig)
    x_eig = u.conj().T @ (-1j * (lower - lower.T)) @ u
    e = system.eig.energies
    for m, n in zip(*np.nonzero(np.abs(xdot) > 1e-12)):
        expect = -1j * (e[n] - e[m]) * x_eig[m, n]
        assert xdot[m, n] == pytest.approx(expect, rel=1e-12)


def test_emission_operator_uses_energy_groups():
    # a degenerate pair contributes no internal transition even when X
    # connects its members
    p = ModelParams(2, 0.3, 0.0, 0.1, n_max=4)
    system = solve_system(p)
    eig = system.eig
    members = [np.flatnonzero(eig.group_index == a)
               for a in range(eig.group_energy.size)]
    members = [m for m in members if len(m) > 1]
    assert members
    xdot = scatter(system.xdot)
    for block in members:
        for a in block:
            for b in block:
                assert xdot[a, b] == 0.0


def test_spectrum_peaks_positive_and_curve_nonnegative():
    p = ModelParams(2, 0.7, 0.7, 0.23, n_max=30)
    system = solve_system(p)
    omega = np.linspace(0.0, 3.0, 600)
    spec = system.spectrum(omega)
    assert np.all(spec.centers > 0)
    assert np.all(spec.half_widths > 0)
    assert np.all(spec.weights >= 0)
    assert np.all(spec.values >= 0)
    # curve is the advertised Lorentzian sum under the Ohmic envelope
    envelope = p.gamma * omega / np.pi
    lorentz = (spec.weights[:, None] * spec.half_widths[:, None]
               / ((omega[None, :] - spec.centers[:, None]) ** 2
                  + spec.half_widths[:, None] ** 2)).sum(axis=0)
    np.testing.assert_allclose(spec.values, envelope * lorentz, rtol=1e-10)


def test_spectrum_sum_rule_and_integrated_emission():
    for gp in (0.0, 0.5):
        p = ModelParams(2, 0.5, gp, 0.07, n_max=40)
        system = solve_system(p)
        spec = system.spectrum(np.linspace(0.0, 3.0, 200))
        total = system.integrated_emission()
        assert total > 0
        assert spectrum_sum_rule(spec) == pytest.approx(total, rel=5e-3)
        # independent accounting: weights are exactly the per-peak shares
        assert spec.weights.sum() == pytest.approx(total, rel=1e-9)


def test_cluster_weights_sum_is_cutoff_stable():
    # many transition pairs share frequencies without counter-rotating
    # terms; per-pair weights depend on the eigenvector gauge and move
    # with the cutoff, while the per-center sums must not
    def clustered(n_max):
        system = solve_system(ModelParams(2, 0.7, 0.0, 0.23, n_max=n_max))
        spec = system.spectrum(np.array([1.0]))
        assert system.collision_count > 0
        centers, weights = cluster_weights(spec)
        assert centers.size < spec.centers.size
        assert np.all(np.diff(centers) > 1e-8)
        assert weights.sum() == pytest.approx(spec.weights.sum(), rel=1e-12)
        return centers, weights

    c_low, w_low = clustered(20)
    c_high, w_high = clustered(24)
    for c, w in zip(c_low, w_low):
        if w < 1e-6 * w_low.sum():
            continue
        j = int(np.argmin(np.abs(c_high - c)))
        assert abs(w_high[j] - w) <= 1e-6 * max(w, w_high[j])


def test_integrated_emission_matches_direct_sum():
    p = ModelParams(1, 0.4, 0.4, 0.15, n_max=6)
    system = solve_system(p)
    xdot = scatter(system.xdot)
    stat = system.stationary.populations
    direct = float(np.sum(np.abs(xdot) ** 2 * stat[None, :]))
    assert system.integrated_emission() == pytest.approx(direct, rel=1e-12)


def test_ultrastrong_emission_suppressed_with_counter_rotation():
    tc = solve_system(ModelParams(2, 0.8, 0.0, 0.1, n_max=40))
    dicke = solve_system(ModelParams(2, 0.8, 0.8, 0.1, n_max=40))
    assert dicke.integrated_emission() * 10 < tc.integrated_emission()


def test_moderate_coupling_limits_agree():
    tc = solve_system(ModelParams(2, 0.2, 0.0, 0.2, n_max=40))
    dicke = solve_system(ModelParams(2, 0.2, 0.2, 0.2, n_max=40))
    a, b = tc.integrated_emission(), dicke.integrated_emission()
    assert abs(a - b) / max(a, b) < 0.2


def test_g2_zero_thermal_baseline():
    for T in (0.1, 0.3):
        system = solve_system(ModelParams(1, 1e-3, 1e-3, T, n_max=40))
        assert system.g2_zero() == pytest.approx(2.0, abs=1e-3)


def test_g2_zero_matches_direct_sum():
    p = ModelParams(1, 0.35, 0.0, 0.12, n_max=8)
    system = solve_system(p)
    xdot = scatter(system.xdot)
    stat = system.stationary.populations
    num = 0.0
    den = 0.0
    for n in range(p.dim):
        col = np.zeros(p.dim)
        col[n] = 1.0
        one = xdot @ col
        two = xdot @ one
        num += stat[n] * np.vdot(two, two).real
        den += stat[n] * np.vdot(one, one).real
    assert system.g2_zero() == pytest.approx(num / den ** 2, rel=1e-12)


def test_g2_zero_x0_invariant():
    base = None
    for x0 in (0.5, 1.0, 2.0):
        system = solve_system(ModelParams(1, 0.45, 0.45, 0.15, n_max=20,
                                          x0=x0))
        value = system.g2_zero()
        if base is None:
            base = value
        else:
            assert value == pytest.approx(base, rel=1e-12)


def test_g2_zero_tc_scaling_between_emitter_numbers():
    # collective-coupling rule: two emitters at g behave like one at g*sqrt(2).
    # Pointwise agreement holds at weak coupling; at larger g the second
    # excitation sector breaks it (2 +- sqrt(6) g versus 2 +- 2g mapped) and
    # only the sub/super classification survives, which the chart-level
    # tests cover.
    two = solve_system(ModelParams(2, 0.1, 0.0, 0.1, n_max=30))
    one = solve_system(ModelParams(1, 0.1 * np.sqrt(2.0), 0.0, 0.1, n_max=30))
    a, b = two.g2_zero(), one.g2_zero()
    assert abs(a - b) / b < 0.2


def test_dark_state_error_at_zero_temperature():
    with pytest.raises(DarkStateError):
        solve_system(ModelParams(1, 0.3, 0.0, 0.0, n_max=6)).g2_zero()


def test_g2_time_consistency_and_late_limit():
    p = ModelParams(2, 0.5, 0.0, 0.07, n_max=20)
    system = solve_system(p)
    times = np.linspace(0.0, 50.0 / p.gamma, 200)
    result = system.g2_time(times)
    assert result.values[0] == pytest.approx(result.zero_value, abs=1e-10)
    assert result.zero_value == pytest.approx(system.g2_zero(), rel=1e-12)
    assert result.values[-1] == pytest.approx(1.0, abs=1e-3)
    # sub-Poissonian here: the curve rises monotonically on [0, 10/gamma]
    assert result.zero_value < 1.0
    window = result.values[times <= 10.0 / p.gamma]
    assert np.all(np.diff(window) >= -1e-12)


def test_g2_time_initial_slope_sign():
    # antibunched point rises, bunched point falls
    sub = solve_system(ModelParams(2, 0.5, 0.5, 0.07, n_max=20))
    super_ = solve_system(ModelParams(2, 0.8, 0.8, 0.1, n_max=20))
    short = np.linspace(0.0, 2.0, 40)
    rising = sub.g2_time(short)
    falling = super_.g2_time(short)
    assert rising.zero_value < 1.0
    assert rising.values[5] > rising.values[0]
    assert falling.zero_value > 1.0
    assert falling.values[5] < falling.values[0]


def test_spectrum_weight_floor_drops_tiny_peaks():
    p = ModelParams(1, 0.3, 0.3, 0.1, n_max=20)
    system = solve_system(p)
    spec = system.spectrum(np.linspace(0.0, 3.0, 50))
    # every nonzero |<m|Xdot|n>|^2 p_n is a candidate peak
    candidates = (np.abs(scatter(system.xdot)) ** 2
                  * system.stationary.populations)
    total = candidates[candidates != 0].sum()
    dropped = np.count_nonzero(candidates) - spec.weights.size
    assert dropped > 0
    assert spec.weights.min() >= 1e-12 * total
    # the dropped weight is bounded by the floor times the dropped count
    assert abs(system.integrated_emission() - spec.weights.sum()) \
        <= 1e-12 * total * dropped


def test_cluster_weights_merges_close_centers():
    # gaps below PEAK_CLUSTER_TOL = 1e-8 merge and gaps of 2e-8 split; a
    # chain of 5e-9 gaps is one cluster although it spans 1.5e-8
    centers = 1.0 + np.array([0.0, 5e-9, 1e-8, 1.5e-8, 3.5e-8, 1.0])
    weights = np.array([0.25, 0.5, 0.125, 0.0625, 1.0, 2.0])
    spec = SpectrumResult(centers=centers, half_widths=np.ones(6),
                          weights=weights, values=np.array([]))
    merged_c, merged_w = cluster_weights(spec)
    assert merged_c.tolist() == [np.mean(centers[:4]), centers[4], 2.0]
    assert merged_w.tolist() == [0.9375, 1.0, 2.0]
    assert merged_w.sum() == weights.sum()
