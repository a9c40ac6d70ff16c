"""Bare-operator master equation: stationary state and photon statistics.

The thermal-ladder oracle is rebuilt in the tests from bit counts and Fock
indices, independent of the operator machinery under test.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dressedlight import (
    ModelParams,
    build_hamiltonian,
    qo_g2_zero,
    qo_liouvillian,
    qo_stationary_state,
    qoptical,
)
from dressedlight.qoptical import (
    DegenerateSteadyStateError,
    _solve_with_trace_row,
    _trace_block,
)


def trace_distance(rho, sigma):
    """Half the trace norm of the difference."""
    diff = rho - sigma
    vals = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.abs(vals).sum())


def qo_convergence_estimate(params, n_max):
    """Trace distance between stationary states at n_max and 2 n_max."""
    low = qo_stationary_state(params, n_max)
    high = qo_stationary_state(params, 2 * n_max)
    n_low = low.params.n_max
    n_high = high.params.n_max
    # Embed the small-cutoff state: flat index (e, n) -> e (n_max+1) + n.
    n_conf = 2**params.n_emitters
    idx = (
        np.arange(n_conf)[:, None] * (n_high + 1) + np.arange(n_low + 1)[None, :]
    ).ravel()
    padded = np.zeros_like(high.rho)
    padded[np.ix_(idx, idx)] = low.rho
    return trace_distance(padded, high.rho)


def _thermal_ladder(n_emitters, n_max, temperature, omega0=1.0):
    """diag of exp(-beta w0 N_t)/Z in the configuration x Fock basis."""
    diag = []
    for e in range(2 ** n_emitters):
        excited = bin(e).count("1")
        for n in range(n_max + 1):
            diag.append(np.exp(-omega0 * (n + excited) / temperature))
    diag = np.array(diag)
    return np.diag(diag / diag.sum())


def test_tc_stationary_matches_thermal_ladder():
    for n_emitters in (1, 2):
        p = ModelParams(n_emitters, 0.4, 0.0, 0.2)
        state = qo_stationary_state(p, n_max=8)
        oracle = _thermal_ladder(n_emitters, 8, 0.2)
        assert trace_distance(state.rho, oracle) < 1e-6


def test_tc_stationary_independent_of_coupling():
    # without counter-rotating terms the bare-operator equation relaxes to
    # the same thermal ladder at every coupling strength
    weak = qo_stationary_state(ModelParams(1, 0.05, 0.0, 0.15), n_max=8)
    strong = qo_stationary_state(ModelParams(1, 0.7, 0.0, 0.15), n_max=8)
    none = qo_stationary_state(ModelParams(1, 0.0, 0.0, 0.15), n_max=8)
    assert trace_distance(weak.rho, strong.rho) < 1e-9
    assert trace_distance(weak.rho, none.rho) < 1e-9


def test_dicke_stationary_differs_from_dressed_thermal():
    p = ModelParams(1, 0.5, 0.5, 0.1, n_max=10)
    state = qo_stationary_state(p, n_max=10)
    h = build_hamiltonian(p)
    energies, vectors = np.linalg.eigh(h)
    boltz = np.exp(-(energies - energies[0]) / p.temperature)
    rho_dressed = (vectors * (boltz / boltz.sum())[None, :]) @ vectors.conj().T
    assert trace_distance(state.rho, rho_dressed) > 1e-3


def _propagate_dense(params, rho0, t, n_max):
    """Reference evolution: dense expm of the vectorized generator."""
    liouv, ops = qo_liouvillian(params, n_max)
    vec = scipy.linalg.expm(liouv.toarray() * t) @ rho0.reshape(-1, order="F")
    return vec.reshape((ops.dim, ops.dim), order="F")


def test_time_evolution_reaches_nullspace_solution():
    p = ModelParams(1, 0.3, 0.3, 0.2)
    state = qo_stationary_state(p, n_max=6)
    dim = 2 * 7
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    evolved = _propagate_dense(p, rho0, 50.0 / p.gamma, n_max=6)
    assert trace_distance(evolved, state.rho) < 1e-6
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)


def test_liouvillian_preserves_trace():
    p = ModelParams(2, 0.4, 0.4, 0.15)
    liouv, ops = qo_liouvillian(p, n_max=5)
    dim = ops.dim
    trace_functional = np.zeros(dim * dim)
    trace_functional[np.arange(dim) * dim + np.arange(dim)] = 1.0
    assert np.abs(trace_functional @ liouv).max() < 1e-10


def test_stationary_state_wellformed():
    p = ModelParams(2, 0.6, 0.6, 0.1)
    state = qo_stationary_state(p, n_max=6)
    np.testing.assert_allclose(state.rho, state.rho.conj().T, atol=1e-12)
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
    assert state.min_eigenvalue >= -1e-8
    assert state.residual < 1e-10
    with pytest.raises(ValueError):
        qo_stationary_state(ModelParams(1, 0.3, 0.3, 0.0))


def test_g2_exactly_thermal_without_counter_rotation():
    for n_emitters in (1, 2):
        for g in (0.1, 0.8):
            for temperature in (0.05, 0.3):
                p = ModelParams(n_emitters, g, 0.0, temperature)
                value = qo_g2_zero(p, n_max=10)
                assert value == pytest.approx(2.0, abs=1e-6)
    assert qo_g2_zero(ModelParams(1, 0.0, 0.0, 0.2), n_max=10) == \
        pytest.approx(2.0, abs=1e-6)


def test_g2_never_subpoissonian_with_counter_rotation():
    # the bare-operator equation misses the antibunching entirely
    for g, temperature in ((0.2, 0.05), (0.5, 0.07), (0.8, 0.1)):
        p = ModelParams(1, g, g, temperature)
        assert qo_g2_zero(p, n_max=12) >= 1.0 - 1e-3


def test_dressed_variant_is_distinct_and_labeled():
    p = ModelParams(1, 0.5, 0.5, 0.1)
    state = qo_stationary_state(p, n_max=10)
    bare = qo_g2_zero(p, n_max=10, stationary=state)
    dressed = qo_g2_zero(p, n_max=10, dressed=True, stationary=state)
    assert bare == pytest.approx(qo_g2_zero(p, n_max=10), rel=1e-12)
    assert abs(dressed - bare) > 0.1


def test_cutoff_convergence_estimate():
    # doubling the cutoff barely moves the state at moderate temperature
    p = ModelParams(1, 0.4, 0.4, 0.15)
    assert qo_convergence_estimate(p, 7) < 1e-4


def test_singular_pinned_system_is_a_degenerate_steady_state():
    # no dissipation: every diagonal state of H = diag(0, 1) is stationary,
    # so the trace-pinned system is exactly singular
    h = sp.csr_matrix(np.diag([0.0, 1.0]))
    eye = sp.identity(2, format="csr")
    liouv = (-1j * (sp.kron(eye, h) - sp.kron(h.T, eye))).tocsr()
    with pytest.raises(DegenerateSteadyStateError):
        _solve_with_trace_row(liouv, 2, 0)


def test_pinned_solves_that_disagree_are_a_degenerate_steady_state(monkeypatch):
    # a generator with a two-fold stationary manifold whose pinned-row
    # systems are singular only up to round-off, so SuperLU factors them;
    # only the second pinned solve reveals the degeneracy
    rng = np.random.default_rng(16)
    v = rng.standard_normal((4, 4))
    liouv = sp.csr_matrix(
        (v @ np.diag([0.0, 0.0, -1.0, -2.0]) @ np.linalg.inv(v)).astype(complex))
    fake = (liouv, SimpleNamespace(dim=2))
    monkeypatch.setattr(qoptical, "qo_liouvillian", lambda *args, **kw: fake)
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        qo_stationary_state(ModelParams(1, 0.3, 0.0, 0.1), n_max=4)


def _full_space_stationary(params, n_max):
    """Reference: the trace row in place of equation 0 on all dim^2 unknowns.

    One LU of the whole pinned generator and two refinement sweeps, then
    the same hermitization and normalization as qo_stationary_state.
    """
    liouv, ops = qo_liouvillian(params, n_max)
    dim = ops.dim
    a = liouv.tolil(copy=True)
    a[0, :] = 0.0
    for k in range(dim):
        a[0, k * dim + k] = 1.0
    a = a.tocsc()
    b = np.zeros(dim * dim, dtype=complex)
    b[0] = 1.0
    lu = spla.splu(a)
    x = lu.solve(b)
    for _ in range(2):
        x = x + lu.solve(b - a @ x)
    rho = x.reshape((dim, dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


@pytest.mark.parametrize("params, n_max", [
    (ModelParams(1, 0.5, 0.5, 0.1), 15),
    (ModelParams(2, 0.4, 0.4, 0.08), 15),
    (ModelParams(1, 0.5, 0.0, 0.1), 15),
    (ModelParams(2, 0.4, 0.0, 0.08), 15),
    (ModelParams(2, 0.3, 0.3, 0.12, omega_c=1.1, omega_x=0.95), 12),
])
def test_trace_block_solve_matches_full_space_solve(params, n_max):
    state = qo_stationary_state(params, n_max)
    reference = _full_space_stationary(params, n_max)
    assert np.max(np.abs(state.rho - reference)) <= \
        1e-12 * np.max(np.abs(reference))
    liouv, ops = qo_liouvillian(params, n_max)
    dropped = np.setdiff1d(np.arange(ops.dim**2), _trace_block(liouv, ops.dim))
    assert dropped.size > 0
    assert np.all(state.rho.reshape(-1, order="F")[dropped] == 0.0)


@pytest.mark.parametrize("n_emitters, g_prime, size", [
    (1, 0.4, 512), (1, 0.0, 62), (2, 0.4, 2048), (2, 0.0, 244)])
def test_trace_block_sizes(n_emitters, g_prime, size):
    # dicke keeps the parity block, tc the equal-excitation block
    liouv, ops = qo_liouvillian(ModelParams(n_emitters, 0.4, g_prime, 0.1), 15)
    assert ops.dim**2 == (4096 if n_emitters == 2 else 1024)
    assert _trace_block(liouv, ops.dim).size == size


def _decay_liouvillian(dim, jumps):
    """Generator of unit-rate jumps |lo><hi|, no Hamiltonian."""
    eye = np.eye(dim)
    liouv = np.zeros((dim * dim, dim * dim), dtype=complex)
    for lo, hi in jumps:
        s = np.zeros((dim, dim))
        s[lo, hi] = 1.0
        sds = s.T @ s
        liouv += (np.kron(s, s) - 0.5 * np.kron(eye, sds)
                  - 0.5 * np.kron(sds.T, eye))
    return liouv


def test_decoupled_trace_blocks_are_a_degenerate_steady_state():
    # two decaying two-level blocks on four levels: each keeps its own
    # trace, so every mixture of their ground states is stationary
    liouv = sp.csr_matrix(_decay_liouvillian(4, [(0, 1), (2, 3)]))
    np.testing.assert_array_equal(_trace_block(liouv, 4), [0, 5, 10, 15])
    with pytest.raises(DegenerateSteadyStateError):
        _solve_with_trace_row(liouv, 4, 0)


def test_singular_second_pinned_system_is_a_degenerate_steady_state():
    # the trace in the first population equation gives a regular system,
    # the trace in the last one an exactly singular one: the 2x2 Woodbury
    # capacitance is singular
    liouv = sp.csr_matrix(np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex))
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        _solve_with_trace_row(liouv, 2, 0)


def test_non_finite_second_pinned_solve_is_a_degenerate_steady_state():
    # a NaN in the first population equation leaves the first pinned
    # system finite, since the trace replaces that equation, but makes
    # the second pinned solve NaN; NaN must not pass the agreement check
    liouv = _decay_liouvillian(2, [(0, 1)])
    assert np.all(np.isfinite(_solve_with_trace_row(sp.csr_matrix(liouv), 2, 0)))
    liouv[0, 0] = np.nan
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        _solve_with_trace_row(sp.csr_matrix(liouv), 2, 0)
