"""Bare-operator master equation: stationary state and photon statistics.

The thermal-ladder oracle is rebuilt in the tests from bit counts and Fock
indices, independent of the operator machinery under test.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dense_ops import dense

from dressedlight import (
    Bath,
    DarkStateError,
    ModelParams,
    bath_lowering,
    build_hamiltonian,
    build_operators,
    qo_g2_zero,
    qo_liouvillian,
    qo_stationary_state,
    qoptical,
    thermal_rate,
)
from dressedlight.qoptical import (
    MAX_QO_DIM,
    DegenerateSteadyStateError,
    _solve_with_trace_row,
    _trace_block,
)


def trace_distance(rho, sigma):
    """Half the trace norm of the difference."""
    diff = rho - sigma
    vals = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return 0.5 * float(np.abs(vals).sum())


def qo_convergence_estimate(params):
    """Trace distance between stationary states at params.n_max and twice it."""
    n_low = params.n_max
    n_high = 2 * n_low
    low = qo_stationary_state(params)
    high = qo_stationary_state(replace(params, n_max=n_high))
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
        p = ModelParams(n_emitters, 0.4, 0.0, 0.2, n_max=8)
        state = qo_stationary_state(p)
        oracle = _thermal_ladder(n_emitters, 8, 0.2)
        assert trace_distance(state.rho, oracle) < 1e-6


def test_tc_stationary_independent_of_coupling():
    # without counter-rotating terms the bare-operator equation relaxes to
    # the same thermal ladder at every coupling strength
    weak = qo_stationary_state(ModelParams(1, 0.05, 0.0, 0.15, n_max=8))
    strong = qo_stationary_state(ModelParams(1, 0.7, 0.0, 0.15, n_max=8))
    none = qo_stationary_state(ModelParams(1, 0.0, 0.0, 0.15, n_max=8))
    assert trace_distance(weak.rho, strong.rho) < 1e-9
    assert trace_distance(weak.rho, none.rho) < 1e-9


def test_dicke_stationary_differs_from_dressed_thermal():
    p = ModelParams(1, 0.5, 0.5, 0.1, n_max=10)
    state = qo_stationary_state(p)
    h = build_hamiltonian(p)
    energies, vectors = np.linalg.eigh(h)
    boltz = np.exp(-(energies - energies[0]) / p.temperature)
    rho_dressed = (vectors * (boltz / boltz.sum())[None, :]) @ vectors.conj().T
    assert trace_distance(state.rho, rho_dressed) > 1e-3


def _propagate_dense(params, rho0, t):
    """Reference evolution: dense expm of the vectorized generator."""
    liouv = qo_liouvillian(params)
    vec = scipy.linalg.expm(liouv.toarray() * t) @ rho0.reshape(-1, order="F")
    return vec.reshape((params.dim, params.dim), order="F")


def test_time_evolution_reaches_nullspace_solution():
    p = ModelParams(1, 0.3, 0.3, 0.2, n_max=6)
    state = qo_stationary_state(p)
    dim = 2 * 7
    rho0 = np.zeros((dim, dim), dtype=complex)
    rho0[0, 0] = 1.0
    evolved = _propagate_dense(p, rho0, 50.0 / p.gamma)
    assert trace_distance(evolved, state.rho) < 1e-6
    assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)


def test_liouvillian_preserves_trace():
    p = ModelParams(2, 0.4, 0.4, 0.15, n_max=5)
    liouv = qo_liouvillian(p)
    dim = p.dim
    trace_functional = np.zeros(dim * dim)
    trace_functional[np.arange(dim) * dim + np.arange(dim)] = 1.0
    assert np.abs(trace_functional @ liouv).max() < 1e-10


def test_stationary_state_wellformed():
    p = ModelParams(2, 0.6, 0.6, 0.1, n_max=6)
    state = qo_stationary_state(p)
    np.testing.assert_allclose(state.rho, state.rho.conj().T, atol=1e-12)
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)
    assert state.min_eigenvalue >= -1e-8
    assert state.residual < 1e-10
    with pytest.raises(ValueError, match="temperature"):
        qo_stationary_state(ModelParams(1, 0.3, 0.3, 0.0, n_max=6))


def test_g2_exactly_thermal_without_counter_rotation():
    for n_emitters in (1, 2):
        for g in (0.1, 0.8):
            for temperature in (0.05, 0.3):
                p = ModelParams(n_emitters, g, 0.0, temperature, n_max=10)
                value = qo_g2_zero(p)
                assert value == pytest.approx(2.0, abs=1e-6)
    assert qo_g2_zero(ModelParams(1, 0.0, 0.0, 0.2, n_max=10)) == \
        pytest.approx(2.0, abs=1e-6)


def test_dark_stationary_state_raises_dark_state_error():
    # without counter-rotating terms the cold state is the photon vacuum:
    # <a+ a> = 9.5e-32 here, below DENOMINATOR_FLOOR, as on the dressed path
    with pytest.raises(DarkStateError, match="below floor"):
        qo_g2_zero(ModelParams(1, 0.3, 0.0, 0.014, n_max=6))


@pytest.mark.parametrize("solver", [qo_liouvillian, qo_stationary_state,
                                    qo_g2_zero])
def test_dimension_above_limit_raises(solver):
    # the solvers take the cutoff of the params they are given, never a
    # smaller one of their own
    p = ModelParams(1, 0.3, 0.3, 0.1, n_max=MAX_QO_DIM // 2)
    assert p.dim > MAX_QO_DIM
    with pytest.raises(ValueError, match="too large"):
        solver(p)


def test_g2_never_subpoissonian_with_counter_rotation():
    # the bare-operator equation misses the antibunching entirely
    for g, temperature in ((0.2, 0.05), (0.5, 0.07), (0.8, 0.1)):
        p = ModelParams(1, g, g, temperature, n_max=12)
        assert qo_g2_zero(p) >= 1.0 - 1e-3


def test_cutoff_convergence_estimate():
    # doubling the cutoff barely moves the state at moderate temperature
    p = ModelParams(1, 0.4, 0.4, 0.15, n_max=7)
    assert qo_convergence_estimate(p) < 1e-4


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
    monkeypatch.setattr(qoptical, "qo_liouvillian", lambda params: liouv)
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        qo_stationary_state(SimpleNamespace(temperature=0.1, dim=2))


def _full_space_stationary(params):
    """Reference: the trace row in place of equation 0 on all dim^2 unknowns.

    One LU of the whole pinned generator and two refinement sweeps, then
    the same hermitization and normalization as qo_stationary_state.
    """
    liouv = qo_liouvillian(params)
    dim = params.dim
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
    params = replace(params, n_max=n_max)
    state = qo_stationary_state(params)
    reference = _full_space_stationary(params)
    assert np.max(np.abs(state.rho - reference)) <= \
        1e-12 * np.max(np.abs(reference))
    liouv = qo_liouvillian(params)
    dim = params.dim
    dropped = np.setdiff1d(np.arange(dim**2), _trace_block(liouv, dim))
    assert dropped.size > 0
    assert np.all(state.rho.reshape(-1, order="F")[dropped] == 0.0)


@pytest.mark.parametrize("n_emitters, g_prime, size", [
    (1, 0.4, 512), (1, 0.0, 62), (2, 0.4, 2048), (2, 0.0, 244)])
def test_trace_block_sizes(n_emitters, g_prime, size):
    # dicke keeps the parity block, tc the equal-excitation block
    p = ModelParams(n_emitters, 0.4, g_prime, 0.1, n_max=15)
    liouv = qo_liouvillian(p)
    dim = p.dim
    assert dim**2 == (4096 if n_emitters == 2 else 1024)
    assert _trace_block(liouv, dim).size == size


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


@pytest.mark.parametrize("g_prime", [0.0, 0.35], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2])
def test_liouvillian_matches_dense_operator_assembly(n_emitters, g_prime):
    # the CSR operators built from the index maps are the ones a dense
    # operator gives, so the generator is identical element for element
    p = ModelParams(n_emitters, 0.35, g_prime, 0.2, n_max=5)
    liouv = qo_liouvillian(p)
    dim = p.dim
    h_s = sp.csr_matrix(build_hamiltonian(p))
    eye = sp.identity(dim, format="csr")
    ref = -1j * (sp.kron(eye, h_s) - sp.kron(h_s.T, eye))
    rate_down, rate_up = thermal_rate(
        np.array([p.omega0, -p.omega0]), p.temperature,
        Bath(p.gamma, p.omega0))
    for lower in bath_lowering(build_operators(p)):
        lower = sp.csr_matrix(dense(lower, dim))
        ref = ref + rate_down * qoptical._dissipator(lower)
        ref = ref + rate_up * qoptical._dissipator(lower.T)
    ref = ref.tocsr()
    for field in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(liouv, field),
                                      getattr(ref, field))
