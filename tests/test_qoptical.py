"""Bare-operator master equation: stationary state and photon statistics.

The thermal-ladder oracle is rebuilt in the tests from bit counts and Fock
indices, independent of the operator machinery under test.  The full
vectorized generator on all dim^2 unknowns and the orbit basis P are
built here as references: the solver's orbit-space generator must equal
P^T L P.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dense_ops import dense

from dressedlight import (
    DarkStateError,
    ModelParams,
    bath_lowering,
    build_hamiltonian,
    build_operators,
    model,
    qo_g2_zero,
    qo_liouvillian,
    qo_stationary_state,
    qoptical,
    thermal_rate,
)
from dressedlight.qoptical import (
    MAX_QO_UNKNOWNS,
    DegenerateSteadyStateError,
    _emitter_orbits,
    _solve_with_trace_row,
    _trace_block,
    qo_admits,
)


def _full_liouvillian(params):
    """Reference: the vectorized generator on all dim^2 unknowns (CSR).

    L = -i (I (x) H_eff - conj(H_eff) (x) I) + sum_j r_j S_j (x) S_j on
    the column-stacked rho, with H_eff = H - (i/2) sum_j r_j S_j^T S_j;
    the absorption jumps L^T enter only when chi(-1) > 0.
    """
    dim = params.dim
    rate_down, rate_up = thermal_rate(
        np.array([1.0, -1.0]), params.temperature, params.gamma)
    ops = build_operators(params)
    lowering = bath_lowering(ops)
    jumps = [(rate_down, s) for s in lowering]
    if rate_up > 0:
        jumps += [(rate_up, s._replace(src=s.dst, dst=s.src))
                  for s in lowering]
    loss = np.zeros(dim)
    for rate, s in jumps:
        loss[s.src] += rate * (s.amp * s.amp)
    h_eff = sp.csr_matrix(build_hamiltonian(ops) - 0.5j * np.diag(loss))
    eye = sp.identity(dim, format="csr")
    liouv = -1j * (sp.kron(eye, h_eff) - sp.kron(h_eff.conj(), eye))
    for rate, s in jumps:
        s = sp.csr_matrix((s.amp, (s.dst, s.src)), shape=(dim, dim))
        liouv = liouv + rate * sp.kron(s, s)
    return liouv.tocsr()


def _orbit_basis(params):
    """Reference orbit basis P (CSR), population orbits and trace weights.

    Column o of P is the indicator of orbit o of the column-stacked index
    r + c D of rho, divided by sqrt(|o|), with orbit label = emitter label
    (n_max+1)^2 + n_row (n_max+1) + n_col and the emitter label rank of
    the pair-count key (k10 (N+1) + k01) (N+1) + k11.  tr(P y) is the sum
    of weights * y over the returned population orbits.
    """
    n, half = params.n_emitters, params.n_max + 1
    conf = np.arange(2**n)
    excited = np.bitwise_count(conf).astype(int)
    both = np.bitwise_count(conf[:, None] & conf[None, :]).astype(int)
    key = ((excited[:, None] - both) * (n + 1)
           + excited[None, :] - both) * (n + 1) + both
    _, emitter, size = np.unique(key.ravel(), return_inverse=True,
                                 return_counts=True)
    fock = np.arange(half)
    label = (emitter.reshape(conf.size, 1, conf.size, 1) * half**2
             + fock[:, None, None] * half + fock)
    # axes (r_conf, n_row, c_conf, n_col) flatten to the index r + c D
    label = label.transpose(2, 3, 0, 1).ravel()
    basis = sp.csr_matrix(
        (1.0 / np.sqrt(size[label // half**2]),
         (np.arange(label.size), label)),
        shape=(label.size, size.size * half**2))
    populations = (np.arange(n + 1)[:, None] * half**2
                   + fock * (half + 1)).ravel()
    return basis, populations, np.repeat(np.sqrt(size[:n + 1]), half)


def _assert_same_generator(liouv, reference):
    """Same sparsity pattern, and values within 1e-14 of the largest."""
    reference = reference.tocsr()
    reference.sum_duplicates()
    reference.eliminate_zeros()
    for field in ("indices", "indptr"):
        np.testing.assert_array_equal(getattr(liouv, field),
                                      getattr(reference, field))
    assert abs(liouv - reference).max() <= 1e-14 * abs(reference).max()


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


def _thermal_ladder(n_emitters, n_max, temperature):
    """diag of exp(-beta N_t)/Z in the configuration x Fock basis."""
    diag = []
    for e in range(2 ** n_emitters):
        excited = bin(e).count("1")
        for n in range(n_max + 1):
            diag.append(np.exp(-(n + excited) / temperature))
    diag = np.array(diag)
    return np.diag(diag / diag.sum())


def test_tc_stationary_matches_thermal_ladder():
    for n_emitters in (1, 2):
        p = ModelParams(n_emitters, 0.4, 0.0, 0.2, n_max=8)
        state = qo_stationary_state(p)
        oracle = _thermal_ladder(n_emitters, 8, 0.2)
        assert trace_distance(state.rho, oracle) < 1e-6


def test_cutoff_tail_is_the_top_fock_population():
    # the thermal ladder at a high temperature puts weight on n = n_max
    p = ModelParams(2, 0.4, 0.0, 0.5, n_max=4)
    oracle = np.diagonal(_thermal_ladder(2, 4, 0.5))
    assert oracle[4::5].sum() > 1e-4
    assert qo_stationary_state(p).cutoff_tail == pytest.approx(
        oracle[4::5].sum(), rel=1e-9)


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
    h = build_hamiltonian(build_operators(p))
    energies, vectors = np.linalg.eigh(h)
    boltz = np.exp(-(energies - energies[0]) / p.temperature)
    rho_dressed = (vectors * (boltz / boltz.sum())[None, :]) @ vectors.conj().T
    assert trace_distance(state.rho, rho_dressed) > 1e-3


def _propagate_dense(params, rho0, t):
    """Reference evolution: dense expm of the vectorized generator."""
    liouv = _full_liouvillian(params)
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
    liouv = _full_liouvillian(p)
    dim = p.dim
    trace_functional = np.zeros(dim * dim)
    trace_functional[np.arange(dim) * dim + np.arange(dim)] = 1.0
    assert np.abs(trace_functional @ liouv).max() < 1e-10
    # on the orbit space the trace is weighted by sqrt(|o|)
    _, populations, weights = _orbit_basis(p)
    reduced = qo_liouvillian(p)
    assert np.abs(weights @ reduced[populations]).max() < 1e-10


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
def test_dimension_above_limit_raises(monkeypatch, solver):
    # the solvers take the cutoff of the params they are given, never a
    # smaller one of their own; N=4, n_max=21 has C(7, 3) 22^2 = 16940
    # symmetric-subspace unknowns
    p = ModelParams(4, 0.3, 0.3, 0.1, n_max=21)
    assert qo_admits(4, 20) and not qo_admits(4, 21)
    with pytest.raises(ValueError, match="too large"):
        solver(p)
    # the dense rho is held to the model's dimension limit, read when
    # called: N=2, n_max=30 has 9610 unknowns but dimension 124
    p = ModelParams(2, 0.3, 0.3, 0.1, n_max=30)
    assert qo_admits(2, 30)
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", 123)
    with pytest.raises(ValueError, match=r"2\^N \(n_max\+1\) <= 123\)"):
        solver(p)


def test_size_limits(monkeypatch):
    # every cutoff admitted by the old full-dimension limit of 128 stays
    # admitted, and the unknowns limit binds wherever the dense rho fits
    for n_emitters in range(1, 8):
        for n_max in range(2, 128 >> n_emitters):
            assert qo_admits(n_emitters, n_max)
    assert qo_admits(1, 63) and not qo_admits(1, 64)
    assert qo_admits(4, 20) and not qo_admits(4, 21)
    # N=5, n_max=16 has C(8, 3) 17^2 = 16184 unknowns; the full dimension
    # 2^5 17 = 544 refused it while the full generator was built
    assert math.comb(8, 3) * 17**2 <= MAX_QO_UNKNOWNS
    for n_emitters, n_max in ((5, 16), (6, 12), (7, 10), (8, 8)):
        assert qo_admits(n_emitters, n_max)
        assert not qo_admits(n_emitters, n_max + 1)
    # the dimension clause reads model.DEFAULT_MAX_DIM at call time
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", 544)
    assert qo_admits(5, 16) and not qo_admits(6, 8)
    # a huge emitter number is refused without building 2^N or C(N+3, 3)
    assert not qo_admits(10**30, 2)


@pytest.mark.parametrize("n_emitters,max_dim", [(1, 40), (2, 123), (3, 200)])
def test_dense_and_comparison_solvers_share_one_dimension_check(
        monkeypatch, n_emitters, max_dim):
    # under a lowered model.DEFAULT_MAX_DIM both refuse from the first
    # cutoff with 2^N (n_max+1) > max_dim on; the unknowns limit binds
    # only above that cutoff here
    monkeypatch.setattr(model, "DEFAULT_MAX_DIM", max_dim)
    for n_max in range(2, (max_dim >> n_emitters) + 3):
        try:
            build_operators(ModelParams(n_emitters, 0.1, 0.0, 0.1,
                                        n_max=n_max))
        except model.DimensionLimitError:
            built = False
        else:
            built = True
        assert built == qo_admits(n_emitters, n_max) == (
            (n_max + 1) << n_emitters <= max_dim)


def test_g2_never_subpoissonian_with_counter_rotation():
    # the bare-operator equation misses the antibunching entirely
    for g, temperature in ((0.2, 0.05), (0.5, 0.07), (0.8, 0.1)):
        p = ModelParams(1, g, g, temperature, n_max=12)
        assert qo_g2_zero(p) >= 1.0 - 1e-3


def test_cutoff_convergence_estimate():
    # doubling the cutoff barely moves the state at moderate temperature
    p = ModelParams(1, 0.4, 0.4, 0.15, n_max=7)
    assert qo_convergence_estimate(p) < 1e-4


def _unit_trace(dim):
    """Population unknowns rho_kk of a column-stacked dim x dim state, unit weights."""
    return np.arange(dim) * (dim + 1), np.ones(dim)


def test_singular_pinned_system_is_a_degenerate_steady_state():
    # no dissipation: every diagonal state of H = diag(0, 1) is stationary,
    # so the trace-pinned system is exactly singular
    h = sp.csr_matrix(np.diag([0.0, 1.0]))
    eye = sp.identity(2, format="csr")
    liouv = (-1j * (sp.kron(eye, h) - sp.kron(h.T, eye))).tocsr()
    with pytest.raises(DegenerateSteadyStateError):
        _solve_with_trace_row(liouv, *_unit_trace(2))


def test_pinned_solves_that_disagree_are_a_degenerate_steady_state():
    # a generator with a two-fold stationary manifold whose pinned-row
    # systems are singular only up to round-off, so SuperLU factors them;
    # only the second pinned solve reveals the degeneracy
    rng = np.random.default_rng(16)
    v = rng.standard_normal((4, 4))
    liouv = sp.csr_matrix(
        (v @ np.diag([0.0, 0.0, -1.0, -2.0]) @ np.linalg.inv(v)).astype(complex))
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        _solve_with_trace_row(liouv, *_unit_trace(2))


def _full_space_stationary(params):
    """Reference: the trace row in place of equation 0 on all dim^2 unknowns.

    One LU of the whole pinned generator and two refinement sweeps, then
    the same hermitization and normalization as qo_stationary_state.
    """
    liouv = _full_liouvillian(params)
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
    # the positivity check runs on SciPy's LAPACK; NumPy's gives the same
    assert abs(state.min_eigenvalue
               - np.linalg.eigvalsh(state.rho).min()) <= 1e-14
    liouv = _full_liouvillian(params)
    dim = params.dim
    dropped = np.setdiff1d(np.arange(dim**2),
                           _trace_block(liouv, _unit_trace(dim)[0]))
    assert dropped.size > 0
    assert np.all(state.rho.reshape(-1, order="F")[dropped] == 0.0)


@pytest.mark.parametrize("n_emitters, g_prime, size", [
    (1, 0.4, 512), (1, 0.0, 62), (2, 0.4, 1280), (2, 0.0, 152)])
def test_trace_block_sizes(n_emitters, g_prime, size):
    # dicke keeps the parity block, tc the equal-excitation block, of the
    # C(N+3, 3) 16^2 symmetric-subspace unknowns (4^N 16^2 in full)
    p = ModelParams(n_emitters, 0.4, g_prime, 0.1, n_max=15)
    reduced = qo_liouvillian(p)
    assert reduced.shape == ((2560, 2560) if n_emitters == 2 else (1024, 1024))
    assert _trace_block(reduced, _orbit_basis(p)[1]).size == size


@pytest.mark.parametrize("params", [
    ModelParams(2, 0.4, 0.0, 0.1, n_max=6),
    ModelParams(2, 0.4, 0.4, 0.1, n_max=6),
    ModelParams(3, 0.3, 0.0, 0.15, n_max=5),
    ModelParams(3, 0.3, 0.3, 0.15, n_max=5),
    ModelParams(3, 0.3, 0.3, 0.12, n_max=5, omega_c=1.1, omega_x=0.95),
    ModelParams(4, 0.3, 0.3, 0.0, n_max=3),
], ids=["tc-n2", "dicke-n2", "tc-n3", "dicke-n3", "detuned-n3",
        "dicke-n4-T0"])
def test_orbit_basis_spans_an_invariant_subspace(params):
    # P is orthonormal and L maps its span to itself: L P = P (P^T L P),
    # and the solver's generator is that P^T L P
    liouv = _full_liouvillian(params)
    basis, populations, weights = _orbit_basis(params)
    reduced = qo_liouvillian(params)
    n_orbits = math.comb(params.n_emitters + 3, 3) * (params.n_max + 1)**2
    assert basis.shape == (params.dim**2, n_orbits)
    assert abs(basis.T @ basis - sp.identity(n_orbits)).max() <= 1e-13
    _assert_same_generator(reduced, basis.T @ (liouv @ basis))
    assert abs(liouv @ basis - basis @ reduced).max() <= \
        1e-13 * abs(liouv).max()
    # the population orbits are the columns that hold every rho_kk, and
    # the trace of P y is their weighted sum
    diag = _unit_trace(params.dim)[0]
    assert np.array_equal(np.unique(basis[diag].indices), populations)
    y = np.random.default_rng(20).standard_normal(n_orbits)
    assert np.sum((basis @ y)[diag]) == pytest.approx(weights @ y[populations],
                                                      rel=1e-13)


@pytest.mark.parametrize("n_emitters", range(1, 9))
def test_orbits_are_the_pair_count_multisets(n_emitters):
    # one emitter label per count of emitters in each of the four (row
    # bit, column bit) pairs; label sizes are the multinomials
    # N! / (k00! k01! k10! k11!)
    label, counts, size = _emitter_orbits(n_emitters)
    n_conf = 2**n_emitters
    assert label.shape == (n_conf, n_conf)
    # the counts of every configuration pair, one emitter bit at a time
    row, col = np.divmod(np.arange(n_conf**2), n_conf)
    pairs = np.zeros((n_conf**2, 4), dtype=int)
    for j in range(n_emitters):
        np.add.at(pairs, (np.arange(n_conf**2),
                          2 * (row >> j & 1) + (col >> j & 1)), 1)
    np.testing.assert_array_equal(counts[label.ravel()], pairs)
    multinomials = [
        math.factorial(n_emitters) // math.prod(map(math.factorial, k))
        for k in counts]
    np.testing.assert_array_equal(size, multinomials)
    np.testing.assert_array_equal(size, np.bincount(label.ravel()))
    assert sorted(size) == sorted(
        math.factorial(n_emitters) // math.prod(map(math.factorial, k))
        for k in itertools.product(range(n_emitters + 1), repeat=4)
        if sum(k) == n_emitters)
    # labels ascend with the key; the first N + 1 are the populations,
    # by excited count, and their trace weights are sqrt(C(N, k11))
    n = n_emitters + 1
    assert np.all(np.diff(counts @ [0, n, n * n, 1]) > 0)
    np.testing.assert_array_equal(counts[:n, 3], np.arange(n))
    assert not counts[:n, 1:3].any() and counts[n:, 1:3].any(axis=1).all()
    weights = _orbit_basis(ModelParams(n_emitters, 0.3, 0.3, 0.1, n_max=2))[2]
    np.testing.assert_array_equal(
        weights, np.repeat(np.sqrt([math.comb(n_emitters, k)
                                    for k in range(n)]), 3))


@pytest.mark.parametrize("params", [
    ModelParams(1, 0.5, 0.5, 0.1, n_max=6),
    ModelParams(1, 0.5, 0.0, 0.1, n_max=6),
    ModelParams(2, 0.4, 0.4, 0.08, n_max=4),
    ModelParams(2, 0.4, 0.0, 0.08, n_max=4),
    ModelParams(2, 0.3, 0.3, 0.12, n_max=4, omega_c=1.1, omega_x=0.95),
], ids=["dicke-n1", "tc-n1", "dicke-n2", "tc-n2", "detuned-n2"])
def test_full_generator_has_one_stationary_direction(params):
    # the reduced solve sees neither the dropped components nor the
    # complement of the symmetric subspace; the dense full generator has
    # a one-dimensional null space, so neither holds a second stationary
    # state (second-smallest singular value ~1e-3 of the largest)
    values = np.linalg.svd(_full_liouvillian(params).toarray(),
                           compute_uv=False)
    assert values[-1] <= 1e-14 * values[0]
    assert values[-2] >= 1e-4 * values[0]


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
    np.testing.assert_array_equal(_trace_block(liouv, _unit_trace(4)[0]),
                                  [0, 5, 10, 15])
    with pytest.raises(DegenerateSteadyStateError):
        _solve_with_trace_row(liouv, *_unit_trace(4))


def test_singular_second_pinned_system_is_a_degenerate_steady_state():
    # the trace in the first population equation gives a regular system,
    # the trace in the last one an exactly singular one: the 2x2 Woodbury
    # capacitance is singular
    liouv = sp.csr_matrix(np.diag([0.0, -1.0, -1.0, -1.0]).astype(complex))
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        _solve_with_trace_row(liouv, *_unit_trace(2))


def test_non_finite_second_pinned_solve_is_a_degenerate_steady_state():
    # a NaN in the first population equation leaves the first pinned
    # system finite, since the trace replaces that equation, but makes
    # the second pinned solve NaN; NaN must not pass the agreement check
    liouv = _decay_liouvillian(2, [(0, 1)])
    assert np.all(np.isfinite(
        _solve_with_trace_row(sp.csr_matrix(liouv), *_unit_trace(2))))
    liouv[0, 0] = np.nan
    with pytest.raises(DegenerateSteadyStateError, match="disagree"):
        _solve_with_trace_row(sp.csr_matrix(liouv), *_unit_trace(2))


def _three_term_dissipator(s):
    """S rho S+ - {S+ S, rho}/2 for a real S, column-stacked."""
    eye = sp.identity(s.shape[0], format="csr")
    sds = (s.T @ s).tocsr()
    return sp.kron(s, s) - 0.5 * sp.kron(eye, sds) - 0.5 * sp.kron(sds.T, eye)


@pytest.mark.parametrize("g_prime", [0.0, 0.35], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
def test_liouvillian_matches_dense_operator_assembly(n_emitters, g_prime):
    # the orbit-space generator is P^T L P of the textbook sum of H and
    # one three-term dissipator per coupling and rate, built here from
    # dense operators, and so is the effective-Hamiltonian reference L;
    # only the summation order of the values differs
    p = ModelParams(n_emitters, 0.35, g_prime, 0.2,
                    n_max=5 if n_emitters < 4 else 3)
    dim = p.dim
    h_s = sp.csr_matrix(build_hamiltonian(build_operators(p)))
    eye = sp.identity(dim, format="csr")
    ref = -1j * (sp.kron(eye, h_s) - sp.kron(h_s.T, eye))
    rate_down, rate_up = thermal_rate(np.array([1.0, -1.0]), p.temperature,
                                      p.gamma)
    for lower in bath_lowering(build_operators(p)):
        lower = sp.csr_matrix(dense(lower, dim))
        ref = ref + rate_down * _three_term_dissipator(lower)
        ref = ref + rate_up * _three_term_dissipator(lower.T)
    _assert_same_generator(_full_liouvillian(p), ref)
    basis = _orbit_basis(p)[0]
    _assert_same_generator(qo_liouvillian(p), basis.T @ (ref @ basis))


@pytest.mark.parametrize("params", [
    ModelParams(1, 0.5, 0.5, 0.1, n_max=12),
    ModelParams(2, 0.4, 0.0, 0.15, n_max=10),
    ModelParams(2, 0.3, 0.3, 0.12, n_max=10, omega_c=1.1, omega_x=0.95),
], ids=["dicke-n1", "tc-n2", "detuned-n2"])
def test_g2_zero_matches_operator_traces(params):
    # the Fock diagonal gives tr(rho a+ a+ a a) / tr(rho a+ a)^2
    rho = qo_stationary_state(params).rho
    a = dense(build_operators(params).a, params.dim)
    number = np.trace(rho @ a.T @ a).real
    pairs = np.trace(rho @ a.T @ a.T @ a @ a).real
    assert qo_g2_zero(params) == pytest.approx(pairs / number**2, rel=1e-13)


def test_stationary_state_builds_no_full_generator(monkeypatch):
    # the generator is assembled on the orbit space, never from Kronecker
    # products on the full space
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.sparse.kron called")

    monkeypatch.setattr(sp, "kron", refuse)
    state = qo_stationary_state(ModelParams(3, 0.3, 0.3, 0.15, n_max=5))
    assert state.residual < 1e-12
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("params", [
    ModelParams(2, 0.4, 0.0, 0.1, n_max=5),
    ModelParams(3, 0.3, 0.3, 0.15, n_max=4),
    ModelParams(3, 0.3, 0.3, 0.12, n_max=4, omega_c=1.1, omega_x=0.95),
], ids=["tc-n2", "dicke-n3", "detuned-n3"])
def test_orbit_residual_is_the_full_space_residual(monkeypatch, params):
    # L P = P L_orb, and P z holds z_o / sqrt(|o|) on orbit o, so
    # max_o |(L_orb y)_o| / sqrt(|o|) is max|L P y|, for any y
    liouv, basis = _full_liouvillian(params), _orbit_basis(params)[0]
    reduced = qo_liouvillian(params)
    half = params.n_max + 1
    norm = np.repeat(np.sqrt(_emitter_orbits(params.n_emitters)[2]), half**2)
    rng = np.random.default_rng(21)
    y = rng.standard_normal(norm.size) + 1j * rng.standard_normal(norm.size)
    assert np.max(np.abs(reduced @ y) / norm) == pytest.approx(
        np.max(np.abs(liouv @ (basis @ y))), rel=1e-12)
    # qo_stationary_state reports that residual, and gathers rho = P y,
    # for whatever y its solve returns: here a symmetrized random state
    dim = params.dim
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = basis.T @ (a @ a.conj().T).reshape(-1, order="F")
    vec = basis @ y
    trace = np.trace(vec.reshape((dim, dim), order="F")).real
    y, vec = y / trace, vec / trace
    monkeypatch.setattr(qoptical, "_solve_with_trace_row", lambda *args: y)
    state = qo_stationary_state(params)
    assert state.residual == pytest.approx(np.max(np.abs(liouv @ vec)),
                                           rel=1e-12, abs=0)
    np.testing.assert_allclose(state.rho, vec.reshape((dim, dim), order="F"),
                               rtol=0, atol=1e-15)
