"""Operator construction and Hamiltonian assembly checks.

Oracle values are built by hand from the canonical ladder/Pauli algebra so
they do not depend on the code under test.
"""

import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from dense_ops import dense, dense_hamiltonian

from dressedlight import (
    DimensionLimitError,
    ModelParams,
    bath_lowering,
    build_hamiltonian,
    build_operators,
    solve_system,
)
from dressedlight import model, pipeline
from dressedlight.model import DEFAULT_MAX_DIM


def _lowering(ops):
    """a and the s-_j as dense arrays."""
    dim = ops.params.dim
    return dense(ops.a, dim), [dense(sm, dim) for sm in ops.sigma_minus]


def _raising(ops):
    """a+ and the s+_j as conjugate transposes of the lowering operators."""
    a, sigma_minus = _lowering(ops)
    return a.conj().T, [sm.conj().T for sm in sigma_minus]


def _hermitian_couplings(ops):
    """X and the sigma_y_j as -i (L - L^T) of the bath lowering operators."""
    dim = ops.params.dim
    x, *sigma_y = (-1j * (dense(lower, dim) - dense(lower, dim).T)
                   for lower in bath_lowering(ops))
    return x, sigma_y


def _total_number(ops):
    """a+ a + sum_j s+_j s-_j from the dense operators."""
    a, sigma_minus = _lowering(ops)
    a_dag, sigma_plus = _raising(ops)
    n_tot = a_dag @ a
    for sp, sm in zip(sigma_plus, sigma_minus):
        n_tot = n_tot + sp @ sm
    return n_tot


def _reference_hamiltonian(params):
    """H from dense products of the operator set, term by term."""
    ops = build_operators(params)
    a, sigma_minus = _lowering(ops)
    a_dag, sigma_plus = _raising(ops)
    h = params.cavity_frequency * (a_dag @ a)
    for sm, sp in zip(sigma_minus, sigma_plus):
        h = h + params.emitter_frequency * (sp @ sm)
        h = h + params.g * (a_dag @ sm + a @ sp)
        h = h + params.g_prime * (a @ sm + a_dag @ sp)
    return h


def test_dimension_counts():
    assert ModelParams(1, 0.1, 0.0, 0.1, n_max=5).dim == 12
    assert ModelParams(2, 0.1, 0.0, 0.1, n_max=5).dim == 24
    assert ModelParams(3, 0.1, 0.1, 0.2, n_max=7).dim == 64


def test_parameter_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1, -0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, -0.1, 0.1)
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, 0.0, -0.1)
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, 0.0, 0.1, n_max=1)
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, 0.0, 0.1, x0=0.0)
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, 0.0, 0.1, gamma=0.0)
    # bool is an int subclass; True is not an emitter count or a cutoff
    with pytest.raises(ValueError, match="n_emitters must be an integer"):
        ModelParams(True, 0.1, 0.0, 0.1, n_max=5)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        ModelParams(1, 0.1, 0.0, 0.1, n_max=True)
    with pytest.raises(ValueError, match="n_emitters must be an integer"):
        ModelParams(np.bool_(True), 0.1, 0.0, 0.1, n_max=5)
    assert ModelParams(np.int64(2), 0.1, 0.0, 0.1, n_max=np.int32(5)).dim == 24
    # nor is it a coupling, a temperature, a rate or a frequency
    base = dict(n_emitters=2, g=0.1, g_prime=0.0, temperature=0.1)
    for field in ("g", "g_prime", "temperature", "gamma", "x0", "omega_c",
                  "omega_x"):
        for flag in (True, np.bool_(True), False):
            with pytest.raises(ValueError, match=f"{field} must be a number"):
                ModelParams(**dict(base, **{field: flag}))
    with pytest.raises(ValueError, match="g must be a number"):
        ModelParams(2, True, 0.0, 0.1)
    p = ModelParams(2, np.float64(0.1), 0, np.float32(0.1), omega_c=1)
    assert p.g_prime == 0 and p.cavity_frequency == 1
    # a complex (its imaginary part would be dropped), None, a string or
    # an int past the float range is refused by name too
    for field, value in (("g", np.complex128(0.3 + 0.1j)), ("g", 0.3 + 0j),
                         ("gamma", None), ("g", "0.3"),
                         ("omega_c", 10**400)):
        with pytest.raises(ValueError, match=f"^{field} must be "):
            ModelParams(**dict(base, **{field: value}))


@pytest.mark.parametrize("field", ["g", "g_prime", "temperature", "gamma",
                                   "x0", "omega_c", "omega_x"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_parameter_validation_rejects_non_finite(field, value):
    kwargs = dict(n_emitters=1, g=0.3, g_prime=0.0, temperature=0.1, n_max=4)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


def test_frequency_defaults_and_overrides():
    # resonant at the unit frequency unless overridden
    p = ModelParams(1, 0.1, 0.0, 0.1)
    assert p.omega_c is None and p.omega_x is None
    assert p.cavity_frequency == 1.0
    assert p.emitter_frequency == 1.0
    q = replace(p, omega_c=0.8, omega_x=1.2)
    assert q.cavity_frequency == 0.8
    assert q.emitter_frequency == 1.2
    # original untouched (frozen dataclass semantics)
    assert p.cavity_frequency == 1.0
    with pytest.raises(Exception):
        p.g = 0.5


def test_fock_ladder_elements():
    p = ModelParams(1, 0.1, 0.0, 0.1, n_max=6)
    ops = build_operators(p)
    a, _ = _lowering(ops)
    dim = p.dim
    half = p.n_max + 1
    # <e, n-1| a |e, n> = sqrt(n), zero elsewhere
    for e in (0, 1):
        for n in range(1, p.n_max + 1):
            row = e * half + n - 1
            col = e * half + n
            assert a[row, col] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(a) == 2 * p.n_max
    a_dag, _ = _raising(ops)
    # commutator is canonical away from the truncation edge
    comm = a @ a_dag - a_dag @ a
    edge = [e * half + p.n_max for e in (0, 1)]
    keep = np.setdiff1d(np.arange(dim), edge)
    np.testing.assert_allclose(comm[np.ix_(keep, keep)], np.eye(keep.size),
                               atol=1e-14)


def test_emitter_bit_convention():
    # emitter j maps to bit j of the configuration index
    p = ModelParams(3, 0.1, 0.0, 0.1, n_max=2)
    ops = build_operators(p)
    _, sigma_plus = _raising(ops)
    half = p.n_max + 1
    vacuum = np.zeros(p.dim)
    vacuum[0] = 1.0
    for j in range(3):
        excited = sigma_plus[j] @ vacuum
        expect = np.zeros(p.dim)
        expect[(1 << j) * half] = 1.0
        np.testing.assert_allclose(excited, expect, atol=1e-15)
        # raising twice annihilates
        assert np.allclose(sigma_plus[j] @ excited, 0.0)


def test_emitter_algebra():
    rng = np.random.default_rng(7)
    p = ModelParams(2, 0.1, 0.0, 0.1, n_max=2)
    ops = build_operators(p)
    _, sigma_minus = _lowering(ops)
    _, sigma_plus = _raising(ops)
    _, sigma_y = _hermitian_couplings(ops)
    for j in range(2):
        sp, sm = sigma_plus[j], sigma_minus[j]
        np.testing.assert_allclose(sm @ sm, 0.0, atol=1e-15)
        proj = sp @ sm
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)
        sy = sigma_y[j]
        np.testing.assert_allclose(sy, 1j * (sp - sm))
        np.testing.assert_allclose(sy, sy.conj().T)
    # different sites commute
    v = rng.standard_normal(p.dim)
    ab = sigma_plus[0] @ (sigma_minus[1] @ v)
    ba = sigma_minus[1] @ (sigma_plus[0] @ v)
    np.testing.assert_allclose(ab, ba, atol=1e-14)


def test_cavity_quadrature_and_total_number():
    p = ModelParams(2, 0.2, 0.1, 0.1, n_max=4, x0=1.7)
    ops = build_operators(p)
    a, _ = _lowering(ops)
    a_dag, _ = _raising(ops)
    x, _ = _hermitian_couplings(ops)
    np.testing.assert_allclose(x, -1j * p.x0 * (a - a_dag))
    np.testing.assert_allclose(x, x.conj().T)
    # a+ a + sum_j s+_j s-_j is diagonal: Fock index plus excited emitters
    half = p.n_max + 1
    expect = np.diag([float(bin(i // half).count("1") + i % half)
                      for i in range(p.dim)])
    np.testing.assert_allclose(_total_number(ops), expect, atol=1e-14)


def test_hamiltonian_single_emitter_by_hand():
    # N=1, n_max=2: basis |e,n> with index 3e+n, written out element by element
    g, gp, w = 0.23, 0.11, 1.0
    p = ModelParams(1, g, gp, 0.1, n_max=2)
    h = dense_hamiltonian(build_hamiltonian(build_operators(p)))
    expect = np.zeros((6, 6), dtype=complex)
    for e in (0, 1):
        for n in range(3):
            expect[3 * e + n, 3 * e + n] = w * n + w * e
    # co-rotating: g (a+ s- + a s+): |0,n+1><1,n| and h.c.
    for n in range(2):
        expect[0 * 3 + n + 1, 1 * 3 + n] = g * np.sqrt(n + 1)
        expect[1 * 3 + n, 0 * 3 + n + 1] = g * np.sqrt(n + 1)
    # counter-rotating: g' (a s- + a+ s+): |0,n-1><1,n| and h.c.
    for n in range(1, 3):
        expect[0 * 3 + n - 1, 1 * 3 + n] = gp * np.sqrt(n)
        expect[1 * 3 + n, 0 * 3 + n - 1] = gp * np.sqrt(n)
    np.testing.assert_allclose(h, expect, atol=1e-14)


def test_hamiltonian_hermitian_and_number_conservation():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g, gp = rng.uniform(0, 0.8, 2)
        p = ModelParams(2, g, gp, 0.1, n_max=5)
        h = dense_hamiltonian(build_hamiltonian(build_operators(p)))
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    # total excitation number is conserved exactly without counter-rotation
    p_tc = ModelParams(2, 0.5, 0.0, 0.1, n_max=5)
    ops_tc = build_operators(p_tc)
    n_total = _total_number(ops_tc)
    h_tc = dense_hamiltonian(build_hamiltonian(ops_tc))
    np.testing.assert_allclose(h_tc @ n_total, n_total @ h_tc,
                               atol=1e-13)
    p_d = ModelParams(2, 0.5, 0.5, 0.1, n_max=5)
    h_d = dense_hamiltonian(build_hamiltonian(build_operators(p_d)))
    assert np.abs(h_d @ n_total - n_total @ h_d).max() > 0.1


@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
@pytest.mark.parametrize("g_prime", [0.0, 0.37], ids=["tc", "dicke"])
def test_hamiltonian_equals_operator_products_exactly(n_emitters, g_prime):
    p = ModelParams(n_emitters, 0.37, g_prime, 0.1, n_max=9)
    h = _checked_dense(build_hamiltonian(build_operators(p)))
    assert np.array_equal(h, _reference_hamiltonian(p))


def test_hamiltonian_with_detuning_equals_operator_products_exactly():
    p = ModelParams(3, 0.21, 0.13, 0.1, n_max=7, omega_c=1.3, omega_x=0.9)
    h = _checked_dense(build_hamiltonian(build_operators(p)))
    assert np.array_equal(h, _reference_hamiltonian(p))


def _checked_dense(h):
    """Dense H of float64 entries that hold each off-diagonal element once."""
    diagonal, couplings = h
    assert diagonal.dtype == couplings.amp.dtype == np.float64
    assert np.all(couplings.src != couplings.dst)
    pairs = np.sort(np.stack([couplings.src, couplings.dst]), axis=0)
    assert np.unique(pairs, axis=1).shape[1] == couplings.src.size
    return dense_hamiltonian(h)


def test_real_hamiltonian_energies_match_complex_eigh():
    for p in (ModelParams(2, 0.5, 0.5, 0.1, n_max=20),
              ModelParams(3, 0.3, 0.0, 0.1, n_max=12)):
        h = dense_hamiltonian(build_hamiltonian(build_operators(p)))
        complex_energies = np.linalg.eigvalsh(h.astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), complex_energies,
                                   rtol=0, atol=1e-12)


def test_dimension_limit():
    with pytest.raises(DimensionLimitError):
        build_operators(ModelParams(3, 0.1, 0.0, 0.1, n_max=9999))
    # just over the limit; the guard raises before any allocation
    over = ModelParams(1, 0.1, 0.0, 0.1, n_max=DEFAULT_MAX_DIM // 2)
    assert over.dim > DEFAULT_MAX_DIM
    with pytest.raises(DimensionLimitError):
        build_operators(over)
    with pytest.raises(DimensionLimitError):
        build_hamiltonian(over)


@pytest.mark.parametrize("n_emitters", [15000, 10**7])
def test_dimension_limit_holds_for_any_emitter_number(n_emitters):
    # 2^N (n_max+1) has over 4300 digits from about N = 14,280 on, past what
    # Python formats as a decimal string; the check builds no such integer
    with pytest.raises(DimensionLimitError) as info:
        build_operators(ModelParams(n_emitters, 0.1, 0.0, 0.1, n_max=2))
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("pages,page_size,limit", [
    (72000, 1000, 1000),      # 72 * 1000^2 bytes exactly
    (71999, 1000, 999),       # one page less
    (2**21, 4096, 10922),     # 8 GiB
    (2**22, 4096, 15446),     # 16 GiB
])
def test_dimension_limit_follows_physical_memory(monkeypatch, pages,
                                                 page_size, limit):
    # LIVE_DENSE_ARRAYS float64 D x D arrays must fit: 72 D^2 <= memory.
    # Computed from a faked os.sysconf; nothing of that size is allocated.
    values = {"SC_PHYS_PAGES": pages, "SC_PAGE_SIZE": page_size}
    monkeypatch.setattr(os, "sysconf", values.__getitem__)
    assert model._memory_dim_limit() == limit


def test_solve_builds_the_index_maps_once(monkeypatch):
    # H and the bath couplings come from one OperatorSet; H built from it
    # is bit for bit the H built from the params
    calls = []
    build = model.build_operators

    def counted(params):
        calls.append(params)
        return build(params)

    monkeypatch.setattr(model, "build_operators", counted)
    monkeypatch.setattr(pipeline, "build_operators", counted)
    p = ModelParams(3, 0.3, 0.2, 0.1, n_max=6)
    solve_system(p)
    assert calls == [p]
    (diagonal, couplings), (expect, expect_couplings) = (
        build_hamiltonian(build(p)), build_hamiltonian(p))
    assert np.array_equal(diagonal, expect)
    assert all(map(np.array_equal, couplings, expect_couplings))


def test_default_dimension_limit_is_this_machines():
    assert DEFAULT_MAX_DIM == model._memory_dim_limit()


@pytest.mark.parametrize("params,dense_arrays", [
    (ModelParams(2, 0.5, 0.5, 0.07, n_max=100), 5.6),
    (ModelParams(4, 0.3, 0.0, 0.1, n_max=60), 2.0),
], ids=["dicke-n2-D404", "tc-n4-D976"])
def test_solve_stays_below_the_live_dense_arrays(params, dense_arrays):
    # the dimension limit assumes at most LIVE_DENSE_ARRAYS D x D float64
    # arrays at once; a solve, its g2(0) and its spectrum must keep to
    # that.  H is its diagonal and couplings, and downstream of the
    # eigensystem every operator is block pairs: both peak in the
    # collision count's sort of the group-energy differences, tc at 1.82
    # and dicke at 5.16
    tracemalloc.start()
    try:
        system = solve_system(params)
        system.g2_zero()
        system.spectrum(np.linspace(0.0, 3.0, 2000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < model.LIVE_DENSE_ARRAYS * params.dim**2 * 8
    assert peak < dense_arrays * params.dim**2 * 8


def test_hamiltonian_is_built_without_dense_arrays():
    # H is its diagonal and one element per coupling: at tc N=4,
    # n_max=60 building it allocates less than a tenth of a D x D array
    ops = build_operators(ModelParams(4, 0.3, 0.0, 0.1, n_max=60))
    tracemalloc.start()
    try:
        build_hamiltonian(ops)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * ops.params.dim**2 * 8


def test_operators_are_index_maps_without_dense_arrays():
    # a and every sigma_minus_j hold O(D) data; building them allocates
    # less than one D x D float64 array
    p = ModelParams(4, 0.3, 0.3, 0.1, n_max=60)
    tracemalloc.start()
    try:
        ops = build_operators(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < p.dim * p.dim * 8
    for lower in (ops.a, *ops.sigma_minus):
        # at most one element per row and per column
        assert np.unique(lower.src).size == lower.src.size
        assert np.unique(lower.dst).size == lower.dst.size
        assert lower.amp.dtype == np.float64
