"""Operator construction and Hamiltonian assembly checks.

Oracle values are built by hand from the canonical ladder/Pauli algebra so
they do not depend on the code under test.
"""

import numpy as np
import pytest

from dressedlight import (
    DimensionLimitError,
    ModelParams,
    bath_lowering,
    build_hamiltonian,
    build_operators,
)
from dressedlight.model import DEFAULT_MAX_DIM


def _raising(ops):
    """a+ and the s+_j as conjugate transposes of the lowering operators."""
    return ops.a.conj().T, [sm.conj().T for sm in ops.sigma_minus]


def _hermitian_couplings(ops):
    """X and the sigma_y_j as -i (L - L^T) of the bath lowering operators."""
    x, *sigma_y = (-1j * (lower - lower.T) for lower in bath_lowering(ops))
    return x, sigma_y


def _total_number(ops):
    """a+ a + sum_j s+_j s-_j from the dense operators."""
    a_dag, sigma_plus = _raising(ops)
    n_tot = a_dag @ ops.a
    for sp, sm in zip(sigma_plus, ops.sigma_minus):
        n_tot = n_tot + sp @ sm
    return n_tot


def _reference_hamiltonian(params):
    """H from dense products of the operator set, term by term."""
    ops = build_operators(params)
    a_dag, sigma_plus = _raising(ops)
    h = params.cavity_frequency * (a_dag @ ops.a)
    for sm, sp in zip(ops.sigma_minus, sigma_plus):
        h = h + params.emitter_frequency * (sp @ sm)
        h = h + params.g * (a_dag @ sm + ops.a @ sp)
        h = h + params.g_prime * (ops.a @ sm + a_dag @ sp)
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
    with pytest.raises(ValueError):
        ModelParams(1, 0.1, 0.0, 0.1, omega0=-1.0)
    # bool is an int subclass; True is not an emitter count or a cutoff
    with pytest.raises(ValueError, match="n_emitters must be an integer"):
        ModelParams(True, 0.1, 0.0, 0.1, n_max=5)
    with pytest.raises(ValueError, match="n_max must be an integer"):
        ModelParams(1, 0.1, 0.0, 0.1, n_max=True)
    with pytest.raises(ValueError, match="n_emitters must be an integer"):
        ModelParams(np.bool_(True), 0.1, 0.0, 0.1, n_max=5)
    assert ModelParams(np.int64(2), 0.1, 0.0, 0.1, n_max=np.int32(5)).dim == 24


@pytest.mark.parametrize("field", ["g", "g_prime", "temperature", "omega0",
                                   "gamma", "x0", "omega_c", "omega_x"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_parameter_validation_rejects_non_finite(field, value):
    kwargs = dict(n_emitters=1, g=0.3, g_prime=0.0, temperature=0.1, n_max=4)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


def test_frequency_defaults_and_overrides():
    p = ModelParams(1, 0.1, 0.0, 0.1, omega0=2.0)
    assert p.cavity_frequency == 2.0
    assert p.emitter_frequency == 2.0
    q = p.updated(omega_c=1.8, omega_x=2.2)
    assert q.cavity_frequency == 1.8
    assert q.emitter_frequency == 2.2
    # original untouched (frozen dataclass semantics)
    assert p.cavity_frequency == 2.0
    with pytest.raises(Exception):
        p.g = 0.5


def test_fock_ladder_elements():
    p = ModelParams(1, 0.1, 0.0, 0.1, n_max=6)
    ops = build_operators(p)
    dim = p.dim
    half = p.n_max + 1
    # <e, n-1| a |e, n> = sqrt(n), zero elsewhere
    for e in (0, 1):
        for n in range(1, p.n_max + 1):
            row = e * half + n - 1
            col = e * half + n
            assert ops.a[row, col] == pytest.approx(np.sqrt(n))
    assert np.count_nonzero(ops.a) == 2 * p.n_max
    a_dag, _ = _raising(ops)
    # commutator is canonical away from the truncation edge
    comm = ops.a @ a_dag - a_dag @ ops.a
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
    _, sigma_plus = _raising(ops)
    _, sigma_y = _hermitian_couplings(ops)
    for j in range(2):
        sp, sm = sigma_plus[j], ops.sigma_minus[j]
        np.testing.assert_allclose(sm @ sm, 0.0, atol=1e-15)
        proj = sp @ sm
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-14)
        sy = sigma_y[j]
        np.testing.assert_allclose(sy, 1j * (sp - sm))
        np.testing.assert_allclose(sy, sy.conj().T)
    # different sites commute
    v = rng.standard_normal(p.dim)
    ab = sigma_plus[0] @ (ops.sigma_minus[1] @ v)
    ba = ops.sigma_minus[1] @ (sigma_plus[0] @ v)
    np.testing.assert_allclose(ab, ba, atol=1e-14)


def test_cavity_quadrature_and_total_number():
    p = ModelParams(2, 0.2, 0.1, 0.1, n_max=4, x0=1.7)
    ops = build_operators(p)
    a_dag, _ = _raising(ops)
    x, _ = _hermitian_couplings(ops)
    np.testing.assert_allclose(x, -1j * p.x0 * (ops.a - a_dag))
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
    h = build_hamiltonian(p)
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
        h = build_hamiltonian(p)
        np.testing.assert_allclose(h, h.conj().T, atol=1e-14)
    # total excitation number is conserved exactly without counter-rotation
    p_tc = ModelParams(2, 0.5, 0.0, 0.1, n_max=5)
    n_total = _total_number(build_operators(p_tc))
    h_tc = build_hamiltonian(p_tc)
    np.testing.assert_allclose(h_tc @ n_total, n_total @ h_tc,
                               atol=1e-13)
    p_d = ModelParams(2, 0.5, 0.5, 0.1, n_max=5)
    h_d = build_hamiltonian(p_d)
    assert np.abs(h_d @ n_total - n_total @ h_d).max() > 0.1


@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
@pytest.mark.parametrize("g_prime", [0.0, 0.37], ids=["tc", "dicke"])
def test_hamiltonian_equals_operator_products_exactly(n_emitters, g_prime):
    p = ModelParams(n_emitters, 0.37, g_prime, 0.1, n_max=9)
    h = build_hamiltonian(p)
    assert h.dtype == np.float64
    assert np.array_equal(h, _reference_hamiltonian(p))


def test_hamiltonian_with_detuning_equals_operator_products_exactly():
    p = ModelParams(3, 0.21, 0.13, 0.1, omega0=1.1, n_max=7, omega_c=1.3,
                    omega_x=0.9)
    h = build_hamiltonian(p)
    assert h.dtype == np.float64
    assert np.array_equal(h, _reference_hamiltonian(p))


def test_real_hamiltonian_energies_match_complex_eigh():
    for p in (ModelParams(2, 0.5, 0.5, 0.1, n_max=20),
              ModelParams(3, 0.3, 0.0, 0.1, n_max=12)):
        h = build_hamiltonian(p)
        complex_energies = np.linalg.eigvalsh(h.astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(h), complex_energies,
                                   rtol=0, atol=1e-12)


def test_dimension_limit():
    with pytest.raises(DimensionLimitError):
        build_operators(ModelParams(3, 0.1, 0.0, 0.1, n_max=9999))
    # just over the limit; the guard raises before any allocation
    over = ModelParams(1, 0.1, 0.0, 0.1, n_max=DEFAULT_MAX_DIM // 2)
    assert over.dim == DEFAULT_MAX_DIM + 2
    with pytest.raises(DimensionLimitError):
        build_operators(over)
    with pytest.raises(DimensionLimitError):
        build_hamiltonian(over)
