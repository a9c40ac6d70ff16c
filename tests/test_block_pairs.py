"""The block pairs of a solve against the dense formulas they replace."""

import numpy as np
import pytest
from dense_ops import dense, dense_vectors, hamiltonian_entries, scatter

from dressedlight import (
    ModelParams,
    build_rate_table,
    observables,
    pipeline,
    solve_system,
    thermal_rate,
)
from dressedlight.dissipation import bath_lowering
from dressedlight.dynamics import RegressionEvolver
from dressedlight.model import IndexMap
from dressedlight.spectral import BlockPairs


def _dense_reference(system, lowers):
    """W, the generator, z, xdot, y = xdot xdot, rho and the observable of
    g2(t) and their elementwise product observable^T * rho, from V^T L V
    of every coupling as dense arrays."""
    eig, p = system.eig, system.params
    v = dense_vectors(eig)
    couplings = []
    for lower in lowers:
        m = v.T @ dense(lower, p.dim) @ v
        couplings.append(m - m.T)
    weight = sum(a * a for a in couplings)
    ge = eig.group_energy[eig.group_index]
    generator = thermal_rate(ge[None, :] - ge[:, None], p.temperature,
                             p.gamma) * weight
    np.fill_diagonal(generator, 0.0)
    loss = generator.sum(axis=0)
    np.fill_diagonal(generator, -loss)
    e = eig.energies
    xdot = np.where(eig.group_index[None, :] > eig.group_index[:, None],
                    (e[:, None] - e[None, :]) * couplings[0], 0.0)
    pop = system.stationary.populations
    return {"weight": weight, "generator": generator,
            "z": 0.5 * loss + 1j * e, "xdot": xdot, "y": xdot @ xdot,
            "rho": (xdot * pop[None, :]) @ xdot.T,
            "observable": xdot.T @ xdot,
            "products": (xdot.T @ xdot).T * ((xdot * pop[None, :]) @ xdot.T)}


def _assert_pairs_match_dense(monkeypatch, params):
    seen = {}

    def rate_table(eig, weight, *args):
        seen["weight"] = weight
        return build_rate_table(eig, weight, *args)

    class Evolver(RegressionEvolver):
        def __init__(self, rates, stationary, rho_diagonal,
                     observable_diagonal, products):
            # the evolver overwrites the product blocks: keep copies
            products = list(products)
            seen["products"] = BlockPairs(
                rates.generator.levels,
                {key: block.copy() for key, block in products})
            seen["diagonals"] = rho_diagonal, observable_diagonal
            super().__init__(rates, stationary, rho_diagonal,
                             observable_diagonal, products)

    monkeypatch.setattr(pipeline, "build_rate_table", rate_table)
    monkeypatch.setattr(observables, "RegressionEvolver", Evolver)
    system = solve_system(params)
    system.g2_time(np.array([0.0, 1.0]))
    rho_diagonal, observable_diagonal = seen.pop("diagonals")
    got = dict(seen, generator=system.rates.generator, xdot=system.xdot,
               y=system.xdot @ system.xdot)
    want = _dense_reference(system, pipeline.bath_lowering(
        pipeline.build_operators(params)))
    for name, pairs in got.items():
        scale = np.abs(want[name]).max()
        assert np.abs(scatter(pairs) - want[name]).max() <= 1e-12 * scale, \
            name
    for name, diagonal in (("rho", rho_diagonal),
                           ("observable", observable_diagonal)):
        scale = np.abs(want[name]).max()
        assert np.abs(diagonal - np.diag(want[name])).max() <= 1e-12 * scale
    np.testing.assert_allclose(system.rates.z, want["z"], rtol=1e-12)
    pop = system.stationary.populations
    numerator = pop @ (want["y"] ** 2).sum(axis=0)
    denominator = pop @ (want["xdot"] ** 2).sum(axis=0)
    assert system.g2_zero() == pytest.approx(numerator / denominator**2,
                                             rel=1e-12)
    return system


@pytest.mark.parametrize("g", [0.31, 0.0], ids=["coupled", "g0"])
@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
@pytest.mark.parametrize("g_prime", [0.0, 0.31], ids=["tc", "dicke"])
@pytest.mark.parametrize("n_emitters", [1, 2, 3, 4])
def test_block_pairs_match_dense_formulas(monkeypatch, n_emitters, g_prime,
                                          detuned, g):
    extra = dict(omega_c=1.1, omega_x=0.95) if detuned else {}
    params = ModelParams(n_emitters, g, g_prime * (g > 0), 0.1, n_max=7,
                         x0=1.3, **extra)
    system = _assert_pairs_match_dense(monkeypatch, params)
    assert len(system.eig.levels) > 1


def test_single_block_pairs_match_dense_formulas(monkeypatch):
    # a random symmetric H is one block: every element of every operator
    # sits in its one (0, 0) pair
    params = ModelParams(2, 0.3, 0.3, 0.1, n_max=7)
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.standard_normal((params.dim, params.dim)))
    h = q @ np.diag(np.sort(rng.uniform(0.0, 3.0, params.dim))) @ q.T
    h = (h + h.T) / 2
    lowers = [IndexMap(src=rng.permutation(params.dim)[:20],
                       dst=rng.permutation(params.dim)[:20],
                       amp=rng.standard_normal(20))
              for _ in bath_lowering(pipeline.build_operators(params))]
    monkeypatch.setattr(pipeline, "build_hamiltonian",
                        lambda ops: hamiltonian_entries(h))
    monkeypatch.setattr(pipeline, "bath_lowering", lambda ops: lowers)
    system = _assert_pairs_match_dense(monkeypatch, params)
    assert len(system.eig.levels) == 1
    assert list(system.rates.generator) == [(0, 0)]
