"""Comparison solver: master equation with bare lowering operators.

Instead of splitting the coupling operators by dressed transition
frequency, this variant keeps only their bare rotating components
(the photon and emitter lowering operators) and evaluates all bath
rates at the resonance frequency.  Its stationary state follows from
the null space of the vectorized generator and generally differs from
the dressed-basis result once the coupling is strong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dissipation import Bath, bath_lowering, cavity_quadrature, thermal_rate
from .model import ModelParams, build_hamiltonian, build_operators
from .observables import DENOMINATOR_FLOOR

DEFAULT_QO_NMAX = 15
MAX_QO_DIM = 128
# Iterative-refinement sweeps after the sparse LU solve of the stationary
# state.
REFINE_SWEEPS = 2


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


def _qo_params(params, n_max):
    if n_max is None:
        n_max = min(params.n_max, DEFAULT_QO_NMAX)
    return params.updated(n_max=n_max)


def _dissipator(op_sparse):
    """chi (S rho S+ - {S+ S, rho}/2) in column-stacked vectorization."""
    dim = op_sparse.shape[0]
    eye = sp.identity(dim, format="csr")
    sdag_s = (op_sparse.conj().T @ op_sparse).tocsr()
    return (
        sp.kron(op_sparse.conj(), op_sparse)
        - 0.5 * sp.kron(eye, sdag_s)
        - 0.5 * sp.kron(sdag_s.T, eye)
    )


def qo_liouvillian(params, n_max=None):
    """Sparse vectorized generator; returns (liouvillian, ops)."""
    params = _qo_params(params, n_max)
    if params.dim > MAX_QO_DIM:
        raise ValueError(
            f"dimension {params.dim} too large for the comparison solver "
            f"(limit {MAX_QO_DIM}); lower n_max"
        )
    ops = build_operators(params)
    h_s = sp.csr_matrix(build_hamiltonian(params))
    eye = sp.identity(params.dim, format="csr")
    liouv = -1j * (sp.kron(eye, h_s) - sp.kron(h_s.T, eye))
    # every coupling sees the Ohmic density at the resonance frequency; the
    # bare rotating component of S = -i (L - L^T) is -i L, and its phase
    # cancels in the dissipator
    rate_down, rate_up = thermal_rate(
        np.array([params.omega0, -params.omega0]), params.temperature,
        Bath(params.gamma, params.omega0))
    for lower in bath_lowering(ops):
        lower = sp.csr_matrix(lower)
        liouv = liouv + rate_down * _dissipator(lower)
        if rate_up > 0:
            liouv = liouv + rate_up * _dissipator(lower.T)
    return liouv.tocsr(), ops


def _solve_with_trace_row(liouv, dim, row):
    """Replace one equation by the trace constraint and solve.

    REFINE_SWEEPS iterative-refinement sweeps recover the small
    populations, which otherwise carry the absolute noise of the
    factorization.  A singular system means the generator has more than
    one stationary state and raises DegenerateSteadyStateError.
    """
    a = liouv.tolil(copy=True)
    a[row, :] = 0.0
    for k in range(dim):
        a[row, k * dim + k] = 1.0
    a = a.tocsc()
    b = np.zeros(dim * dim, dtype=complex)
    b[row] = 1.0
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            "stationary state is not unique (pinned-row system is singular)"
        ) from exc
    x = lu.solve(b)
    for _ in range(REFINE_SWEEPS):
        x = x + lu.solve(b - a @ x)
    return x.reshape((dim, dim), order="F")


@dataclass
class QoStationary:
    """Stationary state of the comparison generator."""

    rho: np.ndarray
    params: ModelParams
    residual: float
    min_eigenvalue: float


def qo_stationary_state(params, n_max=None):
    """Stationary density matrix of the bare-operator master equation.

    Solves the null-space problem directly with a trace constraint,
    hermitizes and renormalizes, and verifies positivity.  A second solve
    with a different pinned equation guards against a degenerate
    stationary manifold.
    """
    if params.temperature <= 0:
        raise ValueError("the comparison solver needs temperature > 0")
    liouv, ops = qo_liouvillian(params, n_max)
    dim = ops.dim
    rho = _solve_with_trace_row(liouv, dim, 0)
    other = _solve_with_trace_row(liouv, dim, dim * dim - 1)
    if np.max(np.abs(rho - other)) > 1e-8 * max(1.0, np.max(np.abs(rho))):
        raise DegenerateSteadyStateError(
            "stationary state is not unique (pinned-row solves disagree)"
        )
    residual = float(np.max(np.abs(liouv @ rho.reshape(-1, order="F"))))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-8:
        raise RuntimeError(f"stationary state not positive: min eig {eigs.min():.3e}")
    return QoStationary(
        rho=rho,
        params=_qo_params(params, n_max),
        residual=residual,
        min_eigenvalue=float(eigs.min()),
    )


def qo_g2_zero(params, n_max=None, dressed=False, stationary=None):
    """Equal-time degree-two coherence in the comparison stationary state.

    With dressed=False this is the photon-number statistic
    <a+ a+ a a> / <a+ a>^2.  With dressed=True the emission operator of
    the dressed basis is used instead, for the same stationary state.
    """
    if stationary is None:
        stationary = qo_stationary_state(params, n_max)
    rho = stationary.rho
    qp = stationary.params
    ops = build_operators(qp)
    if dressed:
        from .observables import emission_operator
        from .spectral import diagonalize, level_tolerance

        eig = diagonalize(build_hamiltonian(qp), level_tolerance(qp.omega0))
        xdot_eig = emission_operator(
            eig, eig.to_eigenbasis(cavity_quadrature(ops)))
        lower = eig.vectors @ xdot_eig @ eig.vectors.T
    else:
        lower = ops.a
    raise_op = lower.T
    denominator = float(np.trace(rho @ raise_op @ lower).real)
    if denominator < DENOMINATOR_FLOOR:
        raise ValueError(f"stationary emission {denominator:.3e} below floor")
    numerator = float(np.trace(rho @ raise_op @ raise_op @ lower @ lower).real)
    return numerator / denominator**2

