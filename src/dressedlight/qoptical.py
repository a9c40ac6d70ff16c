"""Comparison solver: master equation with bare lowering operators.

Instead of splitting the coupling operators by dressed transition
frequency, this variant keeps only their bare rotating components
(the photon and emitter lowering operators) and evaluates all bath
rates at the resonance frequency.  Its stationary state follows from
the null space of the vectorized generator and generally differs from
the dressed-basis result once the coupling is strong.

The null-space problem is solved only on the trace block: the unknowns
of the weakly connected components of the generator's sparsity graph
that hold a population rho_kk (the parity block for the Dicke coupling,
the excitation-number block without counter-rotating terms).  The other
components are decoupled and see no trace constraint, so for a unique
stationary state they are zero.  One sparse LU of the trace block with
the trace in its first population equation gives the state; the same LU
with a rank-2 Woodbury update gives the state pinned on the last
population equation, and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .dissipation import Bath, bath_lowering, thermal_rate
from .model import build_hamiltonian, build_operators
from .observables import DENOMINATOR_FLOOR, DarkStateError

MAX_QO_DIM = 128
# Iterative-refinement sweeps after the sparse LU solve of the stationary
# state.
REFINE_SWEEPS = 2


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


def _csr(lower, dim):
    """The model.IndexMap lower as a (dim, dim) CSR matrix."""
    return sp.csr_matrix((lower.amp, (lower.dst, lower.src)), shape=(dim, dim))


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


def qo_liouvillian(params):
    """Sparse vectorized generator (CSR); ValueError above MAX_QO_DIM."""
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
        lower = _csr(lower, params.dim)
        liouv = liouv + rate_down * _dissipator(lower)
        if rate_up > 0:
            liouv = liouv + rate_up * _dissipator(lower.T)
    return liouv.tocsr()


def _trace_block(liouv, dim):
    """Sorted unknowns of the graph components of `liouv` that hold a rho_kk.

    Two unknowns are linked when either enters the other's equation;
    the graph is built from the sparsity pattern alone, so it needs no
    model parameters and never casts the complex values.
    """
    pattern = sp.csr_matrix(
        (np.ones(liouv.nnz), liouv.indices, liouv.indptr), shape=liouv.shape)
    _, label = connected_components(pattern, connection="weak")
    return np.flatnonzero(np.isin(label, label[np.arange(dim) * (dim + 1)]))


def _refine(x, b, solve, matvec):
    """Iterative-refinement sweeps of x toward matvec(x) = b."""
    for _ in range(REFINE_SWEEPS):
        x = x + solve(b - matvec(x))
    return x


def _solve_with_trace_row(liouv, dim, row):
    """Replace population equation `row` by the trace constraint and solve.

    Only the trace block (`_trace_block`) is factored; the returned
    state is zero elsewhere.  REFINE_SWEEPS iterative-refinement sweeps
    recover the small populations, which otherwise carry the absolute
    noise of the factorization.  A singular system means the generator
    has more than one stationary state and raises
    DegenerateSteadyStateError.  So does a disagreement with the solve
    pinned on the last population equation instead: that system is the
    factored one plus U V^T with U = [e_row, e_last], solved from the
    same LU by the Woodbury identity.  A non-finite second solution or a
    singular 2x2 capacitance I + V^T A^-1 U (the second system is
    singular) counts as a disagreement.
    """
    keep = _trace_block(liouv, dim)
    block = liouv[keep][:, keep]
    n = len(keep)
    diag = np.searchsorted(keep, np.arange(dim) * (dim + 1))
    first, last = np.searchsorted(keep, [row, dim * dim - 1])
    coo = block.tocoo()
    rest = coo.row != first
    a = sp.csc_matrix((
        np.concatenate([coo.data[rest], np.ones(dim)]),
        (np.concatenate([coo.row[rest], np.full(dim, first)]),
         np.concatenate([coo.col[rest], diag]))), shape=(n, n))
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            "stationary state is not unique (pinned-row system is singular)"
        ) from exc
    e = np.zeros((n, 2), dtype=complex)
    e[[first, last], [0, 1]] = 1.0
    z = lu.solve(e)
    x = _refine(z[:, 0], e[:, 0], lu.solve, a.__matmul__)

    trace = sp.csr_matrix((np.ones(dim), diag, [0, dim]), shape=(1, n))
    vt = sp.vstack([block[first] - trace, trace - block[last]], format="csr")
    try:
        cap_inv = np.linalg.inv(np.eye(2) + vt @ z)
    except np.linalg.LinAlgError:  # second system singular: fail the check
        cap_inv = np.full((2, 2), np.nan)

    def woodbury(y):
        return y - z @ (cap_inv @ (vt @ y))

    def matvec(v):
        y = a @ v
        y[[first, last]] += vt @ v
        return y

    other = _refine(woodbury(z[:, 1]), e[:, 1],
                    lambda c: woodbury(lu.solve(c)), matvec)
    # written so that a NaN difference fails the check
    if not np.max(np.abs(x - other)) <= 1e-8 * max(1.0, np.max(np.abs(x))):
        raise DegenerateSteadyStateError(
            "stationary state is not unique (pinned-row solves disagree)"
        )
    rho = np.zeros(dim * dim, dtype=complex)
    rho[keep] = x
    return rho.reshape((dim, dim), order="F")


@dataclass
class QoStationary:
    """Stationary state of the comparison generator."""

    rho: np.ndarray
    residual: float
    min_eigenvalue: float


def qo_stationary_state(params):
    """Stationary density matrix of the bare-operator master equation.

    Solves the null-space problem directly with a trace constraint on
    the trace block, hermitizes and renormalizes, and verifies
    positivity.  The unknowns outside the trace block are decoupled from
    every population; a unique stationary state is zero there, because a
    nonzero stationary part would be a second stationary direction.  The
    same LU also gives the solve with a different pinned equation, which
    guards against a degenerate stationary manifold that reaches the
    populations; a second stationary direction confined to the dropped
    coherences (as for dephasing by sigma_x) is not seen.  The residual
    max|L rho| is taken over the whole generator.
    """
    if params.temperature <= 0:
        raise ValueError("the comparison solver needs temperature > 0")
    liouv = qo_liouvillian(params)
    rho = _solve_with_trace_row(liouv, params.dim, 0)
    residual = float(np.max(np.abs(liouv @ rho.reshape(-1, order="F"))))
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-8:
        raise RuntimeError(f"stationary state not positive: min eig {eigs.min():.3e}")
    return QoStationary(
        rho=rho,
        residual=residual,
        min_eigenvalue=float(eigs.min()),
    )


def qo_g2_zero(params):
    """Equal-time degree-two coherence in the comparison stationary state.

    This is the photon-number statistic <a+ a+ a a> / <a+ a>^2; a
    stationary <a+ a> below DENOMINATOR_FLOOR raises DarkStateError.
    """
    rho = qo_stationary_state(params).rho
    lower = _csr(build_operators(params).a, params.dim)
    raise_op = lower.T
    denominator = float(np.trace(rho @ raise_op @ lower).real)
    if denominator < DENOMINATOR_FLOOR:
        raise DarkStateError(
            f"stationary emission {denominator:.3e} below floor")
    numerator = float(np.trace(rho @ raise_op @ raise_op @ lower @ lower).real)
    return numerator / denominator**2
