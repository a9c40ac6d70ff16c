"""Comparison solver: master equation with bare lowering operators.

Instead of splitting the coupling operators by dressed transition
frequency, this variant keeps only their bare rotating components
(the photon and emitter lowering operators) and evaluates all bath
rates at the resonance frequency.  The master equation is in Lindblad
form, d rho/dt = -i (H_eff rho - rho H_eff+) + sum_j r_j S_j rho S_j^T:
one real jump S_j per coupling and rate (the lowering map L at the
emission rate chi(+1), L^T at the absorption rate chi(-1)) and one
effective Hamiltonian H_eff = H - (i/2) sum_j r_j S_j^T S_j.  Its
stationary state is the null space of the vectorized generator and
generally differs from the dressed-basis result at strong coupling.

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
import scipy

from .dissipation import bath_lowering, thermal_rate
from .model import build_hamiltonian, build_operators
from .observables import DENOMINATOR_FLOOR, DarkStateError

MAX_QO_DIM = 128
# Iterative-refinement sweeps after the sparse LU solve of the stationary
# state.
REFINE_SWEEPS = 2


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


def qo_liouvillian(params):
    """Sparse vectorized generator (CSR); ValueError above MAX_QO_DIM.

    L = -i (I (x) H_eff - conj(H_eff) (x) I) + sum_j r_j S_j (x) S_j on
    the column-stacked rho.  The absorption jumps L^T enter only when
    chi(-1) > 0.  S_j^T S_j is diagonal, amp^2 on the states S_j lowers,
    since S_j has at most one element per row and column.
    """
    if params.dim > MAX_QO_DIM:
        raise ValueError(
            f"dimension {params.dim} too large for the comparison solver "
            f"(limit {MAX_QO_DIM}); lower n_max"
        )
    dim = params.dim
    # every coupling sees the Ohmic density at the resonance frequency; the
    # bare rotating component of S = -i (L - L^T) is -i L, and its phase
    # cancels in the jump term
    rate_down, rate_up = thermal_rate(
        np.array([1.0, -1.0]), params.temperature, params.gamma)
    lowering = bath_lowering(build_operators(params))
    jumps = [(rate_down, s) for s in lowering]
    if rate_up > 0:
        jumps += [(rate_up, s._replace(src=s.dst, dst=s.src))
                  for s in lowering]
    loss = np.zeros(dim)  # diagonal of sum_j r_j S_j^T S_j
    for rate, s in jumps:
        loss[s.src] += rate * (s.amp * s.amp)
    h_eff = scipy.sparse.csr_matrix(
        build_hamiltonian(params) - 0.5j * np.diag(loss))
    eye = scipy.sparse.identity(dim, format="csr")
    liouv = -1j * (scipy.sparse.kron(eye, h_eff)
                   - scipy.sparse.kron(h_eff.conj(), eye))
    for rate, s in jumps:
        s = scipy.sparse.csr_matrix((s.amp, (s.dst, s.src)), shape=(dim, dim))
        liouv = liouv + rate * scipy.sparse.kron(s, s)
    return liouv.tocsr()


def _trace_block(liouv, dim):
    """Sorted unknowns of the graph components of `liouv` that hold a rho_kk.

    Two unknowns are linked when either enters the other's equation;
    the graph is built from the sparsity pattern alone, so it needs no
    model parameters and never casts the complex values.
    """
    pattern = scipy.sparse.csr_matrix(
        (np.ones(liouv.nnz), liouv.indices, liouv.indptr), shape=liouv.shape)
    _, label = scipy.sparse.csgraph.connected_components(pattern,
                                                         connection="weak")
    return np.flatnonzero(np.isin(label, label[np.arange(dim) * (dim + 1)]))


def _refine(x, b, solve, matvec):
    """Iterative-refinement sweeps of x toward matvec(x) = b."""
    for _ in range(REFINE_SWEEPS):
        x = x + solve(b - matvec(x))
    return x


def _solve_with_trace_row(liouv, dim):
    """Replace the rho_00 equation by the trace constraint and solve.

    Only the trace block (`_trace_block`) is factored; the returned
    state is zero elsewhere.  REFINE_SWEEPS iterative-refinement sweeps
    recover the small populations, which otherwise carry the absolute
    noise of the factorization.  A singular system means the generator
    has more than one stationary state and raises
    DegenerateSteadyStateError.  So does a disagreement with the solve
    pinned on the last population equation instead: that system is the
    factored one plus U V^T with U = [e_first, e_last], solved from the
    same LU by the Woodbury identity.  A non-finite second solution or a
    singular 2x2 capacitance I + V^T A^-1 U (the second system is
    singular) counts as a disagreement.
    """
    keep = _trace_block(liouv, dim)
    block = liouv[keep][:, keep]
    n = len(keep)
    diag = np.searchsorted(keep, np.arange(dim) * (dim + 1))
    # rho_00 and rho_{D-1,D-1} are the first and last unknowns of the block
    first, last = 0, n - 1
    coo = block.tocoo()
    rest = coo.row != first
    a = scipy.sparse.csc_matrix((
        np.concatenate([coo.data[rest], np.ones(dim)]),
        (np.concatenate([coo.row[rest], np.full(dim, first)]),
         np.concatenate([coo.col[rest], diag]))), shape=(n, n))
    try:
        lu = scipy.sparse.linalg.splu(a)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise DegenerateSteadyStateError(
            "stationary state is not unique (pinned-row system is singular)"
        ) from exc
    e = np.zeros((n, 2), dtype=complex)
    e[[first, last], [0, 1]] = 1.0
    z = lu.solve(e)
    x = _refine(z[:, 0], e[:, 0], lu.solve, a.__matmul__)

    trace = scipy.sparse.csr_matrix((np.ones(dim), diag, [0, dim]),
                                    shape=(1, n))
    vt = scipy.sparse.vstack([block[first] - trace, trace - block[last]],
                             format="csr")
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
    rho = _solve_with_trace_row(liouv, params.dim)
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

    This is the photon-number statistic <a+ a+ a a> / <a+ a>^2, read off
    the Fock diagonal of rho; a stationary <a+ a> below DENOMINATOR_FLOOR
    raises DarkStateError.
    """
    populations = np.diagonal(qo_stationary_state(params).rho).real
    photons = np.arange(params.dim) % (params.n_max + 1)
    denominator = float(photons @ populations)
    if denominator < DENOMINATOR_FLOOR:
        raise DarkStateError(
            f"stationary emission {denominator:.3e} below floor")
    numerator = float((photons * (photons - 1)) @ populations)
    return numerator / denominator**2
