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

The generator L commutes with every permutation of the emitters: H is
collective, and each emitter has its own jumps at the same rates.  So
the unique stationary state lies in the permutation-symmetric subspace,
which L maps to itself.  Its orthonormal orbit basis P has one column
per orbit of the column-stacked index of rho under the permutations,
the orbit's indicator divided by sqrt(|orbit|).  An orbit is fixed by
the multiset of per-emitter (row bit, column bit) pairs and by the
photon numbers (n_row, n_col): C(N+3, 3) (n_max+1)^2 unknowns instead
of 4^N (n_max+1)^2.  The state is rho = P y with y in the null space of
the projected generator P^T L P, and tr(P y) is the sum of
sqrt(|orbit|) y over the population orbits: these trace weights form
the trace row.

The null-space problem is solved only on the trace block: the unknowns
of the weakly connected components of the projected generator's
sparsity graph that hold a population orbit (the parity block for the
Dicke coupling, the excitation-number block without counter-rotating
terms).  The other components are decoupled and see no trace
constraint, so for a unique stationary state they are zero.  One sparse
LU of the trace block with the trace in its first population equation
gives the state; the same LU with a rank-2 Woodbury update gives the
state pinned on the last population equation, and the two must agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .dissipation import bath_lowering, thermal_rate
from .model import build_hamiltonian, build_operators
from .observables import DENOMINATOR_FLOOR, DarkStateError

# Largest number of symmetric-subspace unknowns C(N+3, 3) (n_max+1)^2
MAX_QO_UNKNOWNS = 16384
# Largest Hilbert dimension 2^N (n_max+1) of the full generator, which is
# still built (P and the residual come from it).  Its stored entries grow
# like 4^N N (n_max+1)^2: 6.3 M at N=5, n_max=15 (D=512), 0.46 GB peak.
MAX_QO_DIM = 512
# Iterative-refinement sweeps after the sparse LU solve of the stationary
# state.
REFINE_SWEEPS = 2


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


def qo_admits(n_emitters, n_max):
    """Whether the comparison solver takes N emitters at cutoff n_max.

    The symmetric-subspace solve has C(N+3, 3) (n_max+1)^2 unknowns, at
    most MAX_QO_UNKNOWNS, and the full generator it is projected from
    acts on a Hilbert dimension 2^N (n_max+1) of at most MAX_QO_DIM.  N
    is capped at 64, past both limits, so a huge N builds no huge
    integer.
    """
    n_emitters = min(n_emitters, 64)
    return (math.comb(n_emitters + 3, 3) * (n_max + 1) ** 2
            <= MAX_QO_UNKNOWNS
            and (n_max + 1) << n_emitters <= MAX_QO_DIM)


def qo_liouvillian(params):
    """Sparse vectorized generator (CSR); ValueError unless `qo_admits`.

    L = -i (I (x) H_eff - conj(H_eff) (x) I) + sum_j r_j S_j (x) S_j on
    the column-stacked rho.  The absorption jumps L^T enter only when
    chi(-1) > 0.  S_j^T S_j is diagonal, amp^2 on the states S_j lowers,
    since S_j has at most one element per row and column.
    """
    if not qo_admits(params.n_emitters, params.n_max):
        raise ValueError(
            f"N={params.n_emitters}, n_max={params.n_max} too large for the "
            f"comparison solver ({MAX_QO_UNKNOWNS} symmetric-subspace "
            f"unknowns, dimension {MAX_QO_DIM}); lower n_max"
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


def _orbit_basis(params):
    """Orbit basis P (CSR), population orbits and their trace weights.

    Column o of P is the indicator of orbit o of the column-stacked
    index r + c D of rho, divided by sqrt(|o|).  The emitter part of an
    orbit is the number of emitters whose (row bit, column bit) is
    (1, 0), (0, 1) and (1, 1); the population orbits, with none of the
    first two, take the first N + 1 emitter labels, ordered by the
    number of excited emitters.  Orbit label = emitter label (n_max+1)^2
    + n_row (n_max+1) + n_col.  Returns P, the ascending labels of the
    population orbits and their weights sqrt(|o|), so that tr(P y) is
    the weighted sum of y over them.
    """
    n, half = params.n_emitters, params.n_max + 1
    conf = np.arange(2**n)
    # bitwise_count returns uint8, too narrow for the key at N >= 6
    excited = np.bitwise_count(conf).astype(int)
    both = np.bitwise_count(conf[:, None] & conf[None, :]).astype(int)
    key = ((excited[:, None] - both) * (n + 1)
           + excited[None, :] - both) * (n + 1) + both
    _, emitter, size = np.unique(key.ravel(), return_inverse=True,
                                 return_counts=True)
    fock = np.arange(half)
    label = (emitter.reshape(conf.size, 1, conf.size, 1) * half**2
             + fock[:, None, None] * half + fock)
    # axes (c_conf, n_col, r_conf, n_row) flatten to the index r + c D
    label = label.transpose(2, 3, 0, 1).ravel()
    basis = scipy.sparse.csr_matrix(
        (1.0 / np.sqrt(size[label // half**2]),
         (np.arange(label.size), label)),
        shape=(label.size, size.size * half**2))
    populations = (np.arange(n + 1)[:, None] * half**2
                   + fock * (half + 1)).ravel()
    return basis, populations, np.repeat(np.sqrt(size[:n + 1]), half)


def _trace_block(liouv, populations):
    """Sorted unknowns of the graph components of `liouv` that hold a population.

    Two unknowns are linked when either enters the other's equation;
    the graph is built from the sparsity pattern alone, so it needs no
    model parameters and never casts the complex values.
    """
    pattern = scipy.sparse.csr_matrix(
        (np.ones(liouv.nnz), liouv.indices, liouv.indptr), shape=liouv.shape)
    _, label = scipy.sparse.csgraph.connected_components(pattern,
                                                         connection="weak")
    return np.flatnonzero(np.isin(label, label[populations]))


def _refine(x, b, solve, matvec):
    """Iterative-refinement sweeps of x toward matvec(x) = b."""
    for _ in range(REFINE_SWEEPS):
        x = x + solve(b - matvec(x))
    return x


def _solve_with_trace_row(liouv, populations, weights):
    """Replace the first population equation by the trace and solve.

    `populations` are the ascending unknowns that hold populations and
    `weights` their coefficients in the trace.  Only the trace block
    (`_trace_block`) is factored; the returned vector is zero elsewhere.
    REFINE_SWEEPS iterative-refinement sweeps recover the small
    populations, which otherwise carry the absolute noise of the
    factorization.  A singular system means the generator has more than
    one stationary state and raises DegenerateSteadyStateError.  So does
    a disagreement with the solve pinned on the last population equation
    instead: that system is the factored one plus U V^T with U =
    [e_first, e_last], solved from the same LU by the Woodbury identity.
    A non-finite second solution or a singular 2x2 capacitance
    I + V^T A^-1 U (the second system is singular) counts as a
    disagreement.
    """
    keep = _trace_block(liouv, populations)
    block = liouv[keep][:, keep]
    n = len(keep)
    diag = np.searchsorted(keep, populations)
    first, last = diag[0], diag[-1]
    coo = block.tocoo()
    rest = coo.row != first
    a = scipy.sparse.csc_matrix((
        np.concatenate([coo.data[rest], weights]),
        (np.concatenate([coo.row[rest], np.full(diag.size, first)]),
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

    trace = scipy.sparse.csr_matrix((weights, diag, [0, diag.size]),
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
    solution = np.zeros(liouv.shape[0], dtype=complex)
    solution[keep] = x
    return solution


@dataclass
class QoStationary:
    """Stationary state of the comparison generator.

    residual is max|L rho| over the whole generator, before the state is
    hermitized and normalized; cutoff_tail is the population of the top
    Fock state n = n_max.
    """

    rho: np.ndarray
    residual: float
    min_eigenvalue: float
    cutoff_tail: float


def qo_stationary_state(params):
    """Stationary density matrix of the bare-operator master equation.

    Solves the null-space problem of the projected generator P^T L P on
    its trace block with a trace constraint, maps the solution back as
    rho = P y, hermitizes and renormalizes, and verifies positivity.
    The unknowns outside the trace block are decoupled from every
    population; a unique stationary state is zero there, because a
    nonzero stationary part would be a second stationary direction.  The
    same LU also gives the solve with a different pinned equation, which
    guards against a degenerate stationary manifold that reaches the
    populations; a second stationary direction confined to the dropped
    coherences (as for dephasing by sigma_x) or outside the symmetric
    subspace is not seen.  The residual max|L rho| is taken over the
    whole, unreduced generator, so it shows that rho is stationary in
    the full space.
    """
    if params.temperature <= 0:
        raise ValueError("the comparison solver needs temperature > 0")
    liouv = qo_liouvillian(params)
    basis, populations, weights = _orbit_basis(params)
    reduced = (basis.T @ (liouv @ basis)).tocsr()
    vec = basis @ _solve_with_trace_row(reduced, populations, weights)
    residual = float(np.max(np.abs(liouv @ vec)))
    rho = vec.reshape((params.dim, params.dim), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -1e-8:
        raise RuntimeError(f"stationary state not positive: min eig {eigs.min():.3e}")
    top = np.diagonal(rho)[params.n_max::params.n_max + 1]
    return QoStationary(
        rho=rho,
        residual=residual,
        min_eigenvalue=float(eigs.min()),
        cutoff_tail=float(top.real.sum()),
    )


def qo_g2_zero(params, state=None):
    """Equal-time degree-two coherence in the comparison stationary state.

    This is the photon-number statistic <a+ a+ a a> / <a+ a>^2, read off
    the Fock diagonal of rho; a stationary <a+ a> below DENOMINATOR_FLOOR
    raises DarkStateError.  `state` is the qo_stationary_state of params
    when the caller has solved it already.
    """
    if state is None:
        state = qo_stationary_state(params)
    populations = np.diagonal(state.rho).real
    photons = np.arange(params.dim) % (params.n_max + 1)
    denominator = float(photons @ populations)
    if denominator < DENOMINATOR_FLOOR:
        raise DarkStateError(
            f"stationary emission {denominator:.3e} below floor")
    numerator = float((photons * (photons - 1)) @ populations)
    return numerator / denominator**2
