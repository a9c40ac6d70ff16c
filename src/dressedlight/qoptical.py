"""Comparison solver: master equation with bare lowering operators.

This variant keeps only the bare rotating components of the couplings
(the photon and emitter lowering operators) and evaluates every bath
rate at the resonance frequency.  The master equation is in Lindblad
form, d rho/dt = -i (H_eff rho - rho H_eff+) + sum_j r_j S_j rho S_j^T,
with one real jump S_j per coupling and rate (the lowering map L at
chi(+1), L^T at chi(-1)) and H_eff = H - (i/2) sum_j r_j S_j^T S_j.

The generator L commutes with every permutation of the emitters, so the
unique stationary state is symmetric.  An orbit of entries
rho[(e_r, n_r), (e_c, n_c)] is fixed by the counts (k00, k01, k10, k11)
of emitters with each (row bit, column bit) and by (n_r, n_c): C(N+3, 3)
(n_max+1)^2 orbits instead of 4^N (n_max+1)^2 entries.  The generator is
built as P^T L P on the orthonormal orbit basis P (each orbit's
indicator over sqrt(|o|)), with neither L nor P formed: every term acts
on the mode, or on one emitter and the mode, with the amplitudes of the
one-emitter model.  A term that moves an emitter from pair class x to y
weighs k_x sqrt(|o| / |o'|) = sqrt(k_x (k_y + 1)), one that keeps the
class k_x, a mode term 1.  As L P = P (P^T L P), rho = P y holds
y_o / sqrt(|o|) on orbit o, its trace is the sum of sqrt(|o|) y_o over
the population orbits, and max|L rho| = max_o |(P^T L P y)_o| / sqrt(|o|).

Only the trace block is solved: the weakly connected components of the
generator's sparsity graph that hold a population (the parity block for
the Dicke coupling, the excitation-number block without counter-rotating
terms); a unique stationary state is zero on the others.  The state is
pinned by the trace on the first population equation, and again on the
last by a rank-2 Woodbury update of the same LU; the two must agree.
A solve makes no NumPy BLAS call (the positivity check is SciPy's
eigvalsh, the Woodbury update elementwise), so NumPy's OpenBLAS pool
never wakes to compete with the one SuperLU runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy

from . import model
from .dissipation import bath_lowering, thermal_rate
from .model import IndexMap, build_hamiltonian, build_operators
from .observables import DENOMINATOR_FLOOR, DarkStateError

# Largest number of symmetric-subspace unknowns C(N+3, 3) (n_max+1)^2
MAX_QO_UNKNOWNS = 16384
# Iterative-refinement sweeps after the sparse LU solve of the stationary
# state.
REFINE_SWEEPS = 2


class DegenerateSteadyStateError(RuntimeError):
    """The generator has more than one stationary state."""


def qo_admits(n_emitters, n_max):
    """Whether the comparison solver takes N emitters at cutoff n_max.

    A dense rho the model's `dimension_fits` admits, and at most
    MAX_QO_UNKNOWNS orbit unknowns C(N+3, 3) (n_max+1)^2.
    """
    return (model.dimension_fits(n_emitters, n_max)
            and math.comb(n_emitters + 3, 3) * (n_max + 1) ** 2
            <= MAX_QO_UNKNOWNS)


def qo_limits():
    """The two size limits of `qo_admits`, as text for error messages."""
    return (f"C(N+3, 3) (n_max+1)^2 <= {MAX_QO_UNKNOWNS} symmetric-subspace "
            f"unknowns and dimension 2^N (n_max+1) <= {model.DEFAULT_MAX_DIM}")


def _emitter_orbits(n):
    """(2^N, 2^N) emitter labels of the configuration pairs (row, column).

    Also returns each label's pair counts (k00, k01, k10, k11) and size.
    Labels ascend with the key (k10 (N+1) + k01) (N+1) + k11, N = n, so
    the N+1 population labels (k01 = k10 = 0) come first, by excited count.
    """
    conf = np.arange(2**n)
    # bitwise_count returns uint8, too narrow for the key at N >= 6
    excited = np.bitwise_count(conf).astype(int)
    both = np.bitwise_count(conf[:, None] & conf[None, :]).astype(int)
    key = ((excited[:, None] - both) * (n + 1)
           + excited[None, :] - both) * (n + 1) + both
    keys, label, size = np.unique(key.ravel(), return_inverse=True,
                                  return_counts=True)
    k10, k01, k11 = np.unravel_index(keys, (n + 1,) * 3)  # key digits
    counts = np.stack([n - k10 - k01 - k11, k01, k10, k11], axis=1)
    return label.reshape(key.shape), counts, size


def _entries(h, jumps):
    """Flat entries r, c, r', c', value of a Lindblad generator on rho.

    The generator of the dense real h and the (rate, S) jumps takes
    rho[r, c] to rho[r', c'] with the value; entries may repeat.
    """
    # S^T S is diagonal, amp^2 on the states S lowers
    h_eff = h - 0.5j * np.diag(sum(np.bincount(s.src, rate * (s.amp * s.amp),
                                               len(h)) for rate, s in jumps))
    dst, src = np.nonzero(h_eff)
    ham = IndexMap(src, dst, h_eff[dst, src])
    eye = IndexMap(np.arange(len(h)), np.arange(len(h)), np.ones(len(h)))
    parts = []
    for value, rows, cols in ([(-1j, ham, eye),
                               (1j, eye, ham._replace(amp=ham.amp.conj()))]
                              + [(rate, s, s) for rate, s in jumps]):
        pair = (rows.src[:, None], cols.src, rows.dst[:, None], cols.dst,
                value * rows.amp[:, None] * cols.amp)
        shape = (rows.src.size, cols.src.size)
        parts.append([np.broadcast_to(a, shape).ravel() for a in pair])
    return [np.concatenate(column) for column in zip(*parts)]


def qo_liouvillian(params):
    """Generator on the orbit basis (CSR); ValueError unless `qo_admits`.

    P^T L P for L on the column-stacked rho; unknown = emitter label
    (`_emitter_orbits`) (n_max+1)^2 + n_r (n_max+1) + n_c.
    """
    if not qo_admits(params.n_emitters, params.n_max):
        raise ValueError(
            f"N={params.n_emitters}, n_max={params.n_max} too large for the "
            f"comparison solver ({qo_limits()}); lower n_max")
    n, half = params.n_emitters, params.n_max + 1
    # every coupling sees the Ohmic density at the resonance frequency; S =
    # -i (L - L^T) keeps its rotating part -i L, whose phase cancels
    rate_down, rate_up = thermal_rate(
        np.array([1.0, -1.0]), params.temperature, params.gamma)
    ops = build_operators(replace(params, n_emitters=1))
    # mode, then emitter; at chi(-1) = 0 the L^T entries are 0, and dropped
    jumps = [(rate_down, s) for s in bath_lowering(ops)]
    jumps += [(rate_up, s._replace(src=s.dst, dst=s.src)) for _, s in jumps]
    h = build_hamiltonian(ops)
    h_mode = np.diagonal(h)[:half]
    # the emitter part of H on the index b (n_max+1) + n, and its mode
    # part, the diagonal on the ground emitter, on n
    emitter = _entries(h - np.diag(np.tile(h_mode, 2)), jumps[1::2])
    mode = _entries(np.diag(h_mode), [
        (rate, IndexMap(*(a[s.src < half] for a in s)))
        for rate, s in jumps[::2]])
    r, c, r_to, c_to, value = (np.concatenate(p) for p in zip(emitter, mode))
    # pair class 2 b_r + b_c before and after; the mode is a fifth class
    # that every label holds once
    x, y = 2 * (r // half) + c // half, 2 * (r_to // half) + c_to // half
    x[emitter[0].size:] = y[emitter[0].size:] = 4
    _, counts, _ = _emitter_orbits(n)
    counts = np.column_stack([counts, np.ones(len(counts), dtype=int)])
    label, e = np.nonzero(counts[:, x])
    k_x, k_y = counts[label, x[e]], counts[label, y[e]]
    step = np.array([0, n + 1, (n + 1)**2, 1, 0])  # key change per count
    keys = counts @ step
    moved = np.searchsorted(keys, keys[label] + step[y[e]] - step[x[e]])
    liouv = scipy.sparse.csr_matrix(
        (value[e] * np.where(x[e] == y[e], k_x, np.sqrt(k_x * (k_y + 1))),
         (moved * half**2 + r_to[e] % half * half + c_to[e] % half,
          label * half**2 + r[e] % half * half + c[e] % half)),
        shape=(len(counts) * half**2,) * 2)
    liouv.eliminate_zeros()
    return liouv


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
    `weights` their trace coefficients.  Only the trace block is factored;
    the result is zero elsewhere.  REFINE_SWEEPS refinement sweeps recover
    the small populations from the absolute noise of the factorization.
    DegenerateSteadyStateError (more than one stationary state) is raised
    when the system is singular or the solve pinned on the last
    population equation disagrees: that system is the factored one plus
    U V^T with U = [e_first, e_last], solved from the same LU by the
    Woodbury identity.  A non-finite second solution or a singular 2x2
    capacitance I + V^T A^-1 U counts as a disagreement.
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
    cap = np.eye(2) + vt @ z
    det = cap[0, 0] * cap[1, 1] - cap[0, 1] * cap[1, 0]
    # a singular or non-finite capacitance gives a NaN inverse (no warning)
    cap_inv = (np.array([[cap[1, 1], -cap[0, 1]], [-cap[1, 0], cap[0, 0]]])
               / det if np.isfinite(det) and det != 0
               else np.full((2, 2), np.nan))

    def woodbury(y):
        # elementwise: z @ c is an n x 2 gemv, threaded on NumPy's BLAS
        c = (cap_inv * (vt @ y)).sum(axis=1)
        return y - z[:, 0] * c[0] - z[:, 1] * c[1]

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

    residual is max|L rho| over the whole generator, before rho is
    hermitized and normalized; cutoff_tail is the population of n = n_max.
    """

    rho: np.ndarray
    residual: float
    min_eigenvalue: float
    cutoff_tail: float


def qo_stationary_state(params):
    """Stationary density matrix of the bare-operator master equation.

    Solves the orbit-space generator with a trace row, gathers rho = P y
    through the emitter-pair labels, hermitizes, renormalizes and checks
    positivity.  A second stationary direction confined to the dropped
    coherences (as for dephasing by sigma_x) or outside the symmetric
    subspace is not seen.  The residual max_o |(P^T L P y)_o| / sqrt(|o|)
    is max|L rho| over the whole generator.
    """
    if params.temperature <= 0:
        raise ValueError("the comparison solver needs temperature > 0")
    liouv = qo_liouvillian(params)
    n, half = params.n_emitters, params.n_max + 1
    label, _, size = _emitter_orbits(n)
    norm = np.repeat(np.sqrt(size), half**2)  # sqrt(|o|) of every unknown
    populations = (np.arange(n + 1)[:, None] * half**2
                   + np.arange(half) * (half + 1)).ravel()
    y = _solve_with_trace_row(liouv, populations, norm[populations])
    residual = float(np.max(np.abs(liouv @ y) / norm))
    # axes (r_conf, c_conf, n_r, n_c) to (r_conf, n_r, c_conf, n_c)
    rho = (y / norm).reshape(-1, half, half)[label].transpose(0, 2, 1, 3)
    rho = rho.reshape(params.dim, params.dim)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    eigs = scipy.linalg.eigvalsh(rho)
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
