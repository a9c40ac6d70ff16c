"""System operators for N two-level emitters coupled to a single cavity mode.

Conventions
-----------
Energies are measured in units of the resonance frequency omega0 and
hbar = k_B = 1 throughout.  The Hilbert space is the product of the N
emitter spaces and the truncated Fock space of the mode.  Basis states
are ordered as |emitter configuration> (x) |n>, with the Fock index n
varying fastest: the flat index of (e, n) is e * (n_max + 1) + n, where
e is the integer whose bit j gives the state of emitter j (1 = excited).

The lowering operators have at most one element per row and column, so
each is held as an index map: a takes n to n-1 with amplitude sqrt(n),
and sigma_minus_j clears bit j of e.  Every coupling is real in this
basis, so the Hamiltonian is real symmetric, held as its diagonal and an
index map of its off-diagonal elements, written from the sigma_minus_j
maps with closed-form photon amplitudes; no D x D operator is formed.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

# D x D float64 arrays one solve may hold at once; it keeps none.  H is
# its diagonal and couplings, V one array per block (spectral.EigenSystem)
# and every operator after eigh blocks of level pairs (spectral.BlockPairs).
# solve_system, g2(0) and the spectrum peak at 0.84 of them at tc D = 976
# and 4.66 at dicke D = 404 (tracemalloc), in the collision count's (G, G)
# sort of group-energy differences, D x D where no level repeats (dicke).
LIVE_DENSE_ARRAYS = 9


def _memory_dim_limit():
    """Largest D with LIVE_DENSE_ARRAYS D x D float64 arrays in memory.

    Memory is the physical memory of the machine, read through
    os.sysconf as SC_PHYS_PAGES * SC_PAGE_SIZE.  A cgroup or container
    memory limit is not read, so the limit can exceed what such a
    process may allocate.
    """
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return math.isqrt(memory // (LIVE_DENSE_ARRAYS * 8))


DEFAULT_MAX_DIM = _memory_dim_limit()


class DimensionLimitError(ValueError):
    """Requested Hilbert-space dimension exceeds the configured limit."""


def dimension_fits(n_emitters, n_max):
    """Whether 2^N (n_max+1) <= DEFAULT_MAX_DIM, the limit read when called.

    N is capped at 64, past any memory-derived limit: no 2^N is built.
    """
    return (n_max + 1) << min(n_emitters, 64) <= DEFAULT_MAX_DIM


def check_value(value, kind, minimum=None, positive=False):
    """Return value as kind (int or float), or raise ValueError saying why.

    A bool is never a count or a number, and a complex is not a Real.  A
    float must be finite (an int too large for one is not).
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, numbers.Integral if kind is int else numbers.Real):
        raise ValueError("must be %s, not %s" % (
            "an integer" if kind is int else "a number",
            type(value).__name__))
    try:
        value = kind(value)
    except OverflowError:  # an integer too large for a float
        value = math.inf
    if kind is float and not math.isfinite(value):
        raise ValueError("must be finite")
    if positive and value <= 0:
        raise ValueError("must be > 0")
    if minimum is not None and value < minimum:
        raise ValueError("must be >= %g" % minimum)
    return value


def _rule(kind, minimum=None, positive=False, **default):
    """A ModelParams field checked by check_value(value, *rule)."""
    return field(metadata={"rule": (kind, minimum, positive)}, **default)


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the coupled emitter-cavity system.

    Each field carries its rule (kind, minimum, positive), which
    __post_init__ applies with check_value; None passes only where it is
    the default.

    Parameters
    ----------
    n_emitters : int
        Number of two-level emitters.
    g : float
        Co-rotating coupling strength (units of omega0).
    g_prime : float
        Counter-rotating coupling strength.  g_prime = 0 keeps only the
        excitation-conserving terms; g_prime = g gives the full
        position-position coupling.
    temperature : float
        Bath temperature.
    n_max : int
        Fock-space cutoff; the mode keeps photon numbers 0..n_max.
    x0 : float
        Dimensionless zero-point amplitude of the field quadrature that
        couples to the bath.
    gamma : float
        Ohmic damping strength of the bath every coupling sees, in
        units of omega0.
    omega_c, omega_x : float, optional
        Cavity / emitter frequency overrides for off-resonance checks.
        Default None means resonant: frequency 1, the unit omega0.
    """

    n_emitters: int = _rule(int, 1)
    g: float = _rule(float, 0.0)
    g_prime: float = _rule(float, 0.0)
    temperature: float = _rule(float, 0.0)
    n_max: int = _rule(int, 2, default=100)
    x0: float = _rule(float, positive=True, default=1.0)
    gamma: float = _rule(float, positive=True, default=1e-2)
    omega_c: float | None = _rule(float, positive=True, default=None)
    omega_x: float | None = _rule(float, positive=True, default=None)

    def __post_init__(self):
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.default is None:
                continue
            try:
                check_value(value, *spec.metadata["rule"])
            except ValueError as exc:
                raise ValueError("%s %s" % (spec.name, exc)) from None

    @property
    def cavity_frequency(self):
        return 1.0 if self.omega_c is None else self.omega_c

    @property
    def emitter_frequency(self):
        return 1.0 if self.omega_x is None else self.omega_x

    @property
    def dim(self):
        return 2**self.n_emitters * (self.n_max + 1)


class IndexMap(NamedTuple):
    """Operator L as its elements: L[dst[k], src[k]] = amp[k].

    A lowering map has at most one element per row and column, O(D) data
    on the D-dimensional product space; H's couplings (build_hamiltonian)
    do not, and each of theirs also stands for its transpose.
    """

    src: np.ndarray
    dst: np.ndarray
    amp: np.ndarray


@dataclass(frozen=True)
class OperatorSet:
    """The lowering operators on the product space, as index maps.

    a takes n to n-1 with amplitude sqrt(n); sigma_minus[j] clears bit j
    of the configuration index with amplitude 1.  The bath couplings are
    -i (L - L^T) of these (dissipation.bath_lowering).
    """

    params: ModelParams
    a: IndexMap
    sigma_minus: tuple


def build_operators(params):
    """Index maps of the lowering operators for the given parameters.

    Raises DimensionLimitError when 2^N (n_max+1) exceeds DEFAULT_MAX_DIM.
    """
    if not dimension_fits(params.n_emitters, params.n_max):
        raise DimensionLimitError(
            f"dimension 2^{params.n_emitters} * {params.n_max + 1} exceeds "
            f"the limit {DEFAULT_MAX_DIM}; reduce n_max or n_emitters"
        )
    half = params.n_max + 1
    config, fock = np.divmod(np.arange(params.dim), half)
    photons = np.flatnonzero(fock)
    sigma_minus = []
    for j in range(params.n_emitters):
        # clearing bit j of the configuration moves the flat index by
        # 2^j (n_max + 1)
        src = np.flatnonzero(config >> j & 1)
        sigma_minus.append(IndexMap(src, src - (half << j), np.ones(src.size)))
    return OperatorSet(
        params=params,
        a=IndexMap(photons, photons - 1, np.sqrt(fock[photons])),
        sigma_minus=tuple(sigma_minus),
    )


def build_hamiltonian(ops):
    """Hamiltonian of the coupled system, from its nonzero entries.

    H = omega_c a+ a  +  omega_x sum_j s+_j s-_j
        + g sum_j (a+ s-_j + a s+_j)  +  g' sum_j (a s-_j + a+ s+_j)

    Returns (diagonal, couplings): the (dim,) float64 diagonal and an
    IndexMap of each off-diagonal element once, H[dst, src] = H[src, dst]
    = amp.  ops is an OperatorSet, or a ModelParams whose maps are built.
    """
    if isinstance(ops, ModelParams):
        ops = build_operators(ops)
    params = ops.params
    diagonal = np.zeros(params.dim)
    a = ops.a
    # a+ a as the product of the amplitudes: sqrt(n)^2 may differ from n
    # in the last bit, and this is the value the operator product gives
    diagonal[a.src] = params.cavity_frequency * (a.amp * a.amp)
    parts = []
    for sm in ops.sigma_minus:
        diagonal[sm.src] += params.emitter_frequency
        fock = sm.src % (params.n_max + 1)
        # a+ s-_j moves n to n + 1 and a s-_j moves n to n - 1; either
        # amplitude is the square root of the larger photon number
        for coupling, step in ((params.g, 1), (params.g_prime, -1)):
            moved = fock + step
            keep = (moved >= 0) & (moved <= params.n_max)
            parts.append(IndexMap(
                sm.src[keep], sm.dst[keep] + step,
                coupling * np.sqrt(np.maximum(fock, moved)[keep])))
    return diagonal, IndexMap(*(np.concatenate(p) for p in zip(*parts)))
