"""System operators for N two-level emitters coupled to a single cavity mode.

Conventions
-----------
Energies are measured in units of the resonance frequency omega0 and
hbar = k_B = 1 throughout.  The Hilbert space is the product of the N
emitter spaces and the truncated Fock space of the mode.  Basis states
are ordered as |emitter configuration> (x) |n>, with the Fock index n
varying fastest: the flat index of (e, n) is e * (n_max + 1) + n, where
e is the integer whose bit j gives the state of emitter j (1 = excited).

Every coupling is real in this basis, so the Hamiltonian is a real
symmetric float64 matrix.  It is assembled directly from Kronecker
products of the small Fock and emitter factors; no product of two D x D
matrices is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

DEFAULT_MAX_DIM = 32768


class DimensionLimitError(ValueError):
    """Requested Hilbert-space dimension exceeds the configured limit."""


@dataclass(frozen=True)
class ModelParams:
    """Physical configuration of the coupled emitter-cavity system.

    Parameters
    ----------
    n_emitters : int
        Number of two-level emitters, >= 1.
    g : float
        Co-rotating coupling strength (units of omega0), >= 0.
    g_prime : float
        Counter-rotating coupling strength.  g_prime = 0 keeps only the
        excitation-conserving terms; g_prime = g gives the full
        position-position coupling.
    temperature : float
        Bath temperature, >= 0.
    omega0 : float
        Resonance frequency; the common default for the cavity and the
        emitters and the unit of all other energies.
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
        Default None means resonant at omega0.
    """

    n_emitters: int
    g: float
    g_prime: float
    temperature: float
    omega0: float = 1.0
    n_max: int = 100
    x0: float = 1.0
    gamma: float = 1e-2
    omega_c: float | None = None
    omega_x: float | None = None

    def __post_init__(self):
        if not isinstance(self.n_emitters, (int, np.integer)) or self.n_emitters < 1:
            raise ValueError("n_emitters must be an integer >= 1")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 2:
            raise ValueError("n_max must be an integer >= 2")
        for name in ("g", "g_prime", "temperature", "omega0", "gamma", "x0",
                     "omega_c", "omega_x"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.g < 0 or self.g_prime < 0:
            raise ValueError("coupling strengths must be non-negative")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.x0 <= 0:
            raise ValueError("x0 must be positive")
        for name in ("omega_c", "omega_x"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when given")

    @property
    def cavity_frequency(self):
        return self.omega0 if self.omega_c is None else self.omega_c

    @property
    def emitter_frequency(self):
        return self.omega0 if self.omega_x is None else self.omega_x

    @property
    def dim(self):
        return 2**self.n_emitters * (self.n_max + 1)

    def updated(self, **changes) -> "ModelParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class OperatorSet:
    """Dense matrices of the lowering operators on the product space.

    a lowers the Fock index and sigma_minus[j] lowers emitter j (bit j of
    the configuration index).  All arrays are real float64 of shape
    (dim, dim); the Hermitian bath couplings are -i times a real
    antisymmetric matrix built from them (dissipation.bath_lowering).
    """

    params: ModelParams
    a: np.ndarray
    sigma_minus: tuple

    @property
    def dim(self):
        return self.a.shape[0]


_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e| with |e> = index 1


def _fock_lowering(n_max):
    a = np.zeros((n_max + 1, n_max + 1))
    ns = np.arange(1, n_max + 1)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def _site_operator(op, j, n_sites):
    # Bit j of the configuration index is site j, so site n_sites-1 is the
    # slowest-varying kron factor and site 0 the fastest.
    eye = np.eye(2)
    factors = [eye] * n_sites
    factors[n_sites - 1 - j] = op
    return reduce(np.kron, factors)


def _check_dim(params, max_dim):
    if params.dim > max_dim:
        raise DimensionLimitError(
            f"dimension {params.dim} exceeds the limit {max_dim}; "
            "reduce n_max or n_emitters"
        )


def build_operators(params, max_dim=DEFAULT_MAX_DIM):
    """Construct the real lowering operators for the given parameters.

    Raises DimensionLimitError when 2^N (n_max+1) exceeds max_dim.
    """
    _check_dim(params, max_dim)
    n = params.n_emitters
    eye_f = np.eye(params.n_max + 1)
    return OperatorSet(
        params=params,
        a=np.kron(np.eye(2**n), _fock_lowering(params.n_max)),
        sigma_minus=tuple(np.kron(_site_operator(_SIGMA_MINUS, j, n), eye_f)
                          for j in range(n)),
    )


def build_hamiltonian(params, *, max_dim=DEFAULT_MAX_DIM):
    """Hamiltonian of the coupled system as a dense real symmetric matrix.

    H = omega_c a+ a  +  omega_x sum_j s+_j s-_j
        + g sum_j (a+ s-_j + a s+_j)  +  g' sum_j (a s-_j + a+ s+_j)

    Returns a float64 (dim, dim) array.  Each term is the Kronecker
    product of a 2^N x 2^N emitter factor and an (n_max+1)^2 Fock factor,
    accumulated in place.  Raises DimensionLimitError when 2^N (n_max+1)
    exceeds max_dim.
    """
    _check_dim(params, max_dim)
    n = params.n_emitters
    a_f = _fock_lowering(params.n_max)
    h = params.cavity_frequency * np.kron(np.eye(2**n), a_f.T @ a_f)
    eye_f = np.eye(params.n_max + 1)
    for j in range(n):
        sm = _site_operator(_SIGMA_MINUS, j, n)
        sp = sm.T
        h += params.emitter_frequency * np.kron(sp @ sm, eye_f)
        h += params.g * (np.kron(sm, a_f.T) + np.kron(sp, a_f))
        h += params.g_prime * (np.kron(sm, a_f) + np.kron(sp, a_f.T))
    return h
