"""Truncated Fock-space states and operators.

States of the quantum oscillator are represented on the first N number levels.
Truncation is never hidden: every factory reports the trace or norm it lost to
the cutoff through ``FockTruncation.tail_bound``, and raises once that loss
exceeds the caller's tolerance.

Truncation policy (see ``default_truncation``): N is the maximum of the block
dimension 2 j_max + 1 over the concentration set, the smallest N with
p^N < 1e-8, and ceil((sqrt(2 mu - 1) |u|_max + 6)^2), so both thermal tails
and displacement leakage stay below the test tolerances used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import AccuracyError, DomainError, TruncationError
from .irreps import LocalParam
from .numerics import tridiagonal_propagator, unitary_exp
from .qubit_model import ModelParams, concentration_set, effective_rank


@dataclass(frozen=True)
class FockTruncation:
    """Number-basis cutoff: levels 0 .. dim-1, plus the guaranteed trace deficit."""

    dim: int
    tail_bound: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError(f"truncation dimension must be positive, got {self.dim}")
        if self.tail_bound < 0:
            raise DomainError("tail bound must be nonnegative")


@dataclass(frozen=True)
class Displacement:
    """Phase-space displacement amplitude."""

    z: complex

    def __post_init__(self):
        if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
            raise DomainError(f"displacement must be finite, got {self.z!r}")


@dataclass(frozen=True)
class FockOperator:
    """Operator on the truncated oscillator space.

    A state built in factor form also carries ``factor``: F with
    matrix = F F^dag, holding only the leading (nonzero) rows.
    """

    trunc: FockTruncation
    matrix: np.ndarray = field(repr=False)
    factor: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (self.trunc.dim, self.trunc.dim):
            raise DomainError(
                f"matrix shape {self.matrix.shape} does not match truncation dim {self.trunc.dim}"
            )


def displacement_amplitude(u: LocalParam, mu: float) -> complex:
    """Displacement sqrt(2 mu - 1) * (-u_y + i u_x) carried by the limit state."""
    return math.sqrt(2.0 * mu - 1.0) * u.alpha


def default_truncation(params: ModelParams, u_max: float) -> FockTruncation:
    """Shared cutoff adequate for every block state and limit state in a sweep."""
    dim_blocks = max(j.dim for j in concentration_set(params))
    p = params.p
    dim_thermal = 1 if p == 0.0 else math.ceil(math.log(1e-8) / math.log(p))
    dim_disp = math.ceil((math.sqrt(2.0 * params.mu - 1.0) * u_max + 6.0) ** 2)
    dim = max(dim_blocks, dim_thermal, dim_disp)
    return FockTruncation(dim, tail_bound=p ** dim)


def number_basis_state(k: int, trunc: FockTruncation) -> FockOperator:
    """Rank-one projector |k><k|."""
    if not 0 <= k < trunc.dim:
        raise DomainError(f"level {k} outside truncation 0..{trunc.dim - 1}")
    m = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    m[k, k] = 1.0
    return FockOperator(FockTruncation(trunc.dim), m)


def thermal_state(p: float, trunc: FockTruncation) -> FockOperator:
    """Thermal state diag((1-p) p^k); the trace deficit is exactly p^N."""
    if not 0.0 <= p < 1.0:
        raise DomainError(f"thermal parameter must lie in [0, 1), got {p!r}")
    k = np.arange(trunc.dim)
    m = np.diag((1.0 - p) * p ** k).astype(complex)
    return FockOperator(FockTruncation(trunc.dim, tail_bound=p ** trunc.dim), m)


def coherent_coefficients(z: complex, dim: int) -> np.ndarray:
    """Number-basis coefficients e^{-|z|^2/2} z^k / sqrt(k!), in log space."""
    out = np.zeros(dim, dtype=complex)
    az = abs(z)
    if az == 0.0:
        out[0] = 1.0
        return out
    k = np.arange(dim)
    amp = np.exp(-az * az / 2.0 + k * math.log(az) - 0.5 * gammaln(k + 1))
    return amp * np.exp(1j * np.angle(z) * k)


def _coherent_rows(z: np.ndarray, dim: int) -> np.ndarray:
    """Vectorized coherent coefficients for an array of amplitudes: (points, dim)."""
    z = np.asarray(z, dtype=complex)
    az = np.abs(z)
    k = np.arange(dim)
    out = np.zeros((len(z), dim), dtype=complex)
    pos = az > 0
    if np.any(pos):
        amp = np.exp(
            -az[pos, None] ** 2 / 2.0
            + k[None, :] * np.log(az[pos, None])
            - 0.5 * gammaln(k + 1)[None, :]
        )
        out[pos] = amp * np.exp(1j * np.angle(z[pos])[:, None] * k[None, :])
    out[~pos, 0] = 1.0
    return out


def coherent_leakage(z: complex, dim: int) -> float:
    """Probability mass of |z> above the cutoff (Poisson tail at |z|^2)."""
    c = coherent_coefficients(z, dim)
    return max(0.0, 1.0 - float(np.vdot(c, c).real))


def required_coherent_dim(z: complex, leakage_tol: float) -> int:
    """Smallest cutoff keeping the coherent leakage below tolerance."""
    dim = max(4, math.ceil(abs(z) ** 2) + 1)
    while coherent_leakage(z, dim) > leakage_tol:
        dim = math.ceil(dim * 1.5) + 4
    while dim > 1 and coherent_leakage(z, dim - 1) <= leakage_tol:
        dim -= 1
    return dim


def coherent_state(z: complex, trunc: FockTruncation, leakage_tol: float = 1e-8) -> FockOperator:
    """Rank-one coherent projector; leakage is reported, not renormalized away."""
    c = coherent_coefficients(z, trunc.dim)
    leakage = max(0.0, 1.0 - float(np.vdot(c, c).real))
    if leakage > leakage_tol:
        raise TruncationError(
            f"coherent state leakage {leakage:.3e} above {leakage_tol:.1e}; "
            f"need dim >= {required_coherent_dim(z, leakage_tol)}"
        )
    return FockOperator(FockTruncation(trunc.dim, tail_bound=leakage), np.outer(c, c.conj()))


def _annihilation(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    ks = np.arange(1, dim)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


def quadrature_operators(trunc: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum Q = (a + a^dag)/sqrt(2), P = (a - a^dag)/(i sqrt(2))."""
    a = _annihilation(trunc.dim)
    q = (a + a.conj().T) / math.sqrt(2.0)
    p = (a - a.conj().T) / (1j * math.sqrt(2.0))
    return q, p


def default_pad(z: complex) -> int:
    return max(16, math.ceil(8.0 * abs(z)))


def displacement_operator(
    d: Displacement,
    trunc: FockTruncation,
    pad: int | None = None,
    unitarity_tol: float = 1e-3,
    column_tol: float = 1e-8,
) -> FockOperator:
    """Displacement D(z) = exp(z a^dag - conj(z) a), built padded then cropped.

    Dense reference for the propagator columns in ``displaced_thermal``.

    Two adequacy checks feed the reported deficit.  The unitarity deficit is
    the worst entry of D^dag D - 1 over the lower half of the cropped block:
    it measures the mass a column loses to the cropped rows, so it is the
    linear-scale truncation indicator (products of cropped displacements see
    roughly its square).  The column deficit compares D(z)|0> against the
    closed-form coherent coefficients, which catches an inadequate pad even
    though the exponential of the truncated generator is unitary on its own
    space.
    """
    if pad is None:
        pad = default_pad(d.z)
    dim_pad = trunc.dim + pad
    a = _annihilation(dim_pad)
    gen = d.z * a.conj().T - np.conj(d.z) * a
    full = unitary_exp(-1j * gen)
    m = full[: trunc.dim, : trunc.dim]
    keep = max(1, trunc.dim // 2)
    defect = m.conj().T @ m - np.eye(trunc.dim)
    unit_deficit = float(np.abs(defect[:keep, :keep]).max())
    col_deficit = float(np.abs(m[:, 0] - coherent_coefficients(d.z, trunc.dim)).max())
    if unit_deficit > unitarity_tol or col_deficit > column_tol:
        raise TruncationError(
            f"displacement truncation deficits (unitarity {unit_deficit:.3e}, "
            f"ground column {col_deficit:.3e}) above tolerances "
            f"({unitarity_tol:.1e}, {column_tol:.1e}); increase pad (pad={pad}) "
            f"or the truncation (dim={trunc.dim})"
        )
    return FockOperator(
        FockTruncation(trunc.dim, tail_bound=max(unit_deficit, col_deficit)), m
    )


def displaced_thermal(
    u: LocalParam,
    mu: float,
    trunc: FockTruncation,
    trace_tol: float = 1e-6,
) -> FockOperator:
    """Displaced thermal state D(z) phi0 D(z)^dag with z = sqrt(2 mu - 1) alpha_u.

    The thermal spectrum (1 - p) p^k is cut at the effective rank, and the
    kept columns D(z)|k> come from the Chebyshev propagator: z a^dag - z* a is
    the gauge of i |z| (a + a^dag) by the phase e^{ik (arg z - pi/2)}, and the
    number-basis couplings are sqrt(k).  The result is kept as a factor F
    (its rows cropped to the truncation) with the dense F F^dag alongside, so
    it is positive semidefinite by construction; the trace lost to the rank
    cut and the crop is the reported tail bound.
    """
    if not 0.5 < mu <= 1.0:
        raise DomainError(f"mu must lie in (1/2, 1], got {mu!r}")
    p = (1.0 - mu) / mu
    z = displacement_amplitude(u, mu)
    r = effective_rank(p)
    cols = tridiagonal_propagator(np.sqrt, abs(z), np.angle(z) - math.pi / 2.0, r)
    factor = cols[: trunc.dim] * np.sqrt((1.0 - p) * p ** np.arange(r))[None, :]
    rows = factor.shape[0]
    out = np.zeros((trunc.dim, trunc.dim), dtype=complex)
    out[:rows, :rows] = factor @ factor.conj().T
    tail = max(0.0, 1.0 - float(np.trace(out).real))
    if tail > trace_tol:
        raise TruncationError(
            f"displaced thermal trace deficit {tail:.3e} above {trace_tol:.1e} "
            f"(dim={trunc.dim}, |z|={abs(z):.3f})"
        )
    return FockOperator(FockTruncation(trunc.dim, tail_bound=tail), out, factor)


@dataclass(frozen=True)
class PolarGrid:
    """Deterministic polar quadrature over a disk in the plane.

    Gauss-Legendre nodes in radius, uniform nodes in angle; exact to rounding
    for smooth integrands that decay inside the disk.
    """

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 6.0
    n_radial: int = 200
    n_angular: int = 256

    def __post_init__(self):
        if self.radius <= 0 or self.n_radial < 2 or self.n_angular < 4:
            raise DomainError("polar grid needs radius > 0, n_radial >= 2, n_angular >= 4")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points of shape (G, 2) and weights of shape (G,)."""
        x, wx = np.polynomial.legendre.leggauss(self.n_radial)
        r = 0.5 * self.radius * (x + 1.0)
        wr = 0.5 * self.radius * wx * r
        t = (np.arange(self.n_angular) + 0.5) * 2.0 * math.pi / self.n_angular
        rr, tt = np.meshgrid(r, t, indexing="ij")
        pts = np.stack(
            [self.center[0] + rr * np.cos(tt), self.center[1] + rr * np.sin(tt)], axis=-1
        ).reshape(-1, 2)
        w = np.repeat(wr, self.n_angular) * (2.0 * math.pi / self.n_angular)
        return pts, w

    def complex_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        pts, w = self.nodes()
        return pts[:, 0] + 1j * pts[:, 1], w


def glauber_mixture(
    mu: float,
    trunc: FockTruncation,
    quad: PolarGrid | None = None,
    tail_tol: float = 1e-4,
) -> FockOperator:
    """Thermal state assembled as a Gaussian mixture of coherent projectors.

    The mixture has density e^{-|z|^2 / 2 s^2} / (2 pi s^2) over displacements
    with s^2 = p / (2 (1 - p)); the quadrature result should reproduce
    thermal_state(p) up to the reported Gaussian tail outside the grid radius.
    """
    if not 0.5 < mu < 1.0:
        raise DomainError(f"mixture form needs mu in (1/2, 1), got {mu!r}")
    p = (1.0 - mu) / mu
    s2 = p / (2.0 * (1.0 - p))
    if quad is None:
        quad = PolarGrid(radius=6.0 * math.sqrt(s2))
    tail = math.exp(-quad.radius ** 2 / (2.0 * s2))
    if tail > tail_tol:
        raise AccuracyError(
            f"quadrature radius {quad.radius:.3f} too small: Gaussian tail "
            f"{tail:.3e} above {tail_tol:.1e}"
        )
    z, w = quad.complex_nodes()
    dens = np.exp(-np.abs(z) ** 2 / (2.0 * s2)) / (2.0 * math.pi * s2)
    rows = _coherent_rows(z, trunc.dim)
    m = (rows * (w * dens)[:, None]).T @ rows.conj()
    return FockOperator(FockTruncation(trunc.dim, tail_bound=tail), m)


def heterodyne_density(u_hat: LocalParam, mu: float, trunc: FockTruncation) -> FockOperator:
    """POVM density (2 mu - 1)/pi |z><z| at z = sqrt(2 mu - 1) alpha_uhat.

    The 1/pi makes the plane integral of the density the identity (coherent
    state overcompleteness); the leakage of |z> above the cutoff is recorded
    in the tail bound rather than raised, because densities are routinely
    evaluated far in the tails where the overlap with any low-lying state is
    negligible anyway.
    """
    if not 0.5 < mu <= 1.0:
        raise DomainError(f"mu must lie in (1/2, 1], got {mu!r}")
    z = displacement_amplitude(u_hat, mu)
    c = coherent_coefficients(z, trunc.dim)
    leakage = max(0.0, 1.0 - float(np.vdot(c, c).real))
    scale = (2.0 * mu - 1.0) / math.pi
    return FockOperator(FockTruncation(trunc.dim, tail_bound=leakage), scale * np.outer(c, c.conj()))


def heterodyne_pdf(points, u: LocalParam, mu: float, trunc: FockTruncation) -> np.ndarray:
    """Outcome density Tr(phi^u h(u_hat)) evaluated at an (G, 2) array of points.

    The quadratic form is evaluated through the displaced thermal state's
    stored factor, whose spectrum is cut at ``RANK_CUT``; the coherent rows
    run only over the factor's rows.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    factor = displaced_thermal(u, mu, trunc).factor
    z = math.sqrt(2.0 * mu - 1.0) * (-pts[:, 1] + 1j * pts[:, 0])
    rows = _coherent_rows(z, factor.shape[0])
    amps = rows.conj() @ factor
    vals = np.einsum("gk,gk->g", amps.real, amps.real) + np.einsum(
        "gk,gk->g", amps.imag, amps.imag
    )
    return (2.0 * mu - 1.0) / math.pi * vals
