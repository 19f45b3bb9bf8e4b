"""Fock-space states in factor form.

States of the quantum oscillator are represented as a core of leading rows
(``FockOperator``); the dense thermal, coherent and displacement
constructions they are checked against live in ``spingauss.reference``.
A state built at u is stored in u's frame, as the spin blocks are
(``qubit_model``): the displaced thermal state's core is the real factor of
exp(-i psi N) phi exp(i psi N), psi = u.angle, so it depends on |u| alone.

No Fock cutoff is chosen.  A core holds every row the column kernel
(``displacement_columns``) reaches, which is where the number-basis columns
of D(z) fall below ``numerics.WALK_TRIM``, so the only approximation a
state carries is the rank cut of its spectrum.  Its trace is the state's
``deficit``: p^r for the displaced thermal state, the closed form of the
thermal weights past the effective rank r, as
``qubit_model.discarded_weight`` gives for a block.

Coherent rows are real: ``_coherent_rows`` takes real amplitudes t, the
coherent vector at |z| in the frame of arg z, and a complex vector is that
row times its frame phases (``coherent_coefficients``), as a spin
coherent vector is (``irreps.spin_coherent_coords``).

The heterodyne outcome density has two kernels: the radial
``heterodyne_pdf_kernel`` at the distances |u_hat - u|, for the displaced
thermal state, which the risk runs, and the polar ``PolarHeterodyne`` on a
grid centred at u, for the spin blocks, which are not radial.  The radial
kernel is a Poisson mixture summed in blocks, with no coherent row, so its
memory does not grow with the thermal rank.  The polar kernel builds its
radial products and angular table only on the rows the re-centred block
cores reach, not on every row the grid's radius allows.  Both rest on one
closed form of the Poisson pmf (``_log_poisson``): the coherent rows
restart from it, and the radial kernel weighs its blocks by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import legendre

from .errors import DomainError
from .irreps import LocalParam
from .numerics import (
    coherent_row_support,
    gauge_phases,
    mirror_rows,
    stirling_remainder,
    three_term_columns,
    trim_rows,
)
from .qubit_model import effective_rank

# Rows of the coherent-row recurrence between restarts from the closed form,
# and weights per block of the radial thermal sum (``heterodyne_pdf_kernel``);
# at least 16, where ``stirling_remainder`` is its series, exact to rounding,
# and even, so the anchors of a real amplitude carry no sign.
COHERENT_ANCHOR = 16


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
class FockOperator:
    """A state of the oscillator, in factor form.

    ``core`` holds the leading (nonzero) rows of a factor F of the state in
    its frame: matrix = F F^dag.  The displaced states are real cores.
    ``deficit`` is the trace the rank cut dropped, so it bounds how far the
    factor form moves a trace distance to the state.
    """

    core: np.ndarray = field(repr=False)
    deficit: float

    @property
    def trunc(self) -> FockTruncation:
        """The levels the core spans, with its trace deficit."""
        return FockTruncation(self.core.shape[0], tail_bound=self.deficit)

    @property
    def matrix(self) -> np.ndarray:
        """The dense F F^dag over the core's rows, in the frame, rebuilt on every access."""
        return self.core @ self.core.conj().T


def coherent_coefficients(z: complex, dim: int) -> np.ndarray:
    """Number-basis coefficients e^{-|z|^2/2} z^k / sqrt(k!): the real row
    ``_coherent_rows`` at |z| times the frame phases e^{ik arg z}
    (``numerics.gauge_phases``), as ``irreps.spin_coherent_coords`` puts
    its frame back."""
    z = complex(z)
    return gauge_phases(math.atan2(z.imag, z.real), dim) * _coherent_rows(abs(z), dim)[:, 0]


def _coherent_rows(amplitudes, dim: int) -> np.ndarray:
    """Coherent coefficients of the real amplitudes t, as a real (dim, G)
    array, one row per level: c_k = e^{-t^2/2} t^k / sqrt(k!).

    A real core contracts with it as ``core.T @ rows`` (with t in the
    core's frame); a complex amplitude is a real one times its frame phase
    (``coherent_coefficients``).  Rows follow the running product
    c_k = c_{k-1} t / sqrt(k); every ``COHERENT_ANCHOR`` rows they restart
    from the closed form, which bounds the rounding the product gathers and
    keeps the rows near k ~ t^2 right where c_0 underflows (|t| > 38).  The
    closed form is the square root of the Poisson pmf c_k^2 at x = t^2,
    taken without cancellation (``_log_poisson``).
    """
    t = np.asarray(amplitudes, dtype=float).reshape(-1)
    x = t * t
    out = np.empty((dim, len(t)))
    out[0] = np.exp(-0.5 * x)
    for k in range(1, dim):
        if k % COHERENT_ANCHOR:
            np.multiply(out[k - 1], t, out=out[k])
            out[k] *= 1.0 / math.sqrt(k)
        else:  # k is even here, so t^k / |t|^k = 1 for either sign
            out[k] = np.exp(0.5 * _log_poisson(x, k))
    return out


def _log_poisson(x: np.ndarray, k: int) -> np.ndarray:
    """log(e^{-x} x^k / k!) at the means ``x``, for an integer k >= 0.

    Loader's saddle-point form, free of cancellation: with d = (x - k)/k,
    it is -k (d - log1p(d)) - log(2 pi k)/2 - S, S the Stirling remainder
    of lgamma(k + 1) (``stirling_remainder``), and -x at k = 0.  The anchors
    of both radial kernels: the coherent rows (``_coherent_rows``) restart
    from half of it, and the thermal density (``heterodyne_pdf_kernel``)
    weighs each block of its sum by its exponential.
    """
    if k == 0:
        return -x
    d = (x - k) / k
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at x = 0
        log_p = -k * (d - np.log1p(d))
    return log_p - 0.5 * math.log(math.tau * k) - stirling_remainder(k)


def displacement_columns(t: float, cols: int) -> np.ndarray:
    """Real core of D(z)[:, :cols] at |z| = t, D(z) in the frame of arg z.

    z a^dag - z* a is the gauge of i |z| (a + a^dag) by the phase
    e^{ik (arg z - pi/2)}, and the number-basis couplings are sqrt(k), so
    D(z)[r, c] = e^{i(r-c) arg z} M[r, c] with M = exp(t (a^dag - a)) real,
    and D(-z) = S D(z) S with S = diag((-1)^k).  The columns of M are
    Charlier functions: with a = t^2, column 0 is the coherent vector at t
    and ``numerics.three_term_columns`` runs b_k = k + a, c_k = sqrt(a k).
    At t = 0 the columns are the identity.  The rows are those the columns
    reach, up to the trailing ones below ``numerics.WALK_TRIM``; a row count
    that is not finite or that no array can index raises ``DomainError``.
    """
    if t == 0.0:
        return np.eye(cols)
    # the rows are counted before anything is allocated, first on a
    # product, which overflows to inf where ``** 2`` would raise
    reach, limit = t + math.sqrt(cols), np.iinfo(np.intp).max
    if not (reach * reach < limit and coherent_row_support(reach * reach) <= limit):
        raise DomainError(f"|z| = {t:.6g} needs more number-basis rows than an array can index")
    rows = coherent_row_support(reach ** 2)
    k = np.arange(cols)
    return three_term_columns(t / np.sqrt(np.arange(1.0, rows)), k + t * t, t * np.sqrt(k))


def displaced_thermal(u: LocalParam, mu: float) -> FockOperator:
    """Displaced thermal state D(z) phi0 D(z)^dag with z = sqrt(2 mu - 1) alpha_u.

    The thermal spectrum (1 - p) p^k is cut at the effective rank r, and the
    kept columns D(z)|k> are ``displacement_columns`` at
    |z| = sqrt(2 mu - 1) |u|: with psi = arg z = u.angle, D(z) in u's frame,
    the frame of the spin blocks at the same u, is that real core, so every
    u of one radius gets the very same core.  The result is kept in factor
    form only: the real core, with every row the kernel returns, so it is
    positive semidefinite by construction and ``matrix`` is rebuilt on
    access.  The deficit is the closed form p^r of the thermal weights past
    the rank cut (exactly 0 for the pure state, p = 0).
    """
    scale, deficit = _thermal_factors(mu)
    core = displacement_columns(math.sqrt(2.0 * mu - 1.0) * u.norm, len(scale))
    core *= scale[None, :]
    return FockOperator(core, deficit=deficit)


def _thermal_factors(mu: float) -> tuple[np.ndarray, float]:
    """The square roots of the thermal weights (1 - p) p^k, p = (1 - mu)/mu,
    for k below the effective rank r, and p^r, the trace past the rank cut;
    mu outside (1/2, 1] raises ``DomainError``."""
    if not 0.5 < mu <= 1.0:
        raise DomainError(f"mu must lie in (1/2, 1], got {mu!r}")
    p = (1.0 - mu) / mu
    r = effective_rank(p)
    return np.sqrt((1.0 - p) * p ** np.arange(r)), p ** r


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], once per order, read-only."""
    x, w = legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


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

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Radial nodes, their weights (the r of d^2u included) and angular nodes.

        ``nodes`` runs over their product, radius major.
        """
        x, wx = _gauss_legendre(self.n_radial)
        r = 0.5 * self.radius * (x + 1.0)
        wr = 0.5 * self.radius * wx * r
        t = (np.arange(self.n_angular) + 0.5) * 2.0 * math.pi / self.n_angular
        return r, wr, t

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature points of shape (G, 2) and weights of shape (G,)."""
        r, wr, t = self.axes()
        rr, tt = np.meshgrid(r, t, indexing="ij")
        pts = np.stack(
            [self.center[0] + rr * np.cos(tt), self.center[1] + rr * np.sin(tt)], axis=-1
        ).reshape(-1, 2)
        w = np.repeat(wr, self.n_angular) * (2.0 * math.pi / self.n_angular)
        return pts, w


class PolarHeterodyne:
    """Heterodyne outcome densities of real cores on a polar grid centred at u.

    The TV grid's kernel, since a spin block's density is not radial about
    u, as the displaced thermal state's is (``heterodyne_pdf_kernel``).
    With s = sqrt(2 mu - 1) and z_c = s alpha(u), a node u + rho (cos t, sin t)
    has D(z_c)^dag |z> = e^{i theta} |s rho e^{i(t + pi/2)}>, so a state with
    real core F in u's frame (rho ~ F F^T) and psi = u.angle has the density

        (2 mu - 1)/pi sum_{d >= 0} c_d cos(d (t + pi/2 - psi)) h(rho, d),

    c_0 = 1 and c_d = 2 past it, h(rho, d) = sum_m R_{m+d} R_m A_{m+d,m}
    with R_m the real coherent row at s rho, and A = G G^T with
    G = ``back`` F, ``back`` the leading rows of D(-z_c), real in that
    frame: only the ``size`` rows the radial rows reach at rho = radius,
    so the tables do not grow with |z_c|, and a column per core row, ``cols``
    of them to start with.  A chunk of cores with more rows than ``back``
    has columns grows it, to twice its columns at least (the leading
    columns of ``displacement_columns`` do not depend on how many are asked
    for).  |z_c| is ``shift``, the radial nodes s rho are ``amplitudes``,
    and t + pi/2 - psi at the angular nodes is ``phases``.  The contraction
    never reads a row past the longest G, so its tables wait for the first
    chunk of cores, are built on the K rows it reaches, and are rebuilt
    only when a later chunk reaches further: c_d cos(d (t + pi/2 - psi)) as
    ``cos`` [d, t], and the radial products R_{m+d} R_m as ``diag``
    [d, m, rho], zero past the last row.
    """

    def __init__(self, grid: PolarGrid, mu: float, cols: int):
        u = LocalParam(*grid.center)
        radii, _, angles = grid.axes()
        s = math.sqrt(2.0 * mu - 1.0)
        self.mu = mu
        self.shift = s * u.norm
        self.size = coherent_row_support((s * grid.radius) ** 2)
        self.amplitudes = s * radii
        self.phases = angles + 0.5 * math.pi - u.angle
        self.cos = self.diag = None
        self._build_back(cols)

    def _build_back(self, cols: int) -> None:
        """``back`` with ``cols`` columns: D(z_c) is the real core
        M = D(|z_c|) in u's frame, so D(-z_c) is M^T = S M S, S = diag((-1)^k),
        one signed ``displacement_columns`` call on the band it reaches."""
        back = displacement_columns(self.shift, cols)
        self.back = mirror_rows(back[: self.size]) * (-1.0) ** np.arange(cols)

    def _tables(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """``diag`` and ``cos`` on their leading ``rows`` rows, (re)built when
        they hold fewer; the radial rows live only while ``diag`` is built."""
        if self.diag is None or self.diag.shape[0] < rows:
            radial = _coherent_rows(self.amplitudes, rows)
            self.diag = np.zeros((rows, rows, radial.shape[1]))
            for d in range(rows):
                self.diag[d, : rows - d] = radial[d:] * radial[: rows - d]
            self.cos = np.cos(np.outer(np.arange(rows), self.phases))
            self.cos[1:] *= 2.0
        return self.diag[:rows, :rows], self.cos[:rows]

    def densities(self, cores) -> np.ndarray:
        """(cores, nodes) densities in ``PolarGrid.nodes`` order: h(rho, d) of
        all cores as one batched product, the angular sum as one GEMM.

        Each G loses its trailing rows below ``numerics.WALK_TRIM``
        (``trim_rows``), and the cores are contracted together on the K
        rows the longest kept G reaches: the gather, the batched product
        and the GEMM run on ``diag[:K, :K]`` and ``cos[:K]``.
        """
        reach = max(core.shape[0] for core in cores)
        if reach > self.back.shape[1]:
            self._build_back(max(reach, 2 * self.back.shape[1]))
        gs = [trim_rows(self.back[:, : core.shape[0]] @ core)[0] for core in cores]
        rows = max(g.shape[0] for g in gs)
        # A_{m+d, m} as [d, core, m], gathered from each core's A as it is
        # formed, by flat index; past the last kept row it clips to the zero
        # row G is padded with, so A_{m+d, m} = 0 for m + d >= K
        m = np.arange(rows)
        flat = np.minimum(m[:, None] + m, rows) * (rows + 1) + m
        a_diag = np.empty((rows, len(gs), rows))
        for k, g in enumerate(gs):
            padded = np.zeros((rows + 1, g.shape[1]))
            padded[: g.shape[0]] = g
            a_diag[:, k] = np.take(padded @ padded.T, flat)
        diag, cos = self._tables(rows)
        h = np.matmul(a_diag, diag).reshape(rows, -1)
        dens = h.T @ cos
        dens *= (2.0 * self.mu - 1.0) / math.pi
        return dens.reshape(len(gs), -1)


def heterodyne_pdf_kernel(mu: float) -> Callable[[np.ndarray], np.ndarray]:
    """The outcome density Tr(phi^u h(u_hat)) as a function of the distances
    rho = |u_hat - u|, (g,) -> (g,).

    The heterodyne measurement is covariant, D(z)^dag |w> = e^{i theta} |w - z>,
    so the displaced thermal state's density at u_hat is the thermal state's
    at u_hat - u, rank cut included, and that one is radial:
    (2 mu - 1)/pi sum_k lambda_k e^{-y} y^k/k!, y = (2 mu - 1) rho^2, with
    lambda_k the thermal weights cut at ``RANK_CUT``, the squares of the
    factors ``displaced_thermal`` scales its columns with.  No coherent row
    is formed: the sum runs in blocks of ``COHERENT_ANCHOR`` weights from
    the anchors a, each block a Horner sum in y with the coefficients
    lambda_{a+i} a!/(a+i)!, weighed by the Poisson pmf e^{-y} y^a/a!
    (``_log_poisson``).  Each distance's density is computed alone, so a
    chunk's result does not depend on how the distances were cut into chunks.
    """
    lam = _thermal_factors(mu)[0] ** 2
    s2 = 2.0 * mu - 1.0
    blocks = []
    for a in range(0, len(lam), COHERENT_ANCHOR):
        coef = lam[a : a + COHERENT_ANCHOR].copy()
        coef[1:] /= np.cumprod(np.arange(a + 1.0, a + len(coef)))
        blocks.append((a, coef[::-1]))

    def density(rho: np.ndarray) -> np.ndarray:
        y = s2 * np.square(rho)
        out = np.zeros_like(y)
        for a, coef in blocks:
            acc = np.full_like(y, coef[0])
            for c in coef[1:]:
                acc *= y
                acc += c
            acc *= np.exp(_log_poisson(y, a))
            out += acc
        out *= s2 / math.pi
        return out

    return density
