"""Statistical consequences: discrimination, estimation risk, measurement TV.

Three experiment families live here.

* Binary discrimination between the states at +u and -u: the optimal test
  projects onto the positive part of the difference, so the minimal error
  probability follows from the trace norm.  The state at -u is the mirror
  of the state at +u in its frame (``qubit_model``), so every trace norm is
  ``numerics.mirror_trace_norm`` of one core: blockwise for the ensembles,
  once for the oscillator limit.  The pure limit and the single-quadrature
  baseline are closed forms.

* Heterodyne estimation risk: the mean squared error of the coherent-state
  POVM on the displaced thermal family.  The measurement is covariant, so
  the outcome density at u_hat is the thermal state's at u_hat - u, a real
  radial sum (``oscillator.heterodyne_pdf_kernel``), and the risk does not
  depend on u.  It is taken by Gauss-Legendre quadrature over the distance
  |u_hat - u|, or by seeded importance-sampling Monte Carlo over the
  offsets u_hat - u, ``PDF_CHUNK`` samples at a time, through that one
  kernel.  The Monte Carlo sums add up each chunk as it is drawn, so
  nothing is kept per sample.

* Covariant versus pulled-back heterodyne outcome densities on each spin
  block, and their total-variation distance.  The covariant density is a
  closed form at each point.  A block's heterodyne density is not radial;
  it comes from the polar kernel (``oscillator.PolarHeterodyne``) on the
  grid ``default_tv_grid`` centred at u, one cosine series in the grid
  angle per block.  The comparison is one kernel of one (n, u),
  ``measurement_tv(params, u)``, which builds its grid, covariant data and
  polar kernel itself; the command line runs it over the grid.  Like the
  discrimination sum, it reads the blocks as the walk yields them, a chunk
  at a time: the polar kernel is sized for the top block's rows
  (``irreps.core_rows``) before the walk, and grows only if a chunk
  reaches further.  A chunk's heterodyne densities are formed
  before its covariant ones, so the kernel's temporaries are freed before
  the covariant array is allocated, and each statistic's per-block
  integrals are one matrix-vector product against the node weights, the
  difference formed in place in the covariant array.

Outcome densities live on the plane of local parameters.  The covariant
measurement's outcomes are sphere directions; they are pulled to the plane
through the polar angle theta = 2|u|/sqrt(n), which is injective for
|u| < pi sqrt(n)/2, with Jacobian factor (2/(sqrt(n)|u|)) sin(2|u|/sqrt(n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np
from numpy.random import default_rng

from .errors import AccuracyError, DomainError
from .irreps import LocalParam, core_rows
from .numerics import mirror_trace_norm
from .oscillator import (
    PolarGrid,
    PolarHeterodyne,
    _gauss_legendre,
    displaced_thermal,
    heterodyne_pdf_kernel,
)
from .qubit_model import (
    BlockState,
    ModelParams,
    concentration_range,
    effective_rank,
    eigenvalue_ratio,
    geometric_spectrum,
    occurring_range,
    rotated_blocks,
)

# Blocks per ``_block_density_pair`` call: a chunk's diagonal sums run as one
# batched product, while its (blocks, points) densities stay a few MiB.  A
# multiple of ``irreps.WALK_STRETCH``, so the walk holds no table of
# coupling factors while a chunk's densities are formed.
TV_CHUNK = 16
# Radial Gauss-Legendre order of the quadrature risk; its resolution term
# reruns at half of it.
QUADRATURE_ORDER = 160
# Std of the Monte Carlo Gaussian proposal, in units of the outcome std.
MC_PROPOSAL_SCALE = 1.6
# Samples per chunk of the Monte Carlo risk (``heterodyne_samples``): the
# sampler, the radial density kernel and the risk's sums hold a few arrays
# of that many doubles, whatever the number of samples or of thermal weights.
PDF_CHUNK = 4096


@dataclass(frozen=True)
class BinaryTestResult:
    """Outcome of an optimal binary discrimination."""

    risk: float
    error_bound: float  # skipped blocks and rank cuts


def finite_n_discrimination(params: ModelParams, u: LocalParam) -> BinaryTestResult:
    """Optimal risk for separating the ensembles at +u and -u.

    The ensemble at -u is the mirror of the one at +u, in the same frame
    (U_j(-w) = S U_j(w) S), so each block's trace norm is
    ``mirror_trace_norm`` of its core, and the multiplicity spaces cancel.
    A skipped block's true trace norm lies in [0, 2 w], and each rank cut,
    on either side, moves the trace norm by at most its discarded trace.
    The blocks are summed as the walk yields them (``rotated_blocks``).
    """
    lo, hi, skipped = occurring_range(params)
    total = 0.0
    discarded = 0.0
    for b in rotated_blocks(params, u, lo, hi):
        total += b.weight * mirror_trace_norm(b.core)
        discarded += b.weight * 2.0 * b.discarded
    return BinaryTestResult(
        risk=0.5 * (1.0 - 0.5 * (total + 2.0 * skipped)),
        error_bound=0.5 * skipped + 0.25 * discarded,
    )


def limit_discrimination(u: LocalParam, mu: float) -> BinaryTestResult:
    """Optimal risk for separating the displaced thermal states at +u and -u.

    D(-z) = S D(z) S, so the state at -u is the mirror of the one at +u, in
    the same frame, and the trace norm is ``mirror_trace_norm`` of its core;
    the bound is the two rank cuts p^r.  At mu = 1 it is the closed form
    ``reference.discrimination_limit``.
    """
    phi = displaced_thermal(u, mu)
    return BinaryTestResult(
        risk=0.5 * (1.0 - 0.5 * mirror_trace_norm(phi.core)), error_bound=2.0 * phi.deficit
    )


def position_measurement_risk(u: LocalParam) -> float:
    """Risk of thresholding a single quadrature: 1/2 - erf(|u|)/2.

    Uses the half-normalized error function integral of e^{-t^2}/sqrt(pi).
    """
    return 0.5 - 0.5 * math.erf(u.norm)


def heterodyne_risk_reference(mu: float) -> float:
    """Derived closed form mu/(2 mu - 1)^2 for the heterodyne mean square
    error; mu outside (1/2, 1] raises ``DomainError``, as the risk does."""
    eigenvalue_ratio(mu)
    return mu / (2.0 * mu - 1.0) ** 2


def heterodyne_outcome_std(mu: float) -> float:
    """Per-axis standard deviation sqrt(mu/2)/(2 mu - 1) of the outcome
    density; mu outside (1/2, 1] raises ``DomainError``, as the risk does."""
    eigenvalue_ratio(mu)
    return math.sqrt(mu / 2.0) / (2.0 * mu - 1.0)


@dataclass(frozen=True)
class McSpec:
    """Seeded Monte Carlo settings: an integer seed >= 0 and an integer
    number of samples >= 2 (the error bound needs a sample spread); any
    other value raises ``DomainError``."""

    seed: int
    samples: int = 200_000

    def __post_init__(self):
        for name, low in (("seed", 0), ("samples", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise DomainError(f"Monte Carlo {name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    error_bound: float
    method: str
    mass: float          # estimated total outcome probability captured
    seed: int | None = None


def heterodyne_estimation_risk(mu: float, mc: McSpec | None = None) -> RiskEstimate:
    """Mean squared error E||u_hat - u||^2 of the heterodyne measurement.

    The outcome density is radial about u (``heterodyne_pdf_kernel``), so
    the risk does not depend on u.  Deterministic quadrature over the
    distance r in [0, R], R = 8 sigma, by default, Gauss-Legendre with
    weights 2 pi r dr; with ``mc`` given, importance sampling against a
    Gaussian proposal instead.  The density always comes from the thermal
    weights, so neither path assumes the Gaussian closed form.  Building
    the kernel first rejects mu outside (1/2, 1] before any other work.

    The quadrature bound has four terms: the resolution, from a rerun at
    half the radial order; the second moment past R of the uncut density,
    a Gaussian of std sigma per axis, e^{-R^2/2 sigma^2} (R^2 + 2 sigma^2)
    (taken with 4 sigma^2); the thermal weights past the rank cut, p^r,
    at most R^2 each inside the disk; and the rounding of a sum of
    ``QUADRATURE_ORDER`` positive terms, that many ulps of the value.
    """
    if mc is None:
        density, rank_cut = heterodyne_pdf_kernel(mu)
        sig = heterodyne_outcome_std(mu)
        radius = 8.0 * sig
        moments = []
        # resolution estimate: repeat at half the radial order
        for order in (QUADRATURE_ORDER, QUADRATURE_ORDER // 2):
            x, wx = _gauss_legendre(order)
            r = 0.5 * radius * (x + 1.0)
            w = math.pi * radius * wx * r  # 2 pi r dr on [0, radius]
            dens = density(r)
            moments.append((float(np.sum(w * r * r * dens)), float(np.sum(w * dens))))
        (value, mass), (coarse, _) = moments
        resolution = abs(coarse - value)
        tail = math.exp(-radius ** 2 / (2.0 * sig * sig))
        rounding = QUADRATURE_ORDER * 2.0 ** -52 * value
        bound = resolution + tail * (radius ** 2 + 4 * sig * sig) + rank_cut * radius ** 2 + rounding
        if bound > 0.02 * max(value, 1e-12):
            raise AccuracyError(
                f"quadrature risk error bound {bound:.3e} above 2% of value {value:.3e}"
            )
        return RiskEstimate(value=value, error_bound=bound, method="quadrature", mass=mass)
    total = squares = weight = 0.0
    for off, w in heterodyne_samples(mu, mc):
        x = (off[:, 0] ** 2 + off[:, 1] ** 2) * w
        total += float(x.sum())
        squares += float(np.square(x).sum())
        weight += float(w.sum())
    value = total / mc.samples
    mass = weight / mc.samples
    spread = max(squares - total * value, 0.0) / (mc.samples - 1)
    stderr = math.sqrt(spread / mc.samples)
    return RiskEstimate(
        value=value,
        error_bound=3.0 * stderr,
        method="monte-carlo",
        mass=mass,
        seed=mc.seed,
    )


def heterodyne_samples(mu: float, mc: McSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Importance-sampled outcome offsets u_hat - u and their weights for the
    heterodyne density, ``PDF_CHUNK`` samples per yielded
    (offsets, weights) pair.

    The density is radial about u (``heterodyne_pdf_kernel``), so the
    proposal, the weights and the risk depend on the offsets alone, and no
    u is needed.  The seeded normals are drawn a chunk at a time, which
    reproduces one draw of all the samples exactly, and the kernel is built
    once per call.
    """
    density = heterodyne_pdf_kernel(mu)[0]
    rng = default_rng(mc.seed)
    sp = MC_PROPOSAL_SCALE * heterodyne_outcome_std(mu)
    for start in range(0, mc.samples, PDF_CHUNK):
        off = rng.standard_normal((min(PDF_CHUNK, mc.samples - start), 2)) * sp
        sq = off[:, 0] ** 2 + off[:, 1] ** 2
        proposal = np.exp(-sq / (2.0 * sp * sp)) / (2.0 * math.pi * sp * sp)
        yield off, density(np.hypot(off[:, 0], off[:, 1])) / proposal


def injectivity_radius(n: int) -> float:
    """Largest |u| for which the plane point determines the sphere direction."""
    return math.pi * math.sqrt(n) / 2.0


def plane_jacobian(n: int, radii: np.ndarray) -> np.ndarray:
    """Pushforward factor (2/(sqrt(n) r)) sin(2 r / sqrt(n)), with its r -> 0 limit."""
    return (4.0 / n) * np.sinc(2.0 * np.asarray(radii, dtype=float) / (math.sqrt(n) * math.pi))


@dataclass(frozen=True)
class TvEstimate:
    """Total-variation comparison of the two measurements at one (n, u)."""

    tv_bound: float               # grid term plus worst-case excluded weight term
    grid_term: float
    concentration_deficit: float
    covariant_mass: float
    heterodyne_mass: float
    out_of_grid_bound: float


def default_tv_grid(mu: float, u: LocalParam, n: int) -> PolarGrid:
    """The TV quadrature grid at (n, u): centred at u, and inside 0.98 of
    the injectivity disk."""
    limit = 0.98 * injectivity_radius(n) - u.norm
    if limit <= 0.0:
        raise DomainError(
            f"|u| = {u.norm:.6g} is not inside 0.98 of the injectivity radius "
            f"pi sqrt(n)/2 = {injectivity_radius(n):.6g} at n = {n}"
        )
    # Gauss-Legendre radial nodes keep the quadrature error near rounding for
    # these Gaussian-tailed densities already at modest node counts
    radius = 6.0 * heterodyne_outcome_std(mu) + 3.0
    return PolarGrid(center=(u.ux, u.uy), radius=min(radius, limit), n_radial=64, n_angular=96)


class _Covariant(NamedTuple):
    """The covariant closed form's data at a set of points.

    ``log_q`` is log(1 - (1 - p) s^2) per point, with s^2 the infidelity
    between the qubit states |1/2, u_hat/sqrt(n)> and |1/2, u/sqrt(n)>;
    every block's covariant density is a power of it (``densities``).
    """

    p: float
    jac: np.ndarray
    log_q: np.ndarray

    def densities(self, twojs) -> np.ndarray:
        """Covariant densities of the rotated spin-j blocks, 2j in ``twojs``,
        as (blocks, points), from one ``exp`` over them all, in place.

        With U = U_j(u/sqrt(n)) the vector U^dag |j, w> is the spin coherent
        vector of a qubit state at infidelity s^2 from |up>, and the
        unrotated block has weights proportional to p^k, so the binomial
        theorem gives
        <j, w| U rho_j U^dag |j, w> = (1 - p)/(1 - p^(2j+1)) (1 - (1 - p) s^2)^(2j)
        (Arecchi, Courtens, Gilmore & Thomas, PRA 6, 2211, 1972).
        """
        scale = [(twoj + 1) / (4.0 * math.pi) * geometric_spectrum(self.p, twoj + 1)[0][0] for twoj in twojs]
        dens = np.asarray(twojs, dtype=float)[:, None] * self.log_q
        np.exp(dens, out=dens)
        dens *= np.array(scale)[:, None]
        dens *= self.jac
        return dens


def _covariant(params: ModelParams, u: LocalParam, pts: np.ndarray) -> _Covariant:
    n = params.n
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if radii.max() >= injectivity_radius(n):
        raise DomainError("grid leaves the injectivity disk; shrink its radius")
    sq = math.sqrt(n)
    a, b = u.norm / sq, radii / sq
    # <down| U_1/2(u/sqrt(n))^dag U_1/2(u_hat/sqrt(n)) |up>: a difference that
    # vanishes at u_hat = u, so s^2 keeps full accuracy there, where
    # 1 - |<up|...|up>|^2 would cancel
    amp = math.cos(a) * np.sin(b) * np.exp(1j * np.arctan2(pts[:, 0], -pts[:, 1]))
    amp -= math.sin(a) * np.cos(b) * np.exp(1j * u.angle)
    s2 = np.minimum(amp.real ** 2 + amp.imag ** 2, 1.0)
    # -inf only at p = 0, where every included block has 2j = n > 0
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-(1.0 - params.p) * s2)
    return _Covariant(params.p, plane_jacobian(n, radii), log_q)


def _block_density_pair(
    heterodyne: PolarHeterodyne, covariant: _Covariant, blocks: tuple[BlockState, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Covariant and pulled-back densities of a chunk of rotated blocks.

    Both are (blocks, points): the closed form ``_Covariant.densities`` at
    every point, and the grid's heterodyne kernel on the blocks' cores.  The
    heterodyne densities come first, so the kernel's temporaries are freed
    before the covariant array is allocated.
    """
    dens_h = heterodyne.densities([b.core for b in blocks])
    return covariant.densities([b.j.twoj for b in blocks]), dens_h


def _chunk_integrals(
    dens_m: np.ndarray, dens_h: np.ndarray, w: np.ndarray
) -> tuple[list[float], list[float], list[float]]:
    """Per-block integrals of a chunk's (blocks, nodes) densities against the
    node weights ``w``: |covariant - heterodyne|, covariant and heterodyne,
    each one matrix-vector product.  The difference is formed in place, in
    ``dens_m``, which the call overwrites."""
    cov, het = dens_m @ w, dens_h @ w
    np.subtract(dens_m, dens_h, out=dens_m)
    np.abs(dens_m, out=dens_m)
    return (dens_m @ w).tolist(), cov.tolist(), het.tolist()


def measurement_tv(params: ModelParams, u: LocalParam) -> TvEstimate:
    """TV comparison of the two measurements at one (n, u).

    Sums p_n(j) * integral |covariant - heterodyne| over the quadrature grid
    ``default_tv_grid`` centred at u, for the concentration set's blocks
    that occur (``qubit_model.occurring_range`` within
    ``qubit_model.concentration_range``, a contiguous range of 2j whose rank
    cuts and trimmed mass sit far below the quadrature resolution), then
    adds twice the excluded weight as the worst case contribution of the
    remaining blocks.

    Before any block is walked, the call builds the grid's nodes, the
    covariant data at them (``_covariant``), which rejects a grid past the
    injectivity disk before any rotation, and the polar kernel
    ``oscillator.PolarHeterodyne``, whose ``back`` gets a column per row the
    top block's core reaches (``irreps.core_rows``); a chunk that reaches
    further grows it.  All die on return, so a run over many points never
    holds two grids' tables at once.

    The blocks stream from one ``rotated_blocks`` walk, ``TV_CHUNK`` at a
    time from the bottom of the range, through ``_block_density_pair``, so
    the cores held do not grow with n.  Each chunk's (blocks, nodes)
    densities are reduced to per-block integrals by one matrix-vector
    product per statistic against the node weights (``_chunk_integrals``),
    |covariant - heterodyne| formed in place in the covariant array, and
    weighed into the sums in block order, so a chunk holds its two density
    arrays and no temporary of a row's size or more.
    """
    grid = default_tv_grid(params.mu, u, params.n)
    pts, w = grid.nodes()
    covariant = _covariant(params, u, pts)
    del pts  # neither the polar tables nor the walk reads the nodes
    lo, hi, _ = occurring_range(params)
    first, last = concentration_range(params)
    lo, hi = max(lo, first), min(hi, last)
    rows = core_rows(hi, u.norm / math.sqrt(params.n), effective_rank(params.p))
    heterodyne = PolarHeterodyne(grid, params.mu, rows)
    grid_term = mass_m = mass_h = included = 0.0
    blocks = rotated_blocks(params, u, lo, hi)
    while chunk := tuple(islice(blocks, TV_CHUNK)):
        # the chunk's densities and sums go before the next chunk's are formed
        for block, diff, cov, het in zip(
            chunk, *_chunk_integrals(*_block_density_pair(heterodyne, covariant, chunk), w)
        ):
            bw = block.weight
            grid_term += bw * diff
            mass_m += bw * cov
            mass_h += bw * het
            included += bw
    deficit = max(0.0, 1.0 - included)
    return TvEstimate(
        tv_bound=grid_term + 2.0 * deficit,
        grid_term=grid_term,
        concentration_deficit=deficit,
        covariant_mass=mass_m / included if included else 0.0,
        heterodyne_mass=mass_h / included if included else 0.0,
        out_of_grid_bound=max(0.0, included - mass_m) + max(0.0, included - mass_h),
    )
