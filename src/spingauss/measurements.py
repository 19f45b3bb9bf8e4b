"""Statistical consequences: discrimination, estimation risk, measurement TV.

Three experiment families live here.

* Binary discrimination between the ensembles at +u and -u: the optimal test
  projects onto the positive part of the difference, so the minimal error
  probability follows from the trace norm, blockwise for ensembles.  The
  matching oscillator limit and the single-quadrature baseline are closed
  forms.

* Heterodyne estimation risk: the mean squared error of the coherent-state
  POVM on the displaced thermal family, by deterministic quadrature or by
  seeded importance-sampling Monte Carlo, always against the numerically
  computed outcome density.

* Covariant versus pulled-back heterodyne outcome densities on each spin
  block, and their total-variation distance.

Outcome densities live on the plane of local parameters.  The covariant
measurement's outcomes are sphere directions; they are pulled to the plane
through the polar angle theta = 2|u|/sqrt(n), which is injective for
|u| < pi sqrt(n)/2, with Jacobian factor (2/(sqrt(n)|u|)) sin(2|u|/sqrt(n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AccuracyError, DomainError, ValidationError
from .irreps import HalfInteger, LocalParam, rotation_columns, _spin_coherent_rows
from .numerics import factor_difference_eigvals
from .oscillator import FockOperator, FockTruncation, PolarGrid, _coherent_rows, heterodyne_pdf
from .qubit_model import (
    NEGLIGIBLE_WEIGHT,
    EnsembleState,
    ModelParams,
    block_spectrum,
    block_weight,
    concentration_set,
    effective_rank,
    ensemble,
    ensemble_difference,
)


@dataclass(frozen=True)
class BinaryTestResult:
    """Outcome of an optimal binary discrimination."""

    risk: float
    optimal_projector_rank: int
    n: int | None = None
    u: LocalParam | None = None
    mu: float | None = None
    error_bound: float = 0.0  # skipped blocks and rank cuts; 0 for dense pairs


def helstrom_risk(rho_plus, rho_minus) -> BinaryTestResult:
    """Minimal error probability for equal priors, 1/2 (1 - ||r+ - r-||_1 / 2).

    Accepts a pair of density matrices, a pair of factor-form FockOperators
    (diagonalized on the span of their cores), or a pair of EnsembleState
    objects with identical block structure; ensembles are handled blockwise
    on their factors (``ensemble_difference``), multiplicity spaces cancel.
    """
    if isinstance(rho_plus, EnsembleState) or isinstance(rho_minus, EnsembleState):
        if not (isinstance(rho_plus, EnsembleState) and isinstance(rho_minus, EnsembleState)):
            raise ValidationError("mixing an ensemble with a bare matrix")
        diff = ensemble_difference(rho_plus, rho_minus)
        # a skipped block's true trace norm lies in [0, 2 w], and each rank
        # cut moves the trace norm by at most its discarded trace
        return BinaryTestResult(
            risk=0.5 * (1.0 - 0.5 * diff.trace_norm),
            optimal_projector_rank=diff.positive_rank,
            n=rho_plus.params.n,
            u=rho_plus.u,
            mu=rho_plus.params.mu,
            error_bound=0.5 * diff.skipped + 0.25 * diff.discarded,
        )
    pair = (rho_plus, rho_minus)
    if any(isinstance(op, FockOperator) for op in pair):
        if not all(isinstance(op, FockOperator) and op.core is not None for op in pair):
            raise ValidationError("Fock operators are compared in factor form only")
        eigs = factor_difference_eigvals(rho_plus.core, rho_minus.core, rho_plus.psi, rho_minus.psi)
    else:
        eigs = np.linalg.eigvalsh(
            np.asarray(rho_plus, dtype=complex) - np.asarray(rho_minus, dtype=complex)
        )
    tnorm = float(np.abs(eigs).sum())
    return BinaryTestResult(
        risk=0.5 * (1.0 - 0.5 * tnorm), optimal_projector_rank=int(np.sum(eigs > 0))
    )


def discrimination_limit(u: LocalParam) -> float:
    """Limit risk for the pure case: (1 - sqrt(1 - e^{-4|u|^2})) / 2."""
    return 0.5 * (1.0 - math.sqrt(-math.expm1(-4.0 * u.norm ** 2)))


def finite_n_discrimination(params: ModelParams, u: LocalParam) -> BinaryTestResult:
    """Optimal risk for separating the ensembles at +u and -u.

    The ensemble at -u is the exact mirror of the one at +u
    (U_j(-w) = S U_j(w) S), so it shares its gauge and costs no rotation.
    """
    plus = ensemble(params, u)
    return helstrom_risk(plus, plus.mirrored())


def position_measurement_risk(u: LocalParam) -> float:
    """Risk of thresholding a single quadrature: 1/2 - erf(|u|)/2.

    Uses the half-normalized error function integral of e^{-t^2}/sqrt(pi).
    """
    return 0.5 - 0.5 * math.erf(u.norm)


def heterodyne_risk_reference(mu: float) -> float:
    """Derived closed form mu/(2 mu - 1)^2 for the heterodyne mean square error."""
    return mu / (2.0 * mu - 1.0) ** 2


def heterodyne_outcome_std(mu: float) -> float:
    """Per-axis standard deviation sqrt(mu/2)/(2 mu - 1) of the outcome density."""
    return math.sqrt(mu / 2.0) / (2.0 * mu - 1.0)


@dataclass(frozen=True)
class McSpec:
    """Seeded Monte Carlo settings; the proposal scale multiplies the outcome std."""

    seed: int
    samples: int = 200_000
    proposal_scale: float = 1.6


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    error_bound: float
    method: str
    mass: float          # estimated total outcome probability captured
    seed: int | None = None


def _risk_truncation(mu: float, u: LocalParam, radius: float) -> FockTruncation:
    reach = (math.sqrt(2.0 * mu - 1.0) * (u.norm + radius) + 6.0) ** 2
    p = (1.0 - mu) / mu
    dim_thermal = 1 if p == 0 else math.ceil(math.log(1e-10) / math.log(p))
    return FockTruncation(max(32, math.ceil(reach), dim_thermal))


def heterodyne_estimation_risk(
    mu: float,
    u: LocalParam = LocalParam(0.0, 0.0),
    quad: PolarGrid | None = None,
    mc: McSpec | None = None,
    trunc: FockTruncation | None = None,
) -> RiskEstimate:
    """Mean squared error E||u_hat - u||^2 of the heterodyne measurement.

    Deterministic quadrature of the computed outcome density by default; with
    ``mc`` given, importance sampling against a Gaussian proposal instead.
    The outcome density itself always comes from the truncated operators, so
    neither path assumes the Gaussian closed form.
    """
    sig = heterodyne_outcome_std(mu)
    if quad is None:
        quad = PolarGrid(center=(u.ux, u.uy), radius=8.0 * sig, n_radial=160, n_angular=128)
    if mc is None:
        if trunc is None:
            trunc = _risk_truncation(mu, u, quad.radius)
        pts, w = quad.nodes()
        dens = heterodyne_pdf(pts, u, mu, trunc)
        sq = (pts[:, 0] - u.ux) ** 2 + (pts[:, 1] - u.uy) ** 2
        value = float(np.sum(w * sq * dens))
        mass = float(np.sum(w * dens))
        # resolution estimate: repeat at half the radial order
        coarse = PolarGrid(quad.center, quad.radius, max(2, quad.n_radial // 2), quad.n_angular)
        cpts, cw = coarse.nodes()
        cdens = heterodyne_pdf(cpts, u, mu, trunc)
        csq = (cpts[:, 0] - u.ux) ** 2 + (cpts[:, 1] - u.uy) ** 2
        resolution = abs(float(np.sum(cw * csq * cdens)) - value)
        tail = math.exp(-quad.radius ** 2 / (2.0 * sig * sig))
        bound = resolution + tail * (quad.radius ** 2 + 4 * sig * sig) + (1.0 - mass) * quad.radius ** 2
        if bound > 0.02 * max(value, 1e-12):
            raise AccuracyError(
                f"quadrature risk error bound {bound:.3e} above 2% of value {value:.3e}"
            )
        return RiskEstimate(value=value, error_bound=bound, method="quadrature", mass=mass)
    pts, weights = heterodyne_samples(mu, u, mc, trunc)
    sq = (pts[:, 0] - u.ux) ** 2 + (pts[:, 1] - u.uy) ** 2
    vals = sq * weights
    value = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(mc.samples))
    return RiskEstimate(
        value=value,
        error_bound=3.0 * stderr,
        method="monte-carlo",
        mass=float(weights.mean()),
        seed=mc.seed,
    )


def heterodyne_samples(
    mu: float, u: LocalParam, mc: McSpec, trunc: FockTruncation | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Importance-sampled outcome points and weights for the heterodyne density."""
    rng = np.random.default_rng(mc.seed)
    sig = heterodyne_outcome_std(mu)
    sp = mc.proposal_scale * sig
    pts = rng.standard_normal((mc.samples, 2)) * sp + np.array([u.ux, u.uy])
    sq = (pts[:, 0] - u.ux) ** 2 + (pts[:, 1] - u.uy) ** 2
    proposal = np.exp(-sq / (2.0 * sp * sp)) / (2.0 * math.pi * sp * sp)
    if trunc is None:
        trunc = _risk_truncation(mu, u, math.sqrt(sq.max()))
    dens = heterodyne_pdf(pts, u, mu, trunc)
    return pts, dens / proposal


def injectivity_radius(n: int) -> float:
    """Largest |u| for which the plane point determines the sphere direction."""
    return math.pi * math.sqrt(n) / 2.0


def plane_jacobian(n: int, radii: np.ndarray) -> np.ndarray:
    """Pushforward factor (2/(sqrt(n) r)) sin(2 r / sqrt(n)), with its r -> 0 limit."""
    return (4.0 / n) * np.sinc(2.0 * np.asarray(radii, dtype=float) / (math.sqrt(n) * math.pi))


def _as_points(u_hat) -> tuple[np.ndarray, bool]:
    if isinstance(u_hat, LocalParam):
        return np.array([[u_hat.ux, u_hat.uy]]), True
    pts = np.asarray(u_hat, dtype=float)
    if pts.ndim == 1:
        return pts.reshape(1, 2), True
    return pts.reshape(-1, 2), False


def covariant_block_density(j: HalfInteger, n: int, rho_j: np.ndarray, u_hat):
    """Outcome density of the covariant block measurement on the plane.

    (2j+1)/(4 pi) <j, u/sqrt(n)| rho_j |j, u/sqrt(n)> times the plane Jacobian.
    Integrating over the disk |u| < pi sqrt(n)/2 against d^2 u resolves the
    identity, so a unit-trace block yields total mass one.
    """
    pts, scalar = _as_points(u_hat)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if np.any(radii >= injectivity_radius(n)):
        raise DomainError(
            f"|u_hat| must stay below pi sqrt(n)/2 = {injectivity_radius(n):.3f}"
        )
    sq = math.sqrt(n)
    rows = _spin_coherent_rows(j.twoj, pts[:, 0] / sq, pts[:, 1] / sq, j.dim)
    rho = np.asarray(rho_j, dtype=complex)
    vals = np.einsum("gi,ij,gj->g", rows.conj(), rho, rows).real
    dens = (j.dim / (4.0 * math.pi)) * vals * plane_jacobian(n, radii)
    return float(dens[0]) if scalar else dens


def heterodyne_pullback_density(
    j: HalfInteger, rho_j: np.ndarray, mu: float, u_hat, trunc: FockTruncation | None = None
):
    """Heterodyne outcome density pulled back through the block embedding.

    Only the coherent components inside the block's image contribute:
    (2 mu - 1)/pi |<z_uhat| V_j rho V_j^dag |z_uhat>| truncated to 2j+1 rows.
    Wrap-around copies of the density sit at distance 2 pi sqrt(n) and are
    dropped; their Gaussian bound is far below every tolerance used here.
    """
    pts, scalar = _as_points(u_hat)
    z = math.sqrt(2.0 * mu - 1.0) * (-pts[:, 1] + 1j * pts[:, 0])
    rows = _coherent_rows(z, j.dim)
    rho = np.asarray(rho_j, dtype=complex)
    vals = np.einsum("gi,ij,gj->g", rows.conj(), rho, rows).real
    dens = (2.0 * mu - 1.0) / math.pi * vals
    return float(dens[0]) if scalar else dens


@dataclass(frozen=True)
class OutcomeDensityField:
    """Both outcome densities over one grid, with block weights, for one (n, u)."""

    n: int
    mu: float
    u: LocalParam
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    covariant: np.ndarray = field(repr=False)
    heterodyne: np.ndarray = field(repr=False)
    block_weights: tuple[float, ...]


@dataclass(frozen=True)
class TvEstimate:
    """Total-variation comparison of the two measurements at one (n, u)."""

    n: int
    mu: float
    u: LocalParam
    tv_bound: float               # grid term plus worst-case excluded weight term
    grid_term: float
    concentration_deficit: float
    covariant_mass: float
    heterodyne_mass: float
    out_of_grid_bound: float


def default_tv_grid(mu: float, u: LocalParam, n_min: int) -> PolarGrid:
    # Gauss-Legendre radial nodes keep the quadrature error near rounding for
    # these Gaussian-tailed densities already at modest node counts
    sig = heterodyne_outcome_std(mu)
    radius = 6.0 * sig + 3.0
    limit = 0.98 * injectivity_radius(n_min) - u.norm
    return PolarGrid(center=(u.ux, u.uy), radius=min(radius, limit), n_radial=64, n_angular=96)


def _row_support(peak: float, dim: int) -> int:
    return min(dim, math.ceil(peak + 10.0 * math.sqrt(peak + 4.0) + 25.0))


def _concentration_weights(params: ModelParams) -> tuple[tuple[HalfInteger, float], ...]:
    """(j, p_n(j)) over the concentration set, ascending j."""
    return tuple((j, block_weight(params, j)) for j in concentration_set(params))


class _Block(NamedTuple):
    """An included block: spin, weight and the real core of its rotation
    columns (only the rows the propagator reaches)."""

    j: HalfInteger
    weight: float
    cols: np.ndarray


@dataclass(frozen=True)
class _TvGrid:
    """Everything one (n, u) grid shares across its blocks.

    ``log_q`` is log(1 - (1 - p) s^2) per point, with s^2 the infidelity
    between the qubit states |1/2, u_hat/sqrt(n)> and |1/2, u/sqrt(n)>; every
    block's covariant density is a power of it (``_block_density_pair``).
    ``coh`` holds the coherent rows in the blocks' gauge u.angle, in the real
    layout [Re; Im] (``oscillator._coherent_rows``).
    """

    params: ModelParams
    jac: np.ndarray
    log_q: np.ndarray
    coh: np.ndarray
    blocks: tuple[_Block, ...]


def _tv_grid(
    params: ModelParams,
    u: LocalParam,
    pts: np.ndarray,
    block_weights: tuple[tuple[HalfInteger, float], ...],
) -> _TvGrid:
    n, mu = params.n, params.mu
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if radii.max() >= injectivity_radius(n):
        raise DomainError("grid leaves the injectivity disk; shrink its radius")
    zmag = math.sqrt(2.0 * mu - 1.0) * radii.max()
    z = math.sqrt(2.0 * mu - 1.0) * (-pts[:, 1] + 1j * pts[:, 0])
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
    w = u.scaled(1.0 / sq)
    blocks = tuple(
        _Block(j, bw, rotation_columns(j, w, cols=effective_rank(params.p, j.dim)))
        for j, bw in block_weights
        if bw > NEGLIGIBLE_WEIGHT
    )
    return _TvGrid(
        params=params,
        jac=plane_jacobian(n, radii),
        log_q=log_q,
        coh=_coherent_rows(z, _row_support(zmag * zmag, n + 1), gauge=u.angle),
        blocks=blocks,
    )


def _block_density_pair(tv: _TvGrid, block: _Block) -> tuple[np.ndarray, np.ndarray]:
    """Covariant and pulled-back densities of the rotated block.

    Covariant side in closed form: with U = U_j(u/sqrt(n)) the vector
    U^dag |j, w> is the spin coherent vector of a qubit state at infidelity
    s^2 from |up>, and the unrotated block has weights proportional to p^k,
    so the binomial theorem gives
    <j, w| U rho_j U^dag |j, w> = (1 - p)/(1 - p^(2j+1)) (1 - (1 - p) s^2)^(2j)
    (Arecchi, Courtens, Gilmore & Thomas, PRA 6, 2211, 1972).  Heterodyne
    side: the rotated block is rebuilt from the real core of its leading
    rotation columns, and the gauged coherent rows are contracted with it
    over the rows the core reaches, one real product; the rank cut sits at
    the 1e-15 level, far below the quadrature resolution.
    """
    cols = block.cols
    d = block.j.dim
    lam = block_spectrum(tv.params.p, d, cols.shape[1])
    dens_m = (d / (4.0 * math.pi)) * lam[0] * np.exp(block.j.twoj * tv.log_q) * tv.jac
    rows_h = min(cols.shape[0], tv.coh.shape[1])
    b_h = tv.coh[:, :rows_h] @ cols[:rows_h, :]
    b_h *= b_h
    points = len(tv.jac)
    b_h[:points] += b_h[points:]
    dens_h = (2.0 * tv.params.mu - 1.0) / math.pi * (b_h[:points] @ lam)
    return dens_m, dens_h


def outcome_density_field(
    params: ModelParams, u: LocalParam, grid: PolarGrid | None = None
) -> OutcomeDensityField:
    """Mixture outcome densities over the concentration set on one grid."""
    if grid is None:
        grid = default_tv_grid(params.mu, u, params.n)
    pts, w = grid.nodes()
    block_weights = _concentration_weights(params)
    tv = _tv_grid(params, u, pts, block_weights)
    total_m = np.zeros(len(pts))
    total_h = np.zeros(len(pts))
    for block in tv.blocks:
        dens_m, dens_h = _block_density_pair(tv, block)
        total_m += block.weight * dens_m
        total_h += block.weight * dens_h
    return OutcomeDensityField(
        n=params.n,
        mu=params.mu,
        u=u,
        points=pts,
        weights=w,
        covariant=total_m,
        heterodyne=total_h,
        block_weights=tuple(bw for _, bw in block_weights),
    )


def measurement_tv_distance(
    params: ModelParams, u: LocalParam, grid: PolarGrid | None = None
) -> TvEstimate:
    """Weighted total variation between the two outcome densities at one (n, u).

    The sweep kernel run over a single point; see ``measurement_tv_sweep``.
    """
    grids = None if grid is None else {(params.n, u): grid}
    return measurement_tv_sweep(params.mu, (params.n,), (u,), params.epsilon, grids)[0]


def measurement_tv_sweep(
    mu: float,
    n_values: tuple[int, ...],
    u_list: tuple[LocalParam, ...],
    epsilon: float = 0.1,
    grids: dict | None = None,
) -> list[TvEstimate]:
    """TV comparison of the two measurements over an (n, u) grid.

    Sums p_n(j) * integral |covariant - heterodyne| over the grid for spins in
    the concentration set, then adds twice the excluded weight as the worst
    case contribution of the remaining blocks.  Block weights are evaluated
    once per n; the grid, its coherent rows and its qubit infidelities once
    per (n, u).
    """
    out = []
    for n in n_values:
        params = ModelParams(n, mu, epsilon)
        block_weights = _concentration_weights(params)
        for u in u_list:
            grid = (grids or {}).get((n, u)) or default_tv_grid(mu, u, n)
            pts, w = grid.nodes()
            tv = _tv_grid(params, u, pts, block_weights)
            grid_term = 0.0
            mass_m = 0.0
            mass_h = 0.0
            included = 0.0
            for block in tv.blocks:
                bw = block.weight
                dens_m, dens_h = _block_density_pair(tv, block)
                grid_term += bw * float(np.sum(w * np.abs(dens_m - dens_h)))
                mass_m += bw * float(np.sum(w * dens_m))
                mass_h += bw * float(np.sum(w * dens_h))
                included += bw
            deficit = max(0.0, 1.0 - included)
            out.append(
                TvEstimate(
                    n=n,
                    mu=mu,
                    u=u,
                    tv_bound=grid_term + 2.0 * deficit,
                    grid_term=grid_term,
                    concentration_deficit=deficit,
                    covariant_mass=mass_m / included if included else 0.0,
                    heterodyne_mass=mass_h / included if included else 0.0,
                    out_of_grid_bound=max(0.0, included - mass_m) + max(0.0, included - mass_h),
                )
            )
    return out
