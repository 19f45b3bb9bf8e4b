"""Linear algebra primitives shared by all other modules.

Everything operates on plain numpy arrays.  Matrices that are supposed to be
Hermitian are validated rather than trusted: every density matrix in the
pipeline is the end product of a long chain of rotations, embeddings and
quadratures, and silent asymmetry is the most common way those chains go
wrong.

Two structured routines carry the rotated states.  ``tridiagonal_propagator``
applies the exponential of a phase-gauged tridiagonal generator to the first
few unit vectors (spin rotations and oscillator displacements are both of
this form).  The generator is bipartite, so the result is a real matrix under
a diagonal phase gauge e^{ik psi}, and it is returned as that real core.
``factor_difference_eigvals`` diagonalizes F F^dag - G G^dag on the span of
the two low-rank factors instead of on the full space, in real arithmetic
when both share a gauge.

All tolerances are absolute on matrices pre-normalized to unit trace, so the
distances reported downstream carry no hidden scaling.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg
from scipy.special import jv

from .errors import ValidationError

# Relative asymmetry (against the largest entry) accepted as rounding noise.
HERMITICITY_RTOL = 1e-12
# Negative eigenvalues of nominally PSD matrices down to this are clamped to
# zero; anything below is treated as a genuinely invalid state.
PSD_REJECT = -1e-8
# Chebyshev terms with |J_k(t s)| at or below this are dropped: far below the
# rounding of the O(1) entries the propagator returns.
CHEBYSHEV_TOL = 1e-18


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """``a`` as a real array if it is real, else as a complex one."""
    a = np.asarray(a)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def validate_hermitian(h, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Return ``h`` as an array (``as_square_matrix``), or raise naming the worst entry."""
    h = as_square_matrix(h, "hermitian matrix")
    asym = np.abs(h - h.conj().T)
    scale = max(np.abs(h).max(), 1.0)
    worst = np.unravel_index(np.argmax(asym), asym.shape)
    if asym[worst] > rtol * scale:
        row, col = int(worst[0]), int(worst[1])
        raise ValidationError(
            f"matrix is not Hermitian: |H - H^dag| = {asym[worst]:.3e} at entry "
            f"({row}, {col}) exceeds {rtol:.1e} * max|H| = {rtol * scale:.3e}"
        )
    return h


def hermitian_eig(h) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted ascending."""
    h = validate_hermitian(h)
    w, v = np.linalg.eigh(h)
    return EigenSystem(w, v)


def unitary_exp(h) -> np.ndarray:
    """exp(i*h) for Hermitian h, via eigendecomposition.

    The eigendecomposition route keeps the result unitary up to eigensolver
    accuracy, which a truncated series would not.
    """
    w, v = hermitian_eig(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _is_hermitian(a: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    scale = max(np.abs(a).max(), 1.0)
    return bool(np.abs(a - a.conj().T).max() <= rtol * scale)


def trace_norm(a) -> float:
    """Trace norm: sum of |eigenvalues| for Hermitian input, else singular values."""
    a = as_square_matrix(a)
    if _is_hermitian(a):
        return float(np.abs(np.linalg.eigvalsh(a)).sum())
    return float(scipy.linalg.svdvals(a).sum())


def _chebyshev_degree(a: float) -> int:
    """Smallest K with |J_k(a)| <= CHEBYSHEV_TOL for every k >= K.

    Past k ~ a the Bessel coefficients decay super-exponentially; the
    evaluated range reaches 20 transition widths a^(1/3) beyond a.
    """
    if a == 0.0:
        return 0
    k = np.arange(math.ceil(a + 20.0 * a ** (1.0 / 3.0) + 40.0))
    return int(np.nonzero(np.abs(jv(k, a)) > CHEBYSHEV_TOL)[0][-1]) + 1


def tridiagonal_propagator(
    off: Callable[[np.ndarray], np.ndarray],
    t: float,
    cols: int,
    size: int | None = None,
) -> np.ndarray:
    """Leading columns of the real propagator exp(t A), the gauge of exp(i t T).

    T is the real symmetric tridiagonal matrix of order ``size`` (None:
    unbounded) with zero diagonal and T[i-1, i] = T[i, i-1] = off(i), where
    ``off`` maps an index array i = 1, 2, ... to the couplings.  T is
    bipartite, so with G = diag(i^k) the gauge A = G^-1 (i T) G is real and
    antisymmetric, A[i, i-1] = -A[i-1, i] = off(i), and

        exp(i t T)[r, c] = i^(r-c) exp(t A)[r, c].

    A further phase gauge diag(e^{ik phi}) exp(i t T) diag(e^{-ik phi}) is
    therefore e^{i(r-c) psi} exp(t A)[r, c] with psi = phi + pi/2: every
    phase-gauged propagator is this real matrix under one diagonal phase.

    The action on the first ``cols`` unit vectors is the Chebyshev series
    (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 1984) of exp(i t T) carried
    through the gauge: with Q_k = i^k G^-1 T_k(T / s) G, which obeys the real
    recurrence Q_{k+1} = (2 A / s) Q_k + Q_{k-1}, exp(t A) = sum_k eps_k
    J_k(t s) Q_k.  A degree-K polynomial of a tridiagonal matrix moves e_c
    by at most K rows, so the series only touches the leading cols + K rows,
    and s is the Gershgorin bound of the leading cols + K + 1 rows (coupling
    to the next row included), found together with K by fixed-point
    iteration.  Only those cols + K rows are returned; every row past them is
    zero to the series accuracy.
    """
    cap = math.inf if size is None else size
    cols = min(cols, cap)
    degree = 0
    while True:
        rows = min(cap, cols + degree + 1)
        b = off(np.arange(1, rows + (rows < cap)))
        radius = np.zeros(rows)
        radius[1:] += b[: rows - 1]
        radius[: len(b)] += b[:rows]
        scale = float(radius.max())
        need = _chebyshev_degree(t * scale)
        if need <= degree:
            break
        degree = need
    rows = min(cap, cols + degree)
    coef = jv(np.arange(degree + 1), t * scale)
    coef[1:] *= 2.0
    basis = np.zeros((degree + 1, rows, cols))
    basis[0, :cols] = np.eye(cols)
    if degree:
        b = (off(np.arange(1, rows)) / scale)[:, None]
        basis[1, 1:] = b * basis[0, :-1]
        basis[1, :-1] -= b * basis[0, 1:]
        b2 = 2.0 * b
        for m in range(2, degree + 1):
            h = min(rows, cols + m)  # Q_m e_c reaches row c + m at most
            cur, nxt = basis[m - 1], basis[m]
            nxt[:h] = basis[m - 2, :h]
            nxt[1:h] += b2[: h - 1] * cur[: h - 1]
            nxt[: h - 1] -= b2[: h - 1] * cur[1:h]
    return np.tensordot(coef, basis, axes=1)


def gauge_phases(psi: float, count: int) -> np.ndarray:
    """The diagonal e^{ik psi}, k = 0 .. count - 1, of a phase gauge."""
    return np.exp(1j * psi * np.arange(count))


def mirror_rows(core: np.ndarray) -> np.ndarray:
    """S core with S = diag((-1)^k): the gauge angle moved by pi."""
    out = core.copy()
    out[1::2] = -out[1::2]
    return out


def factor_difference_eigvals(
    f: np.ndarray, g: np.ndarray, psi_f: float = 0.0, psi_g: float = 0.0
) -> np.ndarray:
    """Spectrum of F F^dag - G G^dag on the span of [F G], ascending.

    ``f`` and ``g`` are cores in the phase gauges ``psi_f`` and ``psi_g``:
    F = diag(e^{ik psi_f}) f, and likewise G.  These are its nonzero
    eigenvalues plus zeros, so the sum of their absolute values is the trace
    norm of the difference.  A common gauge is a unitary that leaves the
    spectrum alone, so equal angles diagonalize the cores as they are (in
    real arithmetic for real cores), and angles pi apart differ by the row
    sign flip ``mirror_rows``; only other pairs are brought to complex
    factors.  The cores hold the leading rows of their operators (missing
    rows are zero), so they may differ in row count.  After a QR of the
    stacked cores the difference is diagonalized as
    (Q^dag f)(Q^dag f)^dag - (Q^dag g)(Q^dag g)^dag, at most
    (rank F + rank G)-dimensional.  Equal factors give exactly zero, because
    both products are then computed from identical operands.
    """
    if psi_g == psi_f + math.pi or psi_f == psi_g + math.pi:
        g = mirror_rows(g)
    elif psi_g != psi_f:
        f = gauge_phases(psi_f, f.shape[0])[:, None] * f
        g = gauge_phases(psi_g, g.shape[0])[:, None] * g
    rows = max(f.shape[0], g.shape[0])
    dtype = np.result_type(f, g, float)
    fp = np.zeros((rows, f.shape[1]), dtype=dtype)
    gp = np.zeros((rows, g.shape[1]), dtype=dtype)
    fp[: f.shape[0]] = f
    gp[: g.shape[0]] = g
    q, _ = np.linalg.qr(np.hstack([fp, gp]))
    qh = q.conj().T
    a = qh @ fp
    b = qh @ gp
    return np.linalg.eigvalsh(a @ a.conj().T - b @ b.conj().T)


def _psd_eig(rho) -> EigenSystem:
    """Eigensystem of a PSD matrix with small negative eigenvalues clamped."""
    w, v = hermitian_eig(rho)
    if w[0] < PSD_REJECT:
        raise ValidationError(
            f"matrix is not positive semidefinite: eigenvalue {w[0]:.3e} below {PSD_REJECT:.1e}"
        )
    return EigenSystem(np.clip(w, 0.0, None), v)


def psd_factor(rho) -> np.ndarray:
    """F with F F^dag = rho, one column per positive eigenvalue."""
    w, v = _psd_eig(rho)
    keep = w > 0.0
    return v[:, keep] * np.sqrt(w[keep])


def _psd_root(rho) -> np.ndarray:
    """Matrix square root of a PSD matrix with eigenvalue clamping."""
    w, v = _psd_eig(rho)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity of two density matrices, as a value in [0, 1].

    Computed as the trace norm of sqrt(rho) @ sqrt(sigma), which is symmetric
    in the arguments by construction.
    """
    r = _psd_root(rho)
    s = _psd_root(sigma)
    for m, label in ((rho, "rho"), (sigma, "sigma")):
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-6:
            raise ValidationError(f"{label} must have unit trace, got {tr!r}")
    f = float(scipy.linalg.svdvals(r @ s).sum())
    return min(max(f, 0.0), 1.0)
