"""SU(2) irreducible representation machinery.

Basis convention used everywhere in this package: the spin-j block is spanned
by the weight vectors ordered by *descending* magnetic number, so array index
``i`` holds |j, m = j - i>.  With that ordering the embedding of a block into
the oscillator's number basis (|j, m> -> |j - m>) is the identity on indices.

Rotation convention: ``rotation_unitary(j, u)`` is the restriction to the
spin-j block of the product rotation exp(i(u_x s_x + u_y s_y))^(tensor n)
acting on the underlying qubits, where s_x, s_y are Pauli matrices.  The
collective generators are therefore twice the spin matrices returned by
``ladder_ops``; at j = 1/2 this reproduces the one-qubit closed form

    [[cos|u|, -e^{-i phi} sin|u|], [e^{i phi} sin|u|, cos|u|]]

with phi = Arg(-u_y + i u_x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import tridiagonal_propagator, unitary_exp


@dataclass(frozen=True, order=True)
class HalfInteger:
    """Total spin j, stored exactly as the integer 2j."""

    twoj: int

    def __post_init__(self):
        if not isinstance(self.twoj, (int, np.integer)) or self.twoj < 0:
            raise DomainError(f"twoj must be a nonnegative integer, got {self.twoj!r}")
        object.__setattr__(self, "twoj", int(self.twoj))

    @classmethod
    def from_value(cls, j: float) -> "HalfInteger":
        twoj = round(2 * j)
        if abs(2 * j - twoj) > 1e-9:
            raise DomainError(f"{j!r} is not a half-integer")
        return cls(twoj)

    @property
    def value(self) -> float:
        return self.twoj / 2.0

    @property
    def dim(self) -> int:
        """Dimension 2j + 1 of the spin-j irreducible representation."""
        return self.twoj + 1

    def __str__(self) -> str:
        return str(self.twoj // 2) if self.twoj % 2 == 0 else f"{self.twoj}/2"


@dataclass(frozen=True)
class LocalParam:
    """Local rotation parameter u = (u_x, u_y) in the plane."""

    ux: float
    uy: float

    def __post_init__(self):
        if not (math.isfinite(self.ux) and math.isfinite(self.uy)):
            raise DomainError(f"local parameter must be finite, got ({self.ux}, {self.uy})")

    @property
    def norm(self) -> float:
        return math.hypot(self.ux, self.uy)

    @property
    def alpha(self) -> complex:
        """The associated phase-space amplitude -u_y + i u_x."""
        return complex(-self.uy, self.ux)

    @property
    def angle(self) -> float:
        """Arg(-u_y + i u_x); by convention 0 at u = 0 (only ever used through
        zeta = e^{i angle} sin|u|, which vanishes there).

        It is also the gauge angle psi of every rotated state at u: rotated
        blocks and the displaced thermal state are real cores under the
        diagonal phase e^{ik psi}."""
        if self.norm == 0.0:
            return 0.0
        return math.atan2(self.ux, -self.uy)

    def scaled(self, factor: float) -> "LocalParam":
        return LocalParam(self.ux * factor, self.uy * factor)

    def __neg__(self) -> "LocalParam":
        return LocalParam(-self.ux, -self.uy)

    def __add__(self, other: "LocalParam") -> "LocalParam":
        return LocalParam(self.ux + other.ux, self.uy + other.uy)


def ladder_ops(j: HalfInteger) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (J+, J-, Jz) of dimension 2j + 1 in the descending-m basis.

    J+|j,m> = sqrt(j - m) sqrt(j + m + 1) |j,m+1>, J- is its adjoint and
    Jz|j,m> = m |j,m>.
    """
    tj = j.twoj
    d = tj + 1
    i = np.arange(1, d)
    # raising entry <m+1|J+|m> lands on the superdiagonal in descending-m order
    amp = np.sqrt(i * (tj + 1.0 - i))
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(d - 1), np.arange(1, d)] = amp
    jm = jp.conj().T
    jz = np.diag((tj - 2.0 * np.arange(d)) / 2.0).astype(complex)
    return jp, jm, jz


def rotation_generator(j: HalfInteger, u: LocalParam) -> np.ndarray:
    """Hermitian generator of the collective x-y rotation on the spin-j block.

    Equals u_x X_j + u_y Y_j with X_j = J+ + J-, Y_j = (J+ - J-)/i, the
    restrictions of the collective Pauli sums (twice the spin matrices).
    """
    jp, jm, _ = ladder_ops(j)
    jx = (jp + jm) / 2.0
    jy = (jp - jm) / 2.0j
    return 2.0 * (u.ux * jx + u.uy * jy)


def rotation_unitary(j: HalfInteger, u: LocalParam) -> np.ndarray:
    """U_j(u): unitary exp of the collective rotation generator.

    Dense route through an eigendecomposition of the (2j+1)-dimensional
    generator, kept as the reference for ``rotation_columns``.
    """
    return unitary_exp(rotation_generator(j, u))


def rotation_columns(j: HalfInteger, u: LocalParam, cols: int) -> np.ndarray:
    """Real core of the leading ``cols`` columns of rotation_unitary(j, u).

    The generator is gauge-equivalent, via the diagonal phase
    e^{ik atan2(u_y, u_x)}, to |u| times the fixed tridiagonal x generator X_j
    with couplings sqrt(i (2j + 1 - i)), so the columns come from the
    Chebyshev propagator without any eigendecomposition:

        rotation_unitary(j, u)[r, c] = e^{i(r-c) psi} M[r, c]

    with psi = u.angle and M the real matrix returned here, which depends on
    |u| only.  U_j(-u) is then S U_j(u) S with S = diag((-1)^k).  Only the
    rows the columns reach are returned (at most 2j + 1); rows past them are
    zero to the propagator's accuracy.
    """
    return tridiagonal_propagator(
        lambda i: np.sqrt(i * (j.twoj + 1.0 - i)), u.norm, cols, size=j.dim
    )


def spin_coherent_coords(j: HalfInteger, w: LocalParam) -> np.ndarray:
    """Coordinates of the spin coherent vector |j, w> = U_j(w)|j, j>.

    In the descending-m convention entry k is
    sqrt(C(2j, k)) zeta^k (1 - |zeta|^2)^{(2j-k)/2} with
    zeta = e^{i phi} sin|w|, phi = Arg(-w_y + i w_x).  Binomial coefficients
    are evaluated in log space so the formula stays finite up to 2j ~ 4000.
    """
    r = w.norm
    if r >= math.pi / 2:
        raise DomainError(f"|w| = {r:.6f} outside the principal branch |w| < pi/2")
    d = j.dim
    if r == 0.0:
        out = np.zeros(d, dtype=complex)
        out[0] = 1.0
        return out
    return _spin_coherent_rows(j.twoj, np.array([w.ux]), np.array([w.uy]), d)[0]


def _spin_coherent_rows(twoj: int, wx: np.ndarray, wy: np.ndarray, num_rows: int) -> np.ndarray:
    """Vectorized spin coherent amplitudes: shape (points, num_rows).

    Rows beyond num_rows are dropped; callers choose num_rows so the dropped
    amplitudes are below their tolerance.
    """
    r = np.hypot(wx, wy)
    if np.any(r >= math.pi / 2):
        raise DomainError("spin coherent coordinates need |w| < pi/2")
    phi = np.arctan2(wx, -wy)
    k = np.arange(num_rows)
    # log sqrt(C(2j, k)) as a running sum of log((2j - i)/(i + 1)): the
    # difference of gammaln values near 2j would lose 1e-12 at 2j ~ 2000
    with np.errstate(divide="ignore"):  # rows past 2j have C(2j, k) = 0
        steps = np.log(np.maximum(twoj - k[:-1], 0) / (k[:-1] + 1.0))
    logbin = 0.5 * np.concatenate(([0.0], np.cumsum(steps)))
    out = np.zeros((len(r), num_rows), dtype=complex)
    pos = r > 0
    if np.any(pos):
        with np.errstate(divide="ignore"):  # sin/cos logs are finite for 0 < r < pi/2
            ls = np.log(np.sin(r[pos]))[:, None]
            lc = np.log(np.cos(r[pos]))[:, None]
        amp = np.exp(logbin[None, :] + k[None, :] * ls + (twoj - k)[None, :] * lc)
        # phases e^{i k phi} as a running product of the unit step e^{i phi};
        # a real exponential plus complex multiplies beats a complex exp per
        # entry, and the |q| = 1 drift stays orders below the amplitudes' own
        # rounding for any realistic row count
        phases = np.empty((int(pos.sum()), num_rows), dtype=complex)
        phases[:, 0] = 1.0
        if num_rows > 1:
            phases[:, 1:] = np.exp(1j * phi[pos])[:, None]
            np.cumprod(phases[:, 1:], axis=1, out=phases[:, 1:])
        out[pos] = amp * phases
    out[~pos, 0] = 1.0
    return out
