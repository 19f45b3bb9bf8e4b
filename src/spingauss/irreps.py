"""SU(2) irreducible representation machinery.

Basis convention used everywhere in this package: the spin-j block is spanned
by the weight vectors ordered by *descending* magnetic number, so array index
``i`` holds |j, m = j - i>.  With that ordering the embedding of a block into
the oscillator's number basis (|j, m> -> |j - m>) is the identity on indices.

Rotation convention: the rotation U_j(u) is the restriction to the spin-j
block of the product rotation exp(i(u_x s_x + u_y s_y))^(tensor n) acting
on the underlying qubits, where s_x, s_y are Pauli matrices.  The
collective generators are therefore twice the spin matrices; at j = 1/2
this reproduces the one-qubit closed form

    [[cos|u|, -e^{-i phi} sin|u|], [e^{i phi} sin|u|, cos|u|]]

with phi = Arg(-u_y + i u_x).  ``rotation_columns`` returns the leading
columns of U_j(u) as a real core: they are Krawtchouk functions, which the
column kernel ``numerics.three_term_columns`` runs from the spin coherent
vector.  ``rotation_walk`` returns those cores for a whole range of spins at
one rotation: it starts with one ``rotation_columns`` call at the lowest spin
and climbs in half-steps of j by Clebsch-Gordan coupling to one more qubit,
so the blocks of one (n, u) share a single kernel call.  The dense U_j(u) is
``spingauss.reference.rotation_unitary``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import coherent_row_support, gauge_phases, mirror_rows, three_term_columns, trim_rows


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

        It is also the angle of u's frame, which every state built at u is
        stored in (``qubit_model``): rotated blocks and the displaced thermal
        state are real cores there, and the diagonal phase e^{ik angle}
        takes them back to the plane's fixed frame."""
        if self.norm == 0.0:
            return 0.0
        return math.atan2(self.ux, -self.uy)

    def scaled(self, factor: float) -> "LocalParam":
        return LocalParam(self.ux * factor, self.uy * factor)

    def __neg__(self) -> "LocalParam":
        return LocalParam(-self.ux, -self.uy)

    def __add__(self, other: "LocalParam") -> "LocalParam":
        return LocalParam(self.ux + other.ux, self.uy + other.uy)


def _krawtchouk_columns(twoj: int, w: float, cols: int) -> np.ndarray:
    """The real core of U_j(w)[:, :cols] at 0 <= w <= pi/4 (``rotation_columns``).

    The recurrence runs the columns k <= j; a column k > j is
    M[x, k] = (-1)^(x+k) M[2j - x, 2j - k] (M commutes with R = U_j(pi/2)),
    since past k = j the recurrence loses its growth on the last rows.
    """
    if w == 0.0:
        return np.eye(cols)
    s, c = math.sin(w), math.cos(w)
    half = min(cols, twoj // 2 + 1)
    rows = min(twoj + 1, coherent_row_support((math.sqrt(twoj) * s + math.sqrt(half)) ** 2))
    x = np.arange(rows - 1)
    k = np.arange(half)
    low = three_term_columns(
        np.sqrt((twoj - x) / (x + 1.0)) * (s / c),
        s * s * (twoj - 2 * k) + k,
        s * c * np.sqrt(k * (twoj + 1.0 - k)),
    )
    if cols == half:
        return low
    core = np.pad(low, ((0, twoj + 1 - low.shape[0]), (0, cols - half)))
    high = np.arange(half, cols)
    core[:, high] = (-1.0) ** (np.arange(twoj + 1)[:, None] + high) * core[::-1, twoj - high]
    return core


def rotation_columns(j: HalfInteger, radius: float, cols: int) -> np.ndarray:
    """Real core of the leading ``cols`` columns of U_j(u) at |u| = ``radius``.

    The generator is gauge-equivalent, via the diagonal phase
    e^{ik atan2(u_y, u_x)}, to |u| times the fixed tridiagonal x generator X_j
    with couplings sqrt(i (2j + 1 - i)), so

        U_j(u)[r, c] = e^{i(r-c) psi} M[r, c]

    with psi = u.angle and M real, U_j(u) in u's frame, which depends on
    |u| only: every u of one radius gets the very same core.  U_j(-u) is
    then S U_j(u) S with S = diag((-1)^k).  The columns of M at w = |u| are
    Krawtchouk functions: with N = 2j, p = sin^2 w and q = cos^2 w, column 0
    is sqrt(C(N, x) p^x q^(N-x)), and ``numerics.three_term_columns`` runs
    b_k = p (N - 2k) + k, c_k = sqrt(p q k (N - k + 1)).  The recurrence is
    stable for p <= 1/2, so w is first taken to [0, pi/4] by
    U_j(w + pi) = (-1)^N U_j(w), U_j(-w) = S U_j(w) S and
    U_j(w) = R U_j(w - pi/2), R[N - k, k] = (-1)^k.  At radius 0 the
    columns are the identity.  The rows are those the columns reach (at
    most 2j + 1), up to the trailing ones below ``numerics.WALK_TRIM``.
    """
    twoj, cols = j.twoj, min(cols, j.dim)
    signs = (-1.0) ** np.arange(cols)
    turns, w = divmod(radius, math.pi)
    mirror = w > math.pi / 2
    w = math.pi - w if mirror else w
    flip = w > math.pi / 4
    core = _krawtchouk_columns(twoj, math.pi / 2 - w if flip else w, cols)
    if flip:  # U_j(w)[x, k] = (-1)^k U_j(pi/2 - w)[N - x, k]
        core = np.pad(core, ((0, j.dim - core.shape[0]), (0, 0)))[::-1] * signs
    if mirror:  # U_j(w)[x, k] = (-1)^(N + x + k) U_j(pi - w)[x, k]
        core = mirror_rows(core) * signs
    return -core if twoj * (int(turns) + mirror) % 2 else core


def _half_step(prev: np.ndarray, twoj: int, c: float, s: float, cols: int) -> np.ndarray:
    """The core of spin j = twoj/2 from the core ``prev`` of spin j - 1/2.

    Coupling one more qubit, |j, j-k> = a_k |j-1/2, j-1/2-k>|up> +
    b_k |j-1/2, j+1/2-k>|down> with a_k = sqrt((2j-k)/2j), b_k = sqrt(k/2j),
    and the qubit's core [[c, -s], [s, c]] give

        M[l, k] = a_l (c a_k M'[l, k] - s b_k M'[l, k-1])
                  + b_l (s a_k M'[l-1, k] + c b_k M'[l-1, k-1]).

    ``prev`` holds the leading rows of M' (missing rows are zero), so the
    result reaches one row further; it keeps min(cols, 2j + 1) columns, and
    a column of M' past its last is zero through a_{2j} = 0.
    """
    rows, have = prev.shape
    width = min(cols, twoj + 1)
    k = np.arange(max(rows + 1, width))
    a = np.sqrt((twoj - k) / twoj)
    b = np.sqrt(k / twoj)
    if have < width:
        wide = np.zeros((rows, have + 1))
        wide[:, :have] = prev
        prev = wide
    up = prev * a[:width]
    down = np.zeros((rows, width))
    down[:, 1:] = prev[:, : width - 1] * b[1:width]
    out = np.zeros((rows + 1, width))
    out[:rows] = a[:rows, None] * (c * up - s * down)
    out[1:] += b[1 : rows + 1, None] * (s * up + c * down)
    return out


def rotation_walk(lo: int, hi: int, radius: float, cols: int) -> tuple[list[np.ndarray], float]:
    """Real cores of U_j(w)[:, :min(cols, 2j + 1)] for 2j = lo, lo + 2, ..., hi,
    at |w| = ``radius``.

    Each core is, to rounding, the one ``rotation_columns`` returns, in the
    same frame, w's, on the rows it reaches.  One ``rotation_columns`` call
    gives the core at 2j = lo, so lo = hi is exactly that call; each
    half-step up in j is ``_half_step`` (Risbo's recursion, J. Geodesy 70,
    383, 1996), and only the spins of lo's parity are kept.  After every
    step the trailing rows below ``numerics.WALK_TRIM`` are trimmed.  The
    second value is the mass the trimming dropped, summed over all steps:
    it bounds the trace any returned column lost to it.
    """
    if not 0 <= lo <= hi or (hi - lo) % 2:
        raise DomainError(f"spin range 2j = {lo}..{hi} is not a same-parity range")
    c, s = math.cos(radius), math.sin(radius)
    core = rotation_columns(HalfInteger(lo), radius, cols)
    cores = [core]
    trimmed = 0.0
    for twoj in range(lo + 1, hi + 1):
        core, mass = trim_rows(_half_step(core, twoj, c, s, cols))
        # every column of U_j is a unit vector: rescaling to it keeps the
        # rounding of c^2 + s^2 = 1, the same every step, from compounding
        core /= np.sqrt(np.einsum("ij,ij->j", core, core))
        trimmed += mass
        if (twoj - lo) % 2 == 0:
            cores.append(core)
    return cores, trimmed


def spin_coherent_coords(j: HalfInteger, w: LocalParam) -> np.ndarray:
    """Coordinates of the spin coherent vector |j, w> = U_j(w)|j, j>.

    This is column 0 of U_j(w): the real core ``rotation_columns(j, |w|, 1)``
    in w's frame, with the frame phase e^{ik w.angle} put back, padded with
    zeros to 2j + 1 entries.  In the descending-m convention entry k is
    sqrt(C(2j, k)) zeta^k (1 - |zeta|^2)^{(2j-k)/2} with
    zeta = e^{i w.angle} sin|w| (the closed form
    ``spingauss.reference._spin_coherent_rows``); for one column the kernel
    returns its start column alone, a running product of ratios.
    """
    r = w.norm
    if r >= math.pi / 2:
        raise DomainError(f"|w| = {r:.6f} outside the principal branch |w| < pi/2")
    col = rotation_columns(j, r, 1)[:, 0]
    out = np.zeros(j.dim, dtype=complex)
    out[: len(col)] = gauge_phases(w.angle, len(col)) * col
    return out
