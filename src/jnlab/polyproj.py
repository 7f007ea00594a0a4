"""Low-degree polynomials and moment-matching projections on grid regions.

The degree-s moment projection of f over a region E is the unique P with
``sum_cells (f - P)(x) x^gamma h^n = 0`` for all |gamma| <= s, i.e. the
orthogonal projection of f onto polynomials of degree <= s in the discrete
L^2(E) inner product.  Monomials are anchored at the region center and scaled
by the region half-size before the Gram matrix is formed; an explicit
condition-number gate rejects degenerate instances instead of regularizing.
:class:`Projector` holds that computation for one point set; moment
projections, orthonormal bases, the cube-tiling batches and the ball sweep
all go through it.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lattice import EmptyRegionError, GridFunction, Region, Window, monomials, region_mask

__all__ = [
    "MAX_DEGREE",
    "ConditioningError",
    "multi_indices",
    "index_factorial",
    "Polynomial",
    "Projector",
    "moment_projection",
    "sup_poly_norm",
    "orthonormal_basis",
    "dual_basis",
    "space_dimension",
]

MAX_DEGREE = 4
COND_LIMIT = 1e10


class ConditioningError(ValueError):
    """Gram matrix of the monomial basis is numerically singular on E."""


def multi_indices(n: int, s: int) -> list[tuple]:
    """All multi-indices gamma with |gamma| <= s, graded lexicographic."""
    out = []
    for d in range(s + 1):
        block = [g for g in itertools.product(range(d + 1), repeat=n) if sum(g) == d]
        out.extend(sorted(block))
    return out


def index_factorial(gamma) -> int:
    return int(np.prod([math.factorial(int(g)) for g in np.atleast_1d(gamma)]))


def space_dimension(n: int, s: int) -> int:
    return len(multi_indices(n, s))


def _binomial_expand(coeffs: dict, weights) -> dict:
    """Collect sum_gamma c_gamma prod_i (sum_j w_ij t_i^j) by the exponent
    tuple of t, where weights(i, gamma_i) lists w_ij for j = 0..gamma_i: each
    axis factor expanded binomially."""
    out: dict[tuple, float] = {}
    for g, c in coeffs.items():
        axis_terms = [list(enumerate(weights(axis, gi))) for axis, gi in enumerate(g)]
        for combo in itertools.product(*axis_terms):
            mono = tuple(j for j, _ in combo)
            out[mono] = out.get(mono, 0.0) + c * float(math.prod(w for _, w in combo))
    return out


@dataclass
class Polynomial:
    """Polynomial of degree <= s in the basis ((x - anchor)/scale)^gamma."""

    n: int
    s: int
    anchor: tuple
    scale: float
    coeffs: dict = field(default_factory=dict)  # gamma tuple -> coefficient

    def __post_init__(self):
        if self.s > MAX_DEGREE:
            raise ValueError(f"degree cap is {MAX_DEGREE}")
        self.anchor = tuple(float(a) for a in np.atleast_1d(self.anchor))
        self.scale = float(self.scale)
        self.coeffs = {tuple(int(i) for i in g): float(c) for g, c in self.coeffs.items()}

    @classmethod
    def constant(cls, n: int, value: float) -> "Polynomial":
        return cls(n, 0, (0.0,) * n, 1.0, {(0,) * n: float(value)})

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cols = monomials(pts, list(self.coeffs), self.anchor, self.scale)
        out = np.zeros(pts.shape[0])
        for c, col in zip(self.coeffs.values(), cols.T):
            out += c * col
        return out

    def on_grid(self, window: Window) -> GridFunction:
        return GridFunction(window, self(window.midpoints()).reshape(window.cells))

    def degree(self, tol: float = 0.0) -> int:
        degs = [sum(g) for g, c in self.coeffs.items() if abs(c) > tol]
        return max(degs) if degs else 0

    def raw_coeffs(self) -> dict:
        """Coefficients over plain monomials x^gamma (binomial expansion)."""
        a = np.asarray(self.anchor)
        # expand prod_i (x_i - a_i)^{g_i}
        scaled = {g: c / self.scale ** sum(g) for g, c in self.coeffs.items()}
        return _binomial_expand(
            scaled, lambda axis, gi: [math.comb(gi, j) * (-a[axis]) ** (gi - j) for j in range(gi + 1)]
        )

    @classmethod
    def from_raw_coeffs(cls, n: int, s: int, raw: dict, anchor=None, scale: float = 1.0) -> "Polynomial":
        anchor = (0.0,) * n if anchor is None else tuple(float(a) for a in np.atleast_1d(anchor))
        a = np.asarray(anchor)
        # x^gamma = (scale z + a)^gamma with z = (x - a)/scale
        coeffs = _binomial_expand(
            raw, lambda axis, gi: [math.comb(gi, j) * scale**j * a[axis] ** (gi - j) for j in range(gi + 1)]
        )
        return cls(n, s, anchor, scale, coeffs)

    def rebase(self, anchor, scale: float) -> "Polynomial":
        return Polynomial.from_raw_coeffs(self.n, self.s, self.raw_coeffs(), anchor, scale)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        raw = self.raw_coeffs()
        for g, c in other.raw_coeffs().items():
            raw[g] = raw.get(g, 0.0) + c
        return Polynomial.from_raw_coeffs(
            self.n, max(self.s, other.s), raw, self.anchor, self.scale
        )

    def __mul__(self, scalar: float) -> "Polynomial":
        return Polynomial(
            self.n, self.s, self.anchor, self.scale,
            {g: c * float(scalar) for g, c in self.coeffs.items()},
        )

    __rmul__ = __mul__

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (other * -1.0)

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "anchor": list(self.anchor),
            "scale": self.scale,
            "coeffs": [{"gamma": list(g), "a": c} for g, c in sorted(self.coeffs.items())],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "Polynomial":
        d = json.loads(Path(path).read_text())
        coeffs = {tuple(e["gamma"]): e["a"] for e in d["coeffs"]}
        n = len(d["anchor"])
        return cls(n, d["s"], tuple(d["anchor"]), d["scale"], coeffs)


class Projector:
    """Degree-s moment projection on one fixed set of points.

    The design matrix ``phi`` holds the monomials ((x - anchor)/scale)^gamma
    at the points.  Its Gram matrix is checked once against COND_LIMIT and
    solved once against phi^T; every projection after that is a product with
    the stored solution.  Rows of a batch are functions sampled at the
    points, so congruent cubes share one projector.

    With ``keep`` (rows, m) boolean, row r is its own problem on the points
    it keeps (balls clipped by the window edge): the Gram matrices form a
    stack, each row's system is solved against that row's moment vector,
    and residuals are zero off a row's points.  A masked batch row must be
    zero off the points it keeps.
    """

    def __init__(self, pts: np.ndarray, s: int, anchor=None, scale: float = 1.0, keep=None):
        pts = np.asarray(pts, dtype=float)
        self.n, self.s = pts.shape[1], s
        self.anchor = (0.0,) * self.n if anchor is None else tuple(anchor)
        self.scale = float(scale)
        self.gammas = multi_indices(self.n, s)
        if pts.shape[0] < len(self.gammas):
            raise ConditioningError(
                f"{pts.shape[0]} cells cannot carry the degree-{s} space of dimension {len(self.gammas)}"
            )
        self.phi = monomials(pts, self.gammas, anchor, scale)
        self.keep = keep
        design = self.phi if keep is None else self.phi * keep[..., None]
        self.gram = np.swapaxes(design, -1, -2) @ design
        cond = np.linalg.cond(self.gram)
        if not np.all(np.isfinite(cond) & (cond <= COND_LIMIT)):
            raise ConditioningError(
                f"monomial Gram condition {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}"
            )
        # coefficients of a row b are gram^-1 phi^T b, solved here once or per masked row
        self._solved = np.linalg.solve(self.gram, self.phi.T) if keep is None else self.phi.T
        for a in (self.phi, self.gram, self._solved):  # read-only: caches share projectors
            a.flags.writeable = False

    def clipped(self, keep, gram) -> "Projector":
        """This projector in masked mode on the points ``keep`` marks, where
        ``gram`` is the Gram stack of a projector built with that mask."""
        out = copy.copy(self)
        out.keep, out.gram = keep, gram
        return out

    @classmethod
    def on_region(cls, window: Window, region: Region, s: int):
        """Projector over the window cells of a region, and their mask."""
        mask = region_mask(window, region)
        if not mask.any():
            raise EmptyRegionError(f"region {region} contains no cell midpoint")
        return cls(window.cell_midpoints(np.flatnonzero(mask)), s, region.center, region.scale), mask

    def coefficients(self, batch: np.ndarray) -> np.ndarray:
        """Coefficients (..., dim) of the projections of the rows (..., m)."""
        if self.keep is None:
            return batch @ self._solved.T
        return np.linalg.solve(self.gram, (batch @ self.phi)[..., None])[..., 0]

    def fit(self, batch: np.ndarray) -> np.ndarray:
        """The projection of each row, sampled at the points."""
        fit = self.coefficients(batch) @ self.phi.T
        return fit if self.keep is None else fit * self.keep

    def residual(self, batch: np.ndarray) -> np.ndarray:
        """Each row minus its projection."""
        return batch - self.fit(batch)

    def polynomial(self, coef) -> Polynomial:
        return Polynomial(self.n, self.s, self.anchor, self.scale, dict(zip(self.gammas, coef)))


def _window_of(window_or_f) -> Window:
    return window_or_f.window if isinstance(window_or_f, GridFunction) else window_or_f


def moment_projection(f: GridFunction, region: Region, s: int) -> Polynomial:
    """Degree-s moment-matching projection of f over the region."""
    proj, mask = Projector.on_region(f.window, region, s)
    return proj.polynomial(proj.coefficients(f.flat[mask]))


def sup_poly_norm(P: Polynomial, region: Region, pitch: float) -> float:
    """Max |P| over midpoints of a pitch-h lattice covering the region."""
    lo, hi = (np.atleast_1d(b) for b in region.bounding_box())
    axes = [
        lo[a] + (np.arange(max(int(math.ceil((hi[a] - lo[a]) / pitch)), 1)) + 0.5) * pitch
        for a in range(P.n)
    ]
    inside = region.grid_contains(np.ix_(*axes))
    if not inside.any():
        raise EmptyRegionError("no lattice midpoint falls in the region")
    pts = np.stack([x[i] for x, i in zip(axes, np.nonzero(inside))], axis=1)
    return float(np.abs(P(pts)).max())


def _gram_schmidt(window_or_f, region: Region, s: int):
    """Projector on E and the coefficient columns of the orthonormal basis."""
    proj, mask = Projector.on_region(_window_of(window_or_f), region, s)
    # gram / count = L L^T; columns of inv(L).T are the GS coefficients
    L = np.linalg.cholesky(proj.gram * (1.0 / np.count_nonzero(mask)))
    return proj, np.linalg.inv(L).T


def orthonormal_basis(window_or_f, region: Region, s: int) -> list[Polynomial]:
    """Gram-Schmidt orthonormal polynomials on E with weight 1/|E|.

    Ordered like :func:`multi_indices`; span equals the degree-s space on E.
    """
    proj, coef = _gram_schmidt(window_or_f, region, s)
    return [proj.polynomial(c) for c in coef.T]


def dual_basis(window_or_f, region: Region, s: int) -> list[Polynomial]:
    """Polynomials psi_nu with (1/|E|) int_E psi_nu1 x^nu2 = delta_{nu1,nu2}.

    If phi_nu = sum_gamma m[nu,gamma] x^gamma is the orthonormal basis, then
    psi_nu = sum_gamma m[gamma,nu] phi_gamma; both are built here.
    """
    proj, coef = _gram_schmidt(window_or_f, region, s)
    # m[nu, gamma]: coefficients of phi_nu over raw monomials x^gamma
    raws = [proj.polynomial(c).raw_coeffs() for c in coef.T]
    m = np.array([[raw.get(g, 0.0) for g in proj.gammas] for raw in raws])
    return [proj.polynomial(coef @ m[:, nu]) for nu in range(len(proj.gammas))]
