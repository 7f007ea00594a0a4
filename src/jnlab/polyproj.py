"""Low-degree polynomials and moment-matching projections on grid regions.

The degree-s moment projection of f over a region E is the unique P with
``sum_cells (f - P)(x) x^gamma h^n = 0`` for all |gamma| <= s, i.e. the
orthogonal projection of f onto polynomials of degree <= s in the discrete
L^2(E) inner product.  Monomials are anchored at the region center and scaled
by the region half-size before the Gram matrix is formed; an explicit
condition-number gate rejects degenerate instances instead of regularizing.
:class:`Projector` holds that computation for one point set; moment
projections, orthonormal bases and the cube-tiling batches go through it,
and the clipped balls of the ball sweep share its gate, gram_condition.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .lattice import EmptyRegionError, GridFunction, Region, Window, monomials, region_cells, whole_number

__all__ = [
    "MAX_DEGREE",
    "ConditioningError",
    "multi_indices",
    "index_factorial",
    "Polynomial",
    "Projector",
    "moment_projection",
    "space_dimension",
]

MAX_DEGREE = 4
COND_LIMIT = 1e10


class ConditioningError(ValueError):
    """Gram matrix of the monomial basis is numerically singular on E."""


def gram_condition(gram: np.ndarray) -> float:
    """The largest condition number of a Gram matrix or a stack of them;
    ConditioningError unless each is finite and at most COND_LIMIT."""
    cond = np.linalg.cond(gram)
    if not np.all(np.isfinite(cond) & (cond <= COND_LIMIT)):
        raise ConditioningError(f"monomial Gram condition {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}")
    return float(np.max(cond))


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

    def __call__(self, pts) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cols = monomials(pts, list(self.coeffs), self.anchor, self.scale)
        out = np.zeros(pts.shape[0])
        for c, col in zip(self.coeffs.values(), cols.T):
            out += c * col
        return out

    def on_grid(self, window: Window) -> GridFunction:
        return GridFunction(window, self(window.midpoints()).reshape(window.cells))

    def raw_coeffs(self) -> dict:
        """Coefficients over plain monomials x^gamma: each axis factor
        (x_i - a_i)^gamma_i expanded binomially, terms collected by exponent."""
        a = np.asarray(self.anchor)
        out: dict[tuple, float] = {}
        for g, c in self.coeffs.items():
            c = c / self.scale ** sum(g)
            axis_terms = [
                list(enumerate([math.comb(gi, j) * (-a[axis]) ** (gi - j) for j in range(gi + 1)]))
                for axis, gi in enumerate(g)
            ]
            for combo in itertools.product(*axis_terms):
                mono = tuple(j for j, _ in combo)
                out[mono] = out.get(mono, 0.0) + c * float(math.prod(w for _, w in combo))
        return out

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "anchor": list(self.anchor),
            "scale": self.scale,
            "coeffs": [{"gamma": list(g), "a": c} for g, c in sorted(self.coeffs.items())],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))


class Projector:
    """Degree-s moment projection on one fixed set of points.

    The design matrix ``phi`` holds the monomials ((x - anchor)/scale)^gamma
    at the points.  Its Gram matrix is checked once against COND_LIMIT (the
    largest condition number stays as ``condition``) and
    solved once against phi^T; every projection after that is a product with
    the stored solution.  Rows of a batch are functions sampled at the
    points, so congruent cubes share one projector.
    """

    def __init__(self, pts: np.ndarray, s: int, anchor=None, scale: float = 1.0):
        s = whole_number(s, "degree s")
        if s > MAX_DEGREE:
            raise ValueError(f"degree s must be at most {MAX_DEGREE}, the degree cap, got {s}")
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
        self.gram = self.phi.T @ self.phi
        self.condition = gram_condition(self.gram)
        # coefficients of a row b are gram^-1 phi^T b, solved here once
        self._solved = np.linalg.solve(self.gram, self.phi.T)

    def bases(self) -> tuple[list[Polynomial], list[Polynomial]]:
        """The Gram-Schmidt orthonormal polynomials phi_nu on the points with
        weight 1/count, ordered like :func:`multi_indices`, and their duals
        psi_nu with (1/count) sum psi_nu1 x^nu2 = delta_{nu1,nu2}.  With
        gram / count = L L^T, the columns of inv(L).T are the coefficients of
        phi; if phi_nu = sum_gamma m[nu,gamma] x^gamma, then
        psi_nu = sum_gamma m[gamma,nu] phi_gamma."""
        coef = np.linalg.inv(np.linalg.cholesky(self.gram * (1.0 / self.phi.shape[0]))).T
        phis = [self.polynomial(c) for c in coef.T]
        # m[nu, gamma]: coefficients of phi_nu over raw monomials x^gamma
        m = np.array([[phi.raw_coeffs().get(g, 0.0) for g in self.gammas] for phi in phis])
        return phis, [self.polynomial(coef @ m[:, nu]) for nu in range(len(self.gammas))]

    @classmethod
    def on_region(cls, window: Window, region: Region, s: int):
        """Projector over the window cells of a region, and their sorted flat
        indices (:func:`region_cells`)."""
        cells = region_cells(window, region)
        if not cells.size:
            raise EmptyRegionError(f"region {region} contains no cell midpoint")
        return cls(window.cell_midpoints(cells), s, region.center, region.scale), cells

    def coefficients(self, batch: np.ndarray) -> np.ndarray:
        """Coefficients (..., dim) of the projections of the rows (..., m)."""
        return batch @ self._solved.T

    def fit(self, batch: np.ndarray) -> np.ndarray:
        """The projection of each row, sampled at the points."""
        return self.coefficients(batch) @ self.phi.T

    def residual(self, batch: np.ndarray) -> np.ndarray:
        """Each row minus its projection."""
        return batch - self.fit(batch)

    def polynomial(self, coef) -> Polynomial:
        return Polynomial(self.n, self.s, self.anchor, self.scale, dict(zip(self.gammas, coef)))


def moment_projection(f: GridFunction, region: Region, s: int) -> Polynomial:
    """Degree-s moment-matching projection of f over the region."""
    proj, cells = Projector.on_region(f.window, region, s)
    return proj.polynomial(proj.coefficients(f.flat[cells]))

