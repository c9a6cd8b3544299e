"""Target singular-value functions and their Chebyshev machinery.

A target function f is defined on an admissible domain
[sigma_lo, sigma_hi] strictly inside (0, 1) and capped at |f| <= cap so the
complementary square root sqrt(1 - f^2) stays real with margin.  The induced
collocation problem approximates g(x) = f(arccos x) / sqrt(1 - x^2) on the
x-interval [cos(sigma_hi), cos(sigma_lo)], mapped affinely to [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as ncheb

from .errors import CapError, DomainError, FitError, InvalidInputError

DEFAULT_SIGMA_LO = 0.05
DEFAULT_SIGMA_HI = 0.95
DEFAULT_CAP = 1.0 - 1e-3
CAP_CHECK_POINTS = 512
PARITY_TOL = 1e-12

# Error-law prefactor for the arccos family.  Plain Chebyshev fits of the
# induced g beat the exp(-sqrt(2 delta) k) law (rescaling to the subinterval
# accelerates them), but schedule synthesis does not: unitarity pins the
# product polynomial on the whole of [-1, 1].  C = 2 makes the estimate an
# upper bound for variable-t synthesis within a factor 2 on the shipped
# families, which is how the pipeline uses it (as a degree budget).
ARCCOS_FAMILY_CONSTANT = 2.0

KINDS = ("identity", "scaled-power", "inverse-sqrt-complement", "sine", "custom-samples")


@dataclass(frozen=True)
class TargetFunction:
    kind: str
    sigma_lo: float = DEFAULT_SIGMA_LO
    sigma_hi: float = DEFAULT_SIGMA_HI
    cap: float = DEFAULT_CAP
    power: float | None = None
    coeff: float | None = None
    samples: tuple = ()
    _interpolant: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown target kind {self.kind!r}")
        if not (0.0 < self.sigma_lo < self.sigma_hi < 1.0):
            raise InvalidInputError(
                f"domain must satisfy 0 < sigma_lo < sigma_hi < 1, "
                f"got [{self.sigma_lo}, {self.sigma_hi}]"
            )
        if self.kind == "custom-samples":
            if len(self.samples) < 2:
                raise InvalidInputError("custom-samples needs at least 2 points")
            xs = np.array([p[0] for p in self.samples], dtype=float)
            ys = np.array([p[1] for p in self.samples], dtype=float)
            deg = min(len(xs) - 1, 50)
            interp = ncheb.Chebyshev.fit(xs, ys, deg, domain=[self.sigma_lo, self.sigma_hi])
            object.__setattr__(self, "_interpolant", interp)
        grid = np.linspace(self.sigma_lo, self.sigma_hi, CAP_CHECK_POINTS)
        vals = self.eval_analytic(grid)
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("target function is not finite on its domain")
        worst = float(np.max(np.abs(vals)))
        if worst > self.cap + 1e-12:
            raise CapError(
                f"|f| reaches {worst:.6g} on the domain, above the cap {self.cap:.6g}"
            )

    def eval_analytic(self, sigma):
        """Evaluate the closed form without domain checks (used on [0, 1])."""
        s = np.asarray(sigma, dtype=float)
        if self.kind == "identity":
            out = s
        elif self.kind == "sine":
            out = np.sin(s)
        elif self.kind == "scaled-power":
            with np.errstate(divide="ignore"):
                out = self.coeff * np.power(s, self.power)
        elif self.kind == "inverse-sqrt-complement":
            with np.errstate(divide="ignore"):
                out = self.coeff / np.sqrt(1.0 - s**2)
        else:  # custom-samples
            out = self._interpolant(s)
        return out if np.ndim(sigma) else float(out)

    def __call__(self, sigma):
        s = np.asarray(sigma, dtype=float)
        if np.any(s < self.sigma_lo - 1e-12) or np.any(s > self.sigma_hi + 1e-12):
            raise DomainError(
                f"sigma outside admissible domain [{self.sigma_lo}, {self.sigma_hi}]"
            )
        return self.eval_analytic(sigma)

    # x-domain bookkeeping -------------------------------------------------

    def x_interval(self) -> tuple[float, float]:
        """[cos(sigma_hi), cos(sigma_lo)], the x-range actually used."""
        return (math.cos(self.sigma_hi), math.cos(self.sigma_lo))

    def x_gap(self) -> float:
        """Distance of the x-interval from the arccos singularities at +-1."""
        x_lo, x_hi = self.x_interval()
        return min(1.0 - x_hi, 1.0 + x_lo)

    def sigma_gaps(self) -> tuple[float, float]:
        """Gaps of the sigma-domain from 0 and 1 (both ends are capped)."""
        return (self.sigma_lo, 1.0 - self.sigma_hi)

    def induced_g(self):
        """g(u) on [-1,1]: f(arccos x)/sqrt(1-x^2) with x mapped affinely."""
        x_lo, x_hi = self.x_interval()
        mid = 0.5 * (x_lo + x_hi)
        half = 0.5 * (x_hi - x_lo)

        def g(u):
            x = mid + half * np.asarray(u, dtype=float)
            return self.eval_analytic(np.arccos(x)) / np.sqrt(1.0 - x**2)

        return g


def identity(sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI, cap=DEFAULT_CAP):
    return TargetFunction("identity", sigma_lo, sigma_hi, cap)


def sine(sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI, cap=DEFAULT_CAP):
    return TargetFunction("sine", sigma_lo, sigma_hi, cap)


def scaled_power(power, coeff, sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI,
                 cap=DEFAULT_CAP):
    return TargetFunction("scaled-power", sigma_lo, sigma_hi, cap,
                          power=float(power), coeff=float(coeff))


def inverse_sqrt_complement(coeff, sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI,
                            cap=DEFAULT_CAP):
    return TargetFunction("inverse-sqrt-complement", sigma_lo, sigma_hi, cap,
                          coeff=float(coeff))


def custom_samples(pairs, sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI,
                   cap=DEFAULT_CAP):
    return TargetFunction("custom-samples", sigma_lo, sigma_hi, cap,
                          samples=tuple((float(a), float(b)) for a, b in pairs))


@dataclass(frozen=True)
class ChebyshevExpansion:
    coeffs: np.ndarray
    parity: str                      # 'even' | 'odd' | 'mixed'
    domain: tuple[float, float]      # x-interval represented, pre-mapping
    residual: float                  # max error on the validation grid

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, u):
        return ncheb.chebval(u, self.coeffs)


def _parity_of(coeffs: np.ndarray) -> str:
    scale = np.max(np.abs(coeffs)) or 1.0
    odd_small = np.all(np.abs(coeffs[1::2]) <= PARITY_TOL * scale)
    even_small = np.all(np.abs(coeffs[0::2]) <= PARITY_TOL * scale)
    if odd_small and not even_small:
        return "even"
    if even_small and not odd_small:
        return "odd"
    return "mixed"


def chebyshev_fit(g, k: int, domain=(-1.0, 1.0)) -> ChebyshevExpansion:
    """Collocation fit at the k+1 first-kind Chebyshev nodes on [-1, 1].

    The reported residual is the max error on a 10(k+1)-point uniform
    validation grid.
    """
    if k < 0:
        raise InvalidInputError("degree must be >= 0")
    nodes = np.cos(np.pi * (2 * np.arange(k + 1) + 1) / (2 * (k + 1)))
    samples = np.asarray(g(nodes), dtype=float)
    if samples.shape != nodes.shape or not np.all(np.isfinite(samples)):
        raise FitError("non-finite samples at collocation nodes")
    # Discrete cosine quadrature: exact interpolation at first-kind nodes.
    theta = np.pi * (2 * np.arange(k + 1) + 1) / (2 * (k + 1))
    coeffs = np.empty(k + 1)
    for m_idx in range(k + 1):
        coeffs[m_idx] = (2.0 / (k + 1)) * np.sum(samples * np.cos(m_idx * theta))
    coeffs[0] *= 0.5
    grid = np.linspace(-1.0, 1.0, 10 * (k + 1))
    vals = np.asarray(g(grid), dtype=float)
    residual = float(np.max(np.abs(ncheb.chebval(grid, coeffs) - vals)))
    return ChebyshevExpansion(coeffs=coeffs, parity=_parity_of(coeffs),
                              domain=tuple(domain), residual=residual)


def fit_target_expansion(f: TargetFunction, k: int) -> ChebyshevExpansion:
    """Fit the induced g of a target function at degree k."""
    return chebyshev_fit(f.induced_g(), k, domain=f.x_interval())


@dataclass(frozen=True)
class DegreeEstimate:
    k: int
    predicted_eps: float
    delta: float


def degree_for_accuracy(delta: float, eps: float,
                        family_constant: float = ARCCOS_FAMILY_CONSTANT) -> DegreeEstimate:
    """Smallest k with C exp(-sqrt(2 delta) k) <= eps."""
    if not (0.0 < delta < 1.0):
        raise InvalidInputError("delta must lie in (0, 1)")
    if not (0.0 < eps < 1.0):
        raise InvalidInputError("eps must lie in (0, 1)")
    rate = math.sqrt(2.0 * delta)
    k = max(1, math.ceil(math.log(family_constant / eps) / rate))
    return DegreeEstimate(k=k, predicted_eps=family_constant * math.exp(-rate * k),
                          delta=delta)
