"""Target singular-value functions and their degree budget.

A target function f is defined on an admissible domain
[sigma_lo, sigma_hi] strictly inside (0, 1) and capped at |f| <= cap so the
complementary square root sqrt(1 - f^2) stays real with margin.  The degree
budget of a schedule follows from the gap of the x-interval
[cos(sigma_hi), cos(sigma_lo)] to the arccos singularities at x = +-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import CapError, DomainError, InvalidInputError

DEFAULT_SIGMA_LO = 0.05
DEFAULT_SIGMA_HI = 0.95
DEFAULT_CAP = 1.0 - 1e-3
# how far a singular value may lie outside [sigma_lo, sigma_hi] and still
# count as inside: round-off of an SVD of a matrix built with that sigma
DOMAIN_SLACK = 1e-9

# Error-law prefactor for the arccos family.  Plain Chebyshev fits of
# g(x) = f(arccos x) / sqrt(1 - x^2) on the x-interval beat the exp(-sqrt(2 delta) k) law (rescaling to the subinterval
# accelerates them), but schedule synthesis does not: unitarity pins the
# product polynomial on the whole of [-1, 1].  C = 2 makes the estimate an
# upper bound for variable-t synthesis within a factor 2 on the shipped
# families, which is how the pipeline uses it (as a degree budget).
ARCCOS_FAMILY_CONSTANT = 2.0

KINDS = ("identity", "scaled-power", "inverse-sqrt-complement", "sine")
# the parameters each kind's closed form reads
KIND_PARAMS = {"scaled-power": ("power", "coeff"), "inverse-sqrt-complement": ("coeff",)}


@dataclass(frozen=True)
class TargetFunction:
    kind: str
    sigma_lo: float = DEFAULT_SIGMA_LO
    sigma_hi: float = DEFAULT_SIGMA_HI
    cap: float = DEFAULT_CAP
    power: float | None = None
    coeff: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidInputError(f"unknown target kind {self.kind!r}")
        for name in KIND_PARAMS.get(self.kind, ()):
            if getattr(self, name) is None:
                raise InvalidInputError(f"{self.kind} needs {name!r}")
        for name in ("sigma_lo", "sigma_hi", "cap", "power", "coeff"):
            value = getattr(self, name)
            # an infinite coeff is left to the check below that f is finite
            if value is not None and not (name == "coeff" and value in (-math.inf, math.inf)):
                object.__setattr__(self, name, linalg.as_real(value, name))
        if not (0.0 < self.sigma_lo < self.sigma_hi < 1.0):
            raise InvalidInputError(
                f"domain must satisfy 0 < sigma_lo < sigma_hi < 1, "
                f"got [{self.sigma_lo}, {self.sigma_hi}]"
            )
        # each kind's |f| is monotone in sigma on (0, 1), so its largest value
        # on the domain, and any infinity there, lies at an end of the domain
        ends = np.abs(self.eval_analytic(np.array([self.sigma_lo, self.sigma_hi])))
        if not np.all(np.isfinite(ends)):
            raise InvalidInputError("target function is not finite on its domain")
        worst = float(np.max(ends))
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
        else:  # inverse-sqrt-complement
            with np.errstate(divide="ignore"):
                out = self.coeff / np.sqrt(1.0 - s**2)
        return out if np.ndim(sigma) else float(out)

    def in_domain(self, sigma):
        """Whether sigma lies in [sigma_lo, sigma_hi], up to DOMAIN_SLACK."""
        s = np.asarray(sigma, dtype=float)
        return (self.sigma_lo - DOMAIN_SLACK <= s) & (s <= self.sigma_hi + DOMAIN_SLACK)

    def __call__(self, sigma):
        if not np.all(self.in_domain(sigma)):
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


def identity(sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI, cap=DEFAULT_CAP):
    return TargetFunction("identity", sigma_lo, sigma_hi, cap)


def sine(sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI, cap=DEFAULT_CAP):
    return TargetFunction("sine", sigma_lo, sigma_hi, cap)


def scaled_power(power, coeff, sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI,
                 cap=DEFAULT_CAP):
    return TargetFunction("scaled-power", sigma_lo, sigma_hi, cap,
                          power=power, coeff=coeff)


def inverse_sqrt_complement(coeff, sigma_lo=DEFAULT_SIGMA_LO, sigma_hi=DEFAULT_SIGMA_HI,
                            cap=DEFAULT_CAP):
    return TargetFunction("inverse-sqrt-complement", sigma_lo, sigma_hi, cap,
                          coeff=coeff)


@dataclass(frozen=True)
class DegreeEstimate:
    k: int
    predicted_eps: float
    delta: float


def degree_for_accuracy(delta: float, eps: float) -> DegreeEstimate:
    """Smallest k with C exp(-sqrt(2 delta) k) <= eps."""
    delta, eps = linalg.as_real(delta, "delta"), linalg.as_real(eps, "eps")
    if not (0.0 < delta < 1.0):
        raise InvalidInputError(f"delta must lie in (0, 1), got {delta}")
    if not (0.0 < eps < 1.0):
        raise InvalidInputError(f"eps must lie in (0, 1), got {eps}")
    rate = math.sqrt(2.0 * delta)
    k = max(1, math.ceil(math.log(ARCCOS_FAMILY_CONSTANT / eps) / rate))
    return DegreeEstimate(k=k, predicted_eps=ARCCOS_FAMILY_CONSTANT * math.exp(-rate * k),
                          delta=delta)
