"""Phase-schedule synthesis for singular-value transformations.

A schedule is an ordered list of steps (phi_k, t_k).  Inside the invariant
subspace with singular value sigma, step k acts as the 2x2 rotation

    exp(-i sigma t_k (cos phi_k X - sin phi_k Y))

(the lower-left entry of the generator carries e^{-i phi}), and the whole
schedule acts as the right-to-left product of these rotations.  Synthesis
finds phases (and optionally times) whose product approximates the target

    [[ i sqrt(1 - f^2),  i f              ],
     [ i f,              -i sqrt(1 - f^2) ]]

on a Chebyshev grid of sigma nodes, by damped least squares with analytic
Jacobians and degree continuation.  Continuation grows a solution to a
higher degree with the same product: a fixed-t schedule appends canceling
pairs (phi, phi + pi), a variable-t one splits its longest step in two.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import least_squares

from . import linalg
from .errors import CapError, InvalidInputError, ParseError
from .targets import TargetFunction, degree_for_accuracy

CONVENTION = "lower-left-e-minus-i-phi"
T_MIN = 1e-3          # bounds on step times (variable-t mode)
T_MAX = 8.0
# A solve is done once its max node residual is at most MARGIN * target_eps: the
# accuracy contract holds with room left for round-off between grids.
MARGIN = 0.8
# A fixed-t stage that ends at its evaluation cap is solved again from where it
# stopped while its cost fell by at least this fraction over the last eighth of
# its iterations (see _stage_solve).
DESCENT = 0.02
# random starts an explicit-degree compile adds to its deterministic one when
# the warm start misses eps
RESTARTS = 8
# least_squares status -> stop reason; a positive status is a tolerance test
_STOP_REASONS = {-2: "eps", 0: "cap"}


def _wrap_phase(phi: float) -> float:
    """Reduce to (-pi, pi]; a phase already there is kept as given."""
    if -math.pi < phi <= math.pi:
        return phi
    w = math.fmod(phi + math.pi, 2.0 * math.pi)
    if w <= 0.0:
        w += 2.0 * math.pi
    return w - math.pi


@dataclass(frozen=True)
class PhaseStep:
    phi: float
    t: float

    def __post_init__(self):
        object.__setattr__(self, "phi", _wrap_phase(linalg.as_real(self.phi, "phi")))
        object.__setattr__(self, "t", linalg.as_real(self.t, "t", least=0, strict=True))


@dataclass(frozen=True)
class PhaseSchedule:
    steps: tuple

    @property
    def degree(self) -> int:
        return len(self.steps)

    def phis(self) -> np.ndarray:
        return np.array([s.phi for s in self.steps], dtype=float)

    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.steps], dtype=float)

    # v1 text format ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"# hsvt-schedule v1 k={self.degree} convention={CONVENTION}"]
        for s in self.steps:
            lines.append(f"{s.phi:.17g},{s.t:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, path=None) -> "PhaseSchedule":
        lines = text.splitlines()
        if not lines or not re.match(r"# hsvt-schedule v1(?!\S)", lines[0]):
            raise ParseError("missing 'hsvt-schedule v1' header", path=path, line=1)
        fields = dict(
            tok.split("=", 1) for tok in lines[0].split()[2:] if "=" in tok
        )
        if "k" not in fields:
            raise ParseError("header lacks k=<degree>", path=path, line=1, field="k")
        try:
            k = int(fields["k"])
        except ValueError as exc:
            raise ParseError(f"bad degree: {exc}", path=path, line=1,
                             field="k") from exc
        steps = []
        for i, line in enumerate(lines[1:], start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ParseError("expected 'phi,t'", path=path, line=i)
            try:
                phi, t = float(parts[0]), float(parts[1])
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=path, line=i) from exc
            try:
                steps.append(PhaseStep(phi=phi, t=t))
            except InvalidInputError as exc:
                raise ParseError(str(exc), path=path, line=i) from exc
        if len(steps) != k:
            raise ParseError(
                f"header says k={fields['k']} but found {len(steps)} steps",
                path=path, field="k",
            )
        if fields.get("convention", CONVENTION) != CONVENTION:
            raise ParseError(f"convention {fields['convention']!r} is not {CONVENTION!r}",
                             path=path, line=1, field="convention")
        return cls(steps=tuple(steps))


def schedule_from_arrays(phis, times=None) -> PhaseSchedule:
    phis = np.asarray(phis, dtype=float)
    times = np.ones_like(phis) if times is None else np.asarray(times, dtype=float)
    return PhaseSchedule(steps=tuple(PhaseStep(p, t) for p, t in zip(phis, times)))


@dataclass(frozen=True)
class SynthesisReport:
    grid: np.ndarray
    residual_per_node: np.ndarray
    max_residual: float
    target_eps: float
    iterations: int
    converged: bool
    stop_reason: str              # final solve: 'eps', 'tolerance' or 'cap'
    metric: str = "full"
    # sigma_hi ||t||_2, to first order the RMS distance of a noisy run from
    # the noiseless one per unit eta at sigma_hi; set by the synthesis drivers
    noise_gain: float | None = None

    def to_dict(self) -> dict:
        return {
            "grid": [float(x) for x in self.grid],
            "residual_per_node": [float(x) for x in self.residual_per_node],
            "max_residual": float(self.max_residual),
            "target_eps": float(self.target_eps),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "metric": self.metric,
            "stop_reason": self.stop_reason,
            "noise_gain": self.noise_gain,
        }


@dataclass(frozen=True)
class SolverOptions:
    target_eps: float = 1e-3
    seed: int = 0
    variable_t: bool = False
    metric: str = "full"          # 'full' or 'corner'
    max_nfev: int = 1200

    def __post_init__(self):
        object.__setattr__(self, "seed", linalg.as_count(self.seed, "seed", least=0))
        object.__setattr__(self, "max_nfev", linalg.as_count(self.max_nfev, "max_nfev"))
        if self.target_eps != math.inf:     # inf: no accuracy goal at a fixed degree
            object.__setattr__(self, "target_eps",
                               linalg.as_real(self.target_eps, "target_eps", least=0))
        if self.metric not in ("full", "corner"):
            raise InvalidInputError(
                f"metric must be 'full' or 'corner', got {self.metric!r}")


# ---------------------------------------------------------------------------
# Reduced-model kernels (vectorized over sigma nodes)
# ---------------------------------------------------------------------------

def _pair_product(a1, b1, a2, b2):
    """(a, b) of [[a1, b1], [-b1*, a1*]] @ [[a2, b2], [-b2*, a2*]].

    Every step, product of steps and step derivative has this form (a real
    multiple of an SU(2) matrix), so it is held as its first row (a, b).  A
    step is (cos sigma t, -i sin(sigma t) e^{i phi}), with a real a."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _chain(rows, c, w, chain_first=False):
    """Fill rows[1:] of a chain of pair products, row k + 1 from row k and
    step k: _pair_product on every node at once, in fewer array ops.

    A row holds the pair (a, b) of N nodes as [a | b reversed], so that its
    reverse [b | a reversed] holds each entry's partner.  With the step's
    rows c = [c | c reversed] (complex) and w = [w | w reversed], the
    product S P = _pair_product(c, w, a, b) is c y, then w conj(y[::-1]),
    subtracted on the first half and added on the second.  With chain_first
    it is P S = _pair_product(a, b, c, w), where w is the row
    [conj(w) | w reversed]: y c, then y[::-1] w.  Each product keeps
    _pair_product's operand order (numpy's complex multiply is not bitwise
    commutative), so every row holds _pair_product's floats, signed zeros
    included: the solver's steps depend even on those."""
    n = rows.shape[1] // 2
    cross = np.empty(2 * n, dtype=complex)
    cross_lo, cross_hi = cross[:n], cross[n:]
    for y, partner, out, lo, hi, ck, wk in zip(rows[:-1], rows[:-1, ::-1], rows[1:],
                                               rows[1:, :n], rows[1:, n:], c, w):
        if chain_first:
            np.multiply(y, ck, out)
            np.multiply(partner, wk, cross)
        else:
            np.multiply(ck, y, out)
            np.conj(partner, out=cross)
            np.multiply(wk, cross, cross)
        np.subtract(lo, cross_lo, lo)
        np.add(hi, cross_hi, hi)


def _step_pairs(phis, times, sigmas):
    """(a, b), each (N,), of the product of the steps (phis, times) at each
    of the N sigmas, multiplied as a balanced tree: each level is one
    _pair_product of all neighbouring pairs, the later step on the left,
    and an odd last entry is carried to the next level.

    One run multiplies its K step pairs in ceil(log2 K) vectorized levels
    where a chain takes K small products.  The objective multiplies the same
    pairs one step at a time (_chain), since it needs every prefix and its
    round-off sets the schedules; so does noise_sweep over a batch of runs
    (protocol._reduced_corners), where a tree's levels cost more in
    temporaries than they save."""
    angles = np.multiply.outer(times, sigmas)          # (K, N)
    if not len(angles):
        return np.ones(len(sigmas), complex), np.zeros(len(sigmas), complex)
    a = np.cos(angles)
    b = -1j * np.sin(angles) * np.exp(1j * np.asarray(phis))[:, None]
    while len(a) > 1:
        even = len(a) - len(a) % 2
        pa, pb = _pair_product(a[1:even:2], b[1:even:2], a[:even:2], b[:even:2])
        if even < len(a):
            pa, pb = np.concatenate([pa, a[even:]]), np.concatenate([pb, b[even:]])
        a, b = pa, pb
    return a[0], b[0]


def reduced_product(schedule: PhaseSchedule, sigmas) -> np.ndarray:
    """(N, 2, 2) reduced unitaries at each sigma node: the pairs (a, b) of
    _step_pairs as matrices [[a, b], [-b*, a*]]."""
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    bad = sigmas[~((sigmas >= 0) & (sigmas < np.inf))]
    if len(bad):
        raise InvalidInputError(f"sigma must be >= 0 and finite, got {float(bad[0])}")
    a, b = _step_pairs(schedule.phis(), schedule.times(), sigmas)
    u = np.empty((len(a), 2, 2), dtype=complex)
    u[:, 0, 0], u[:, 0, 1] = a, b
    u[:, 1, 0], u[:, 1, 1] = -np.conj(b), np.conj(a)
    return u


def reduced_model(schedule: PhaseSchedule, sigma: float) -> np.ndarray:
    """The 2x2 reduced unitary at one sigma."""
    return reduced_product(schedule, [float(sigma)])[0]


def reduced_target(f_values):
    """The target unitaries i*(sqrt(1-f^2) Z + f X) from f samples, as their
    pairs (a, b) = (i sqrt(1-f^2), i f), each (N,)."""
    fv = np.atleast_1d(np.asarray(f_values, dtype=float))
    if (np.abs(fv) > 1.0 + 1e-12).any():
        raise CapError(f"|f| reaches {np.max(np.abs(fv)):.6g} > 1")
    return 1j * np.sqrt(np.maximum(1.0 - fv**2, 0.0)), 1j * fv


def chebyshev_grid(lo: float, hi: float, n: int) -> np.ndarray:
    n = linalg.as_count(n, "n")
    i = np.arange(n)
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(np.pi * (2 * i + 1) / (2 * n))


# Each stacked row of the full metric carries sqrt 2, so that the rows' sum of
# squares is that of all four entries of U - T; no row exceeds its scale times
# the residual of its node.
_ROW_SCALE = {"full": math.sqrt(2.0), "corner": 1.0}


def _rows(a, b, metric):
    """Stacked real rows, along the last axis, of the pairs (a, b) under the
    metric: the lower-left entry -b* for 'corner'; a and b for 'full'."""
    if metric == "corner":
        c = -np.conj(b)
        return np.concatenate([c.real, c.imag], axis=-1)
    return _ROW_SCALE[metric] * np.concatenate([a.real, a.imag, b.real, b.imag],
                                               axis=-1)


def _residual_jacobian(params, sigmas, target, variable_t, metric):
    """Stacked real residual vector, and a callable that returns its Jacobian.

    The schedule's product U and the target T = i[[g, f], [f, -g]] (the pair
    of reduced_target) are both pairs (a, b) (see _pair_product), and so is
    U - T; _rows stacks what the metric measures of it.  The
    residual needs only the prefix products P_k; the callable runs the
    suffix products Q_k and the derivatives (Q_{k+1} D_k) P_k, so a point
    whose Jacobian is never asked for skips them.

    Both chains run in _chain's rows: row k of y is [a | b reversed] of
    P_k, row k of z that of Q_k.  Under fixed-t every time is 1, so the
    sines and cosines are taken once, on sigmas.
    """
    n = len(sigmas)
    if variable_t:
        K = len(params) // 2
        phis, times = params[:K], params[K:]
        angles = np.multiply.outer(times, sigmas)
        st, ct = np.sin(angles), np.cos(angles)          # (K, N)
    else:
        K = len(params)
        phis = params
        st, ct = np.sin(sigmas), np.cos(sigmas)          # (N,), every step's
    e = np.exp(1j * phis)[:, None]
    w = -1j * st * e                                     # (K, N)
    c = np.concatenate([ct, ct[..., ::-1]], axis=-1).astype(complex)
    if not variable_t:
        c = [c] * K
    y = np.empty((K + 1, 2 * n), dtype=complex)
    y[0, :n], y[0, n:] = 1.0, 0.0
    _chain(y, c, np.concatenate([w, w[:, ::-1]], axis=1))
    pa, pb = y[:, :n], y[:, n:][:, ::-1]
    ta, tb = target
    res = _rows(pa[K] - ta, pb[K] - tb, metric)

    def jacobian():
        z = np.empty_like(y)
        z[K, :n], z[K, n:] = 1.0, 0.0
        _chain(z[::-1], c[::-1], np.concatenate([np.conj(w), w[:, ::-1]], axis=1)[::-1],
               chain_first=True)
        qa, qb = z[1:, :n], z[1:, n:][:, ::-1]
        # each step's derivative by phi, then by t
        derivs = [(0.0, st * e)]
        if variable_t:
            derivs.append((-sigmas * st, -1j * sigmas * ct * e))
        cols = [_pair_product(*_pair_product(qa, qb, da, db), pa[:-1], pb[:-1])
                for da, db in derivs]
        a, b = (np.concatenate(part) for part in zip(*cols))
        # transposed, so Fortran-ordered: the memory order of the Jacobian
        # changes the solver's round-off, hence its steps
        return _rows(a, b, metric).T

    return res, jacobian


def _node_residuals(res, metric) -> np.ndarray:
    """Per-node residuals read off stacked rows of _rows (the residual vector
    of _residual_jacobian among them): the norm of a node's rows over their
    scale.  For 'corner' that is |U - T| of the lower-left entry, for 'full'
    sqrt(|da|^2 + |db|^2), the 2x2 spectral norm of U - T."""
    parts = res.reshape(2 if metric == "corner" else 4, -1)
    return np.sqrt(np.sum(parts**2, axis=0)) / _ROW_SCALE[metric]


def _max_node_residual(res, metric) -> float:
    """Max of _node_residuals: read off the solver's residual vector, it
    needs no evaluation of the objective again."""
    return float(np.max(_node_residuals(res, metric)))


def _grid(f: TargetFunction, n: int):
    """(nodes, target): n Chebyshev nodes on f's domain, the pair of f's
    reduced target there."""
    nodes = chebyshev_grid(f.sigma_lo, f.sigma_hi, n)
    return nodes, reduced_target(f(nodes))


def _residuals(schedule: PhaseSchedule, sigmas, target, metric) -> np.ndarray:
    """Per-node residuals of the schedule against the target pair under the
    metric."""
    a, b = _step_pairs(schedule.phis(), schedule.times(), sigmas)
    ta, tb = target
    return _node_residuals(_rows(a - ta, b - tb, metric), metric)


def _starts(rng, n_phi, n_t, count, t_range):
    """Zero phases with unit times, then count random starts: phases uniform
    on (-pi, pi), times uniform on t_range."""
    starts = [np.concatenate([np.zeros(n_phi), np.ones(n_t)])]
    starts += [np.concatenate([rng.uniform(-np.pi, np.pi, n_phi),
                               rng.uniform(*t_range, n_t)]) for _ in range(count)]
    return starts


def _cancel_pairs(phases, count):
    """phases followed by count canceling pairs (phi, phi + pi), each on the
    last phase: a fixed-t schedule's product does not change."""
    ph = list(phases)
    for _ in range(count):
        ph.extend([ph[-1], ph[-1] + np.pi])
    return np.asarray(ph)


class _CachedObjective:
    """Memoizes the residual per parameter vector, and builds its Jacobian
    only when the solver asks, at most once per vector.

    With a fold S (see _sym_fold) the parameters are half-space vectors y:
    the residual is the one at S @ y, and the Jacobian is J S.
    """

    def __init__(self, sigmas, target, variable_t, metric, fold=None):
        self.args = (sigmas, target, variable_t, metric)
        self.fold = fold
        self._key = None

    def _eval(self, params):
        key = params.tobytes()
        if key != self._key:
            x = params if self.fold is None else self.fold @ params
            self._res, self._jacobian = _residual_jacobian(x, *self.args)
            self._jac = None
            self._key = key

    def residual(self, params):
        self._eval(params)
        return self._res

    def jacobian(self, params):
        self._eval(params)
        if self._jac is None:
            # drop the pass with the chains it holds once it has run
            jac, self._jacobian = self._jacobian(), None
            # J S, kept Fortran-ordered like J: the memory order of the
            # Jacobian changes the solver's round-off, hence its steps
            self._jac = jac if self.fold is None else (self.fold.T @ jac.T).T
        return self._jac


class _Search(tuple):
    """What _solve_fixed_degree returns: the tuple (max node residual, x,
    nfev, stop reason), and in costs the cost after each iteration of the
    best start's solve (empty if that start needed none)."""

    def __new__(cls, mx, x, nfev, reason, costs):
        search = super().__new__(cls, (mx, x, nfev, reason))
        search.costs = costs
        return search


def _solve_fixed_degree(k, sigmas, target, opts: SolverOptions, inits, max_nfev,
                        fold=None):
    """Best local minimum over the given initial points.

    Returns a _Search: (max node residual, x, nfev, stop reason of the best
    start), with the cost after each iteration of the best start's solve.
    Without a fold this searches the full space.  With fold = _sym_fold(k, ...)
    it searches the symmetric half space: inits and the returned vector are
    half-space vectors y, with full parameters S @ y.

    A start whose max node residual reaches MARGIN * target_eps ends the
    search, and so does each solve: a start that already meets it is not
    solved, and the solve stops at the first iterate that does.  With
    target_eps = 0 every solve runs to tolerance or max_nfev.
    """
    # x_scale is passed explicitly, so that a change of scipy's default cannot
    # move the schedules the solves reproduce.  Variable-t: unit scaling for
    # the polish, Jacobian scaling for the half-space stages.  Fixed-t: the
    # other way round.
    if fold is None:
        n_phi, tol = k, 3e-16
        x_scale = 1.0 if opts.variable_t else "jac"
    else:
        n_phi, tol = k // 2, 1e-15
        x_scale = "jac" if opts.variable_t else 1.0
    stop = MARGIN * opts.target_eps
    if opts.variable_t:
        n_t = len(inits[0]) - n_phi
        lb = np.concatenate([np.full(n_phi, -2 * np.pi), np.full(n_t, T_MIN)])
        ub = np.concatenate([np.full(n_phi, 2 * np.pi), np.full(n_t, T_MAX)])
        bounds = (lb, ub)
    else:
        bounds = (-np.inf, np.inf)
    early = stop > 0.0
    obj = _CachedObjective(sigmas, target, opts.variable_t, opts.metric, fold)
    # no component exceeds _ROW_SCALE times its node's residual, so an
    # iterate with a larger one cannot stop: it skips the per-node norms
    screen = _ROW_SCALE[opts.metric] * stop * (1 + 1e-9)

    def done(intermediate_result):
        costs.append(intermediate_result.cost)
        fun = intermediate_result.fun
        if not early or np.max(np.abs(fun)) > screen:
            return
        if _max_node_residual(fun, opts.metric) <= stop:
            raise StopIteration

    best = None
    nfev_total = 0
    for x0 in inits:
        x0 = np.clip(x0, bounds[0] + 1e-12, bounds[1] - 1e-12)
        costs = []
        # memoized: least_squares' own first evaluation of x0 reuses it
        mx = _max_node_residual(obj.residual(x0), opts.metric) if early else np.inf
        if mx <= stop:
            x, reason = x0, "eps"
            nfev_total += 1
        else:
            sol = least_squares(obj.residual, x0, jac=obj.jacobian, method="trf",
                                bounds=bounds, xtol=tol, ftol=tol, gtol=tol,
                                x_scale=x_scale, max_nfev=max_nfev, callback=done)
            nfev_total += sol.nfev
            x, reason = sol.x, _STOP_REASONS.get(sol.status, "tolerance")
            mx = _max_node_residual(sol.fun, opts.metric)
        if best is None or mx < best[0]:
            best = (mx, x, reason, costs)
        if best[0] <= stop:
            break
    return _Search(best[0], best[1], nfev_total, best[2], best[3])


# ---------------------------------------------------------------------------
# Symmetric search space
#
# The reduced target matrix is symmetric (equal corners), and a schedule whose
# phases are anti-palindromic (phi_j = -phi_{K+1-j}) with palindromic times
# produces an exactly symmetric product.  Searching this halved space is much
# better conditioned; the result then seeds an unrestricted final polish.
# ---------------------------------------------------------------------------


def _sym_fold(k, variable_t):
    """Constant +-1 matrix S taking a half-space vector y to full parameters S @ y.

    y holds the first k // 2 phases, then (variable-t) the first k // 2 times
    and, for odd k, the middle time.  S mirrors the phases negated around a
    zero middle phase and the times unchanged.
    """
    m, mid = divmod(k, 2)
    j = np.arange(m)
    if not variable_t:
        s = np.zeros((k, m))
    else:
        s = np.zeros((2 * k, 2 * m + mid))
        s[k + j, m + j] = 1.0
        s[2 * k - 1 - j, m + j] = 1.0
        if mid:
            s[k + m, 2 * m] = 1.0
    s[j, j] = 1.0
    s[k - 1 - j, j] = -1.0
    return s


def _sym_grow(y, k, grow_by, variable_t):
    """Extend a nonempty half-space solution to degree k + 2*grow_by, product
    preserved.

    Variable-t schedules split their largest steps in two (same phase, half
    the time); fixed-t half vectors append grow_by // 2 canceling
    (phi, phi + pi) pairs, so grow_by must be even there.
    """
    m = k // 2
    if variable_t:
        ph, tau = list(y[:m]), list(y[m:2 * m])
        for _ in range(grow_by):
            j = int(np.argmax(tau))
            ph.insert(j + 1, ph[j])
            half = tau[j] / 2.0
            tau[j] = half
            tau.insert(j + 1, half)
        return np.concatenate([ph, tau, y[2 * m:]]), k + 2 * grow_by
    return _cancel_pairs(y[:m], grow_by // 2), k + 2 * grow_by


def _descending(costs) -> bool:
    """Whether a solve's cost fell by at least DESCENT over the last eighth of
    its iterations."""
    back = len(costs) // 8
    return back > 0 and bool(costs[-1] <= (1.0 - DESCENT) * costs[-1 - back])


def _stage_solve(k, f, opts, inits, max_nfev):
    """Solve one continuation stage on its own (coarser) Chebyshev grid.

    Each solve may spend max_nfev evaluations.  While a fixed-t stage's best
    solve stopped at that cap with its cost still falling (_descending), the
    stage is solved again from where it stopped, until a solve meets
    MARGIN * target_eps, ends on a tolerance, stops improving the max node
    residual or the stage has spent opts.max_nfev evaluations in all.
    Variable-t stages are solved once.  Returns (max node residual, y, nfev,
    stop reason) of the best solve, nfev counting every solve.
    """
    sigmas, target = _grid(f, max(2 * k, 16))
    fold = _sym_fold(k, opts.variable_t)
    search = _solve_fixed_degree(k, sigmas, target, opts, inits, max_nfev, fold=fold)
    mx, y, nfev, reason = search
    while (not opts.variable_t and reason == "cap" and _descending(search.costs)
           and nfev < opts.max_nfev):
        search = _solve_fixed_degree(k, sigmas, target, opts, [y],
                                     min(max_nfev, opts.max_nfev - nfev), fold=fold)
        nfev += search[2]
        if search[0] >= mx:
            break
        mx, y, _, reason = search
    return mx, y, nfev, reason


def _continuation(f, k, opts, rng):
    """Grow a symmetric solution from low degree up to k.

    Yields (degree, x, max stage residual, nfev so far) after each stage, x
    the full parameter vector.  A stage's solve may spend 400 evaluations (or
    opts.max_nfev if fewer); a fixed-t stage that spends them while still
    descending keeps solving (see _stage_solve) before the stream grows.  A
    fixed-t stream to k >= 4 passes through each k' >= 4 below k with
    k' = k (mod 4), yielding what a stream to k' would.
    """
    m, mid = divmod(k, 2)
    if opts.variable_t:
        m0 = min(m, 4)
    else:
        # low-degree cold starts find the right basin; pair growth needs
        # the starting half-size to match the parity of the final one, so
        # every fixed-t stage grows by exactly one pair
        m0 = min(m, 2 + (m % 2))
    inits = _starts(rng, m0, m0 + mid if opts.variable_t else 0, 2, (0.5, 2.5))
    stage_nfev = min(opts.max_nfev, 400)
    kc, nfev = 2 * m0 + mid, 0
    while True:
        mx, y, nf, _ = _stage_solve(kc, f, opts, inits, stage_nfev)
        nfev += nf
        yield kc, _sym_fold(kc, opts.variable_t) @ y, mx, nfev
        if kc >= k:
            return
        y, kc = _sym_grow(y, kc, min(2, m - kc // 2), opts.variable_t)
        inits = [y]


def _report(x, sigmas, target, opts: SolverOptions, nfev, stop_reason,
            f: TargetFunction):
    """(schedule, report) for a full parameter vector on the given grid of f,
    whose sigma_hi gives the report's noise_gain."""
    schedule = schedule_from_arrays(*(np.split(x, 2) if opts.variable_t else [x]))
    residuals = _residuals(schedule, sigmas, target, opts.metric)
    max_residual = float(np.max(residuals))
    report = SynthesisReport(
        grid=sigmas,
        residual_per_node=residuals,
        max_residual=max_residual,
        target_eps=opts.target_eps,
        iterations=nfev,
        converged=max_residual <= opts.target_eps,
        metric=opts.metric,
        stop_reason=stop_reason,
        noise_gain=float(f.sigma_hi * np.linalg.norm(schedule.times())),
    )
    return schedule, report


def synthesize_schedule(f: TargetFunction, k: int, grid_size: int | None = None,
                        opts: SolverOptions | None = None):
    """Find a degree-k schedule approximating the target of f on its domain.

    Returns (PhaseSchedule, SynthesisReport).  Non-convergence is not an
    error: the best schedule is returned with converged=False.  An explicit
    degree asks for the best schedule there, so no solve stops at eps.  For
    k >= 6 a symmetric continuation warm-starts one solve; when that misses
    eps (and always for k < 6), one deterministic start and RESTARTS random
    ones are solved too, and the best result wins.  eps also decides whether
    the report converged.
    """
    opts = opts or SolverOptions()
    k = linalg.as_count(k, "degree k")
    grid_size = linalg.as_count(4 * k if grid_size is None else grid_size,
                                "grid_size", least=2 * k)
    sigmas, target = _grid(f, grid_size)
    rng = np.random.default_rng(opts.seed)
    nfev_total = 0
    solve_opts = replace(opts, target_eps=0.0)

    x = None
    if k >= 6:
        *_, (_, warm, _, nfev_total) = _continuation(f, k, solve_opts, rng)
        mx, x, nf, reason = _solve_fixed_degree(k, sigmas, target, solve_opts,
                                                [warm], opts.max_nfev)
        nfev_total += nf
    if x is None or mx > opts.target_eps:
        fallback = _starts(rng, k, k if opts.variable_t else 0, RESTARTS, (0.3, 2.0))
        mx2, x2, nf, reason2 = _solve_fixed_degree(k, sigmas, target, solve_opts,
                                                   fallback, opts.max_nfev)
        nfev_total += nf
        if x is None or mx2 < mx:
            mx, x, reason = mx2, x2, reason2
    return _report(x, sigmas, target, opts, nfev_total, reason, f)


def synthesize_to_accuracy(f: TargetFunction, eps: float,
                           opts: SolverOptions | None = None):
    """Grow the schedule degree only as far as needed for accuracy eps.

    Reads the symmetric continuation up to the first stage whose residual on
    its grid meets MARGIN * eps, polishes it on a fresh 4k grid and returns
    (PhaseSchedule, SynthesisReport) evaluated there.
    The degree budget is three times the truncation-law estimate, and at
    least 16: the synthesized rate runs below the truncation rate by roughly
    a factor two.
    """
    k_max = max(3 * degree_for_accuracy(f.x_gap(), eps).k, 16)
    opts = replace(opts or SolverOptions(), target_eps=eps)
    for kc, warm, mx, nfev in _continuation(f, k_max, opts,
                                             np.random.default_rng(opts.seed)):
        if mx <= MARGIN * eps:
            break
    grid, target = _grid(f, 4 * kc)
    _, x, nf, reason = _solve_fixed_degree(kc, grid, target, opts, [warm],
                                           opts.max_nfev)
    return _report(x, grid, target, opts, nfev + nf, reason, f)


def degree_sweep(f: TargetFunction, ks, opts: SolverOptions | None = None):
    """Synthesize at each degree in ks, chaining warm starts across degrees.

    Residuals are measured on one shared dense evaluation grid so the sweep
    is comparable across degrees.  Each degree is seeded both by the previous
    solution (extended with canceling pairs, which preserves the product) and
    by its stage of a symmetric continuation (see _continuation: run from the
    largest degree down, each stage is solved once).  A degree above the
    previous one whose residual does not beat the previous one is re-solved
    from jittered starts.
    Returns a list of (k, max_residual, schedule) sorted as given, [] for no ks.
    """
    ks = [linalg.as_count(k, "degree") for k in ks]
    opts = replace(opts or SolverOptions(), target_eps=0.0)  # never stop a point early
    if opts.variable_t:
        raise InvalidInputError("degree_sweep runs in fixed-t mode")
    sigmas, target = _grid(f, max(2 * max(ks, default=0), 64))
    eval_grid, eval_target = _grid(f, 201)

    def eval_res(x):
        return float(np.max(_residuals(schedule_from_arrays(x), eval_grid,
                                       eval_target, opts.metric)))

    warm = {}
    for k in sorted(set(ks), reverse=True):
        if k not in warm:
            warm.update((kc, xc) for kc, xc, _, _ in _continuation(
                f, k, opts, np.random.default_rng(opts.seed + 1)))
    rng = np.random.default_rng(opts.seed)
    out = []
    x = None
    prev_res = None
    for k in ks:
        grew = x is not None and k > len(x)
        inits = []
        if x is not None and len(x) <= k and (k - len(x)) % 2 == 0:
            inits.append(_cancel_pairs(x, (k - len(x)) // 2))
        inits.append(warm[k])
        _, x, _, _ = _solve_fixed_degree(k, sigmas, target, opts, inits,
                                         min(opts.max_nfev, 700))
        r = eval_res(x)
        tries = 0
        while grew and r >= prev_res and tries < 4:
            jitter = [inits[0] + rng.normal(0.0, 0.1 * (tries + 1), k)
                      for _ in range(2)]
            _, x2, _, _ = _solve_fixed_degree(k, sigmas, target, opts, jitter,
                                              opts.max_nfev)
            r2 = eval_res(x2)
            if r2 < r:
                x, r = x2, r2
            tries += 1
        prev_res = r
        out.append((k, r, schedule_from_arrays(x)))
    return out


def schedule_cost(schedule: PhaseSchedule) -> tuple[float, int]:
    """(total evolution time, step count)."""
    return (float(np.sum(schedule.times())), schedule.degree)
