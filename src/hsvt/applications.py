"""Applications of inverse block encoding.

Everything here runs in one of two backends, each a source of one SU(2)
pair per singular value of A:

* ``exact``    - the closed form's pairs, read off A's one SVD,
* ``protocol`` - the pairs of a compiled phase schedule's steps.

Both are written into the full space by the simulator's one assembly
(protocol._pair_unitary), which puts the identity on the kernels; the
exact backend takes no eigendecomposition.  The assembly writes a block
column at a time, and cascades, ODE solves, applies and history states
read only the left one, the blocks that act on (x, 0), so each call
builds only that column, once.  The protocol backend takes its pairs from
the routine simulate_protocol runs (protocol._protocol_pairs).  Each call
decomposes A once: the embedding (in the protocol backend, the domain
check) takes the SVD and carries it to the assembly.
A call's fixed costs are paid once: its entry point checks each input in
one finite pass, a domain's identity target is built once (_domain_target)
and a compiled schedule's memo hit builds no options.  A cascade of n
steps fills one (n + 1, d) array: the powers of the unitary's lower block
by repeated squaring, about 2 log2(n) small matrix products written in
place, then every register block from one more product.

States are plain 1-D complex arrays; norms are reported, never forced.
Register phases: each application of the block unitary multiplies both
output blocks by the global factor i, which is deterministic bookkeeping
on the ancilla register; the cascade strips it (multiplies by -i) so block
k literally carries sqrt(I - Ad A) A^k psi and the last block A^n psi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import compiler, embedding, linalg, protocol, targets
from .compiler import PhaseSchedule, SolverOptions
from .errors import (ConvergenceError, GeneratorError, InvalidInputError,
                     NormalizationError, PreconditionError,
                     SingularInversionError, ZeroProbabilitySignal)
from .protocol import ProtocolResult, TargetUnitary
from .targets import TargetFunction

DEFAULT_DOMAIN = (0.1, 0.9)
HISTORY_SCALE = 0.75
ZERO_PROB_TOL = 1e-14
STATE_NORM_TOL = 1e-10
SCHEDULE_MEMO_SIZE = 32         # compiled schedules (and domain targets) kept per process
# compiled_schedule's options when none are given; frozen, so one object serves
_DEFAULT_OPTS = SolverOptions(variable_t=True)


def _as_state(psi) -> np.ndarray:
    v = np.asarray(psi, dtype=complex).reshape(-1)
    if v.size == 0 or not np.isfinite(v).all():
        raise InvalidInputError("state must be a nonempty finite vector")
    return v


def amplification_rounds(p: float) -> int:
    """ceil(pi / (4 sqrt(p))), the amplitude-amplification iteration count.

    Bookkeeping only; no amplification operator is ever constructed.
    """
    if linalg.as_real(p, "p") <= 0.0:
        raise ZeroProbabilitySignal("success probability is zero")
    return int(math.ceil(math.pi / (4.0 * math.sqrt(p))))


def compiled_schedule(f: TargetFunction, eps: float,
                      opts: SolverOptions | None = None) -> PhaseSchedule:
    """Compile (and memoize) a schedule for f to accuracy eps.

    Degree grows adaptively within the compiler's degree budget (see
    compiler.synthesize_to_accuracy); a schedule that misses eps raises
    ConvergenceError.  The memo is keyed on all solver options.
    """
    opts = opts or _DEFAULT_OPTS
    eps = linalg.as_real(eps, "eps", least=0)
    if opts.target_eps != eps:
        opts = replace(opts, target_eps=eps)
    return _compile_memoized(f, opts)


@functools.lru_cache(maxsize=SCHEDULE_MEMO_SIZE)
def _compile_memoized(f: TargetFunction, opts: SolverOptions) -> PhaseSchedule:
    # lru_cache stores no result for a call that raises, so a
    # ConvergenceError is raised again on every retry
    schedule, report = compiler.synthesize_to_accuracy(f, opts.target_eps, opts=opts)
    if not report.converged:
        raise ConvergenceError(
            f"synthesis reached residual {report.max_residual:.3e} > "
            f"{opts.target_eps:.3e} at degree {schedule.degree}"
        )
    return schedule


@functools.lru_cache(maxsize=SCHEDULE_MEMO_SIZE)
def _domain_target(*domain) -> TargetFunction:
    """The identity on domain, built once per domain: TargetFunction checks
    f at the domain's ends on every construction.  lru_cache stores no
    exception, so a bad domain raises on every call."""
    return targets.identity(*domain)


def _embed_in_domain(a, f: TargetFunction) -> embedding.BlockHamiltonian:
    """A's embedding from one SVD of the array A its caller validated, or
    from the one an embedding of A carries; singular values outside f's
    domain raise PreconditionError before the embedding's own checks."""
    if isinstance(a, embedding.BlockHamiltonian):
        a, res = a.a_block, a.svd
    else:
        res = linalg.svd(a)
    s = res.singulars
    if not np.all(f.in_domain(s)):
        raise PreconditionError(
            f"singular values span [{s.min():.6g}, {s.max():.6g}], outside "
            f"the synthesis domain [{f.sigma_lo:.6g}, {f.sigma_hi:.6g}]"
        )
    return embedding.BlockHamiltonian(a_block=a, svd=res)


def inverse_block_encode(a, eps: float, domain=DEFAULT_DOMAIN,
                         opts: SolverOptions | None = None):
    """Identity-f pipeline: compile, simulate, and return the full triple.

    Returns (PhaseSchedule, ProtocolResult, TargetUnitary); the result's
    achieved_eps is the operator distance to the closed-form target.
    """
    a = linalg.as_complex_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise PreconditionError(
            "inverse block encoding needs a square block: the unitary acts "
            "as the identity on unpaired singular directions, which the "
            "anti-Hermitian target never does"
        )
    f = _domain_target(*domain)
    h = _embed_in_domain(a, f)
    schedule = compiled_schedule(f, eps, opts)
    target = protocol.build_target_unitary(h, f)
    result = protocol.simulate_protocol(h, schedule, target=target)
    return schedule, result, target


# ---------------------------------------------------------------------------
# Matrix application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApplyResult:
    state: np.ndarray            # normalized A psi
    success_prob: float          # <psi| Ad A |psi>
    amplification: int           # ceil(pi / (4 sqrt(p)))


def _block_column(a, backend: str, eps: float, domain,
                  opts: SolverOptions | None = None) -> np.ndarray:
    """The left block column of the block unitary that carries A, in the
    chosen backend.  Each backend gives one SU(2) pair per singular value
    to the simulator's assembly (protocol._pair_unitary): exact reads the
    closed form's pairs off the one SVD, at min(sigma, 1) since embed
    admits round-off above 1; protocol runs the schedule compiled for the
    identity on domain."""
    if backend == "exact":
        h = embedding.embed(a)
        pairs = compiler.reduced_target(np.minimum(h.svd.singulars, 1.0))
        return protocol._pair_unitary(h, *pairs, left_only=True)
    if backend == "protocol":
        return _protocol_column(a, _domain_target(*domain), eps, opts)
    raise InvalidInputError(f"unknown backend {backend!r}")


def _protocol_column(a, f: TargetFunction, eps: float,
                     opts: SolverOptions | None = None) -> np.ndarray:
    """The left block column of one run of the schedule compiled for f, on
    A's embedding (its singular values checked against f's domain)."""
    h = _embed_in_domain(a, f)
    pairs = protocol._protocol_pairs(h, compiled_schedule(f, eps, opts))
    return protocol._pair_unitary(h, *pairs, left_only=True)


def _stripped_blocks(u: np.ndarray, n: int):
    """(sqrt-complement block, f(A) block) of u's first n columns, the
    blocks that act on (x, 0) for x of size n, with the block unitary's
    deterministic global factor i stripped."""
    column = -1j * u[:, :n]
    return column[:n], column[n:]


def apply_matrix(a, psi, backend: str = "exact", eps: float = 1e-3,
                 domain=DEFAULT_DOMAIN) -> ApplyResult:
    a = linalg.as_complex_matrix(a, "A")
    psi = _as_state(psi)
    if abs(np.linalg.norm(psi) - 1.0) > STATE_NORM_TOL:
        raise InvalidInputError("apply_matrix expects a unit-norm state")
    if psi.size != a.shape[1]:
        raise InvalidInputError(
            f"state dimension {psi.size} does not match A columns {a.shape[1]}")
    u = _block_column(a, backend, eps, domain)
    lower = _stripped_blocks(u, psi.size)[1] @ psi
    p = float(np.real(np.vdot(lower, lower)))
    if p < ZERO_PROB_TOL:
        raise ZeroProbabilitySignal("A annihilates the input state")
    return ApplyResult(state=lower / math.sqrt(p), success_prob=p,
                       amplification=amplification_rounds(p))


# ---------------------------------------------------------------------------
# Power cascade / ODE / history state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeState:
    """n+1 equal-dimension register blocks of the deterministic cascade,
    as the rows of one (n + 1, d) array.

    Block k < n carries sqrt(I - Ad A) A^k psi, block n carries A^n psi.
    """

    blocks: np.ndarray

    def block(self, j: int) -> np.ndarray:
        return self.blocks[j]

    def total_norm_sq(self) -> float:
        return float(np.real(np.vdot(self.blocks, self.blocks)))


def power_cascade(a, psi, n: int, backend: str = "exact", eps: float = 1e-3,
                  domain=DEFAULT_DOMAIN, opts: SolverOptions | None = None):
    """The block unitary applied along n register pairs; returns the n+1
    blocks and the probability of finding the last register occupied.
    Block k < n is the upper block times lower^k psi, block n is
    lower^n psi.  A may be given as its embedding, whose SVD both backends
    then reuse.
    """
    h = a if isinstance(a, embedding.BlockHamiltonian) else None
    a = linalg.as_complex_matrix(a, "A") if h is None else h.a_block
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("power cascade needs a square matrix")
    n = linalg.as_count(n, "n")
    psi = _as_state(psi)
    if psi.size != a.shape[1]:
        raise InvalidInputError("state dimension does not match A")
    u = _block_column(a if h is None else h, backend, eps, domain, opts)
    upper, lower = _stripped_blocks(u, psi.size)
    # row k of blocks is filled with lower^k psi; each pass writes the next
    # rows as held rows times step = (lower^T)^(2^j), doubling the rows held
    blocks = np.empty((n + 1, psi.size), dtype=complex)
    blocks[0] = psi
    step, held = lower.T, 1
    while held <= n:
        take = min(held, n + 1 - held)
        np.matmul(blocks[:take], step, out=blocks[held:held + take])
        held += take
        if held <= n:
            step = step @ step
    np.matmul(blocks[:n], upper.T, out=blocks[:n])
    last = blocks[n]
    return CascadeState(blocks=blocks), float(np.real(np.vdot(last, last)))


@dataclass(frozen=True)
class OdeProblem:
    b: np.ndarray
    dt: float
    steps: int
    psi0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", linalg.as_complex_matrix(self.b, "B"))
        object.__setattr__(self, "psi0", _as_state(self.psi0))
        object.__setattr__(self, "dt",
                           linalg.as_real(self.dt, "dt", least=0, strict=True))
        object.__setattr__(self, "steps", linalg.as_count(self.steps, "steps"))
        if self.b.shape[0] != self.b.shape[1]:
            raise InvalidInputError("B must be square")
        if self.psi0.size != self.b.shape[0]:
            raise InvalidInputError("psi0 dimension does not match B")

    def euler_matrix(self) -> np.ndarray:
        return np.eye(self.b.shape[0], dtype=complex) + self.b * self.dt


def ode_solve(problem: OdeProblem, backend: str = "exact", eps: float = 1e-3,
              domain=DEFAULT_DOMAIN):
    """Forward-Euler evolution as a power cascade of A = I + B dt.

    The final register holds (I + B dt)^steps psi0; its squared norm is the
    probability of projecting onto the solution at time T = steps * dt.
    A's embedding, from its one SVD, refuses sigma_max > 1 (GeneratorError).
    """
    a = problem.euler_matrix()
    try:
        h = embedding.BlockHamiltonian(a_block=a, svd=linalg.svd(a))
    except NormalizationError as exc:
        worst = float(np.max(np.linalg.eigvalsh(problem.b + problem.b.conj().T)))
        raise GeneratorError(sigma_max=exc.sigma_max, worst_eig=worst) from None
    cascade, _ = power_cascade(h, problem.psi0, problem.steps, backend=backend,
                               eps=eps, domain=domain)
    return cascade, cascade.block(problem.steps)


@dataclass(frozen=True)
class HistoryResult:
    history: np.ndarray          # normalized concat of A^k psi over k = 0..n
    success_prob: float          # squared norm of the rescaled raw state
    kappa_tilde: float           # sigma_max / sigma_min of sqrt(I - Ad A)
    amplification: int


def history_state(a, psi, n: int, eps: float = 1e-3,
                  backend: str = "exact") -> HistoryResult:
    """Normalized sum_k A^k psi |k> via singular-value inversion.

    The cascade leaves sqrt(I - Ad A) A^k psi in blocks 0..n-1; applying
    c / s to the singular values s of S = sqrt(I - Ad A) (with c = the
    smallest s, so the transformation stays a contraction) and scaling the
    last block by the same c yields c times the history state.  The squared
    norm of that vector is the reported success probability; it is
    Omega(1 / kappa_tilde^2), and the amplification bookkeeping recovers
    the O(kappa_tilde) round count.  The one SVD of A gives sigma_max, the
    cascade's embedding and S = R diag(s) R^dag with s = sqrt(1 - sigma^2):
    S's spectrum, exact inverse and protocol-backend SVD are s and R.
    """
    a = linalg.as_complex_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise InvalidInputError("history state needs a square matrix")
    n = linalg.as_count(n, "n")
    psi = _as_state(psi)
    if psi.size != a.shape[1]:
        raise InvalidInputError("state dimension does not match A")
    with np.errstate(over="ignore"):
        weight = float(np.real(np.vdot(psi, psi)))
    if weight == 0.0:           # psi = 0, or its squared norm underflows
        raise ZeroProbabilitySignal("history state has zero weight")
    if weight == math.inf:
        raise InvalidInputError("history state's squared norm overflows")
    res = linalg.svd(a)
    sigma_max = float(res.singulars[0])
    if sigma_max > 1.0 - 1e-6:
        raise SingularInversionError(
            f"sigma_max(A) = {sigma_max:.8g} leaves sqrt(I - Ad A) "
            "numerically singular (kappa_tilde -> inf)"
        )
    # descending s, with R's columns in the same order
    s = np.sqrt(1.0 - res.singulars[::-1] ** 2)
    r = res.right_vectors[:, ::-1]
    s_max, s_min = float(s[0]), float(s[-1])
    kappa = s_max / s_min
    h = embedding.BlockHamiltonian(a_block=a, svd=res)
    cascade, _ = power_cascade(h, psi, n, backend=backend, eps=eps)

    if backend == "exact":
        c = s_min
        inv = (r * (c / s)) @ r.conj().T
    else:       # "protocol"; the cascade refused any other backend
        # S is Hermitian PSD, so embedding S itself and applying c/s to its
        # singular values inverts it without a residual polar rotation.
        lo = max(1e-3, 0.98 * s_min)
        hi = min(1.0 - 1e-6, 1.02 * s_max)
        # keep c / s well below the cap: synthesis stiffens badly when the
        # target approaches 1 and the complementary sqrt(1 - f^2) approaches 0
        c = HISTORY_SCALE * lo
        f_inv = targets.scaled_power(-1.0, c, lo, hi)
        s_h = embedding.BlockHamiltonian(
            a_block=(r * s) @ r.conj().T, svd=linalg.SvdResult(s, r, r))
        _, inv = _stripped_blocks(_protocol_column(s_h, f_inv, eps), psi.size)

    raw = cascade.blocks[:n] @ inv.T
    vec = np.concatenate((raw.reshape(-1), c * cascade.block(n)))
    p = float(np.real(np.vdot(vec, vec))) / weight
    return HistoryResult(history=vec / np.linalg.norm(vec), success_prob=p,
                         kappa_tilde=kappa,
                         amplification=amplification_rounds(p))
