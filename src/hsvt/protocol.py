"""Protocol simulation and target-unitary construction.

simulate_protocol runs the alternating sequence

    prod_k exp(-i G_{phi_k} t_k),   G_phi = e^{i phi Z/2} H e^{-i phi Z/2}

on the whole direct-sum space, with an optional multiplicative error on
each step time (the dominant control-field error channel: the relative
accuracy of each pulse's time integral).  Every step preserves the plane
of each singular pair (r_j, l_j) of A and is the identity on
ker A (+) ker A^dag, so the product is I + B (P - I) B^dag, with
B = [r_j (+) 0, 0 (+) l_j] and P_j the compiler's 2x2 step product at
sigma_j: the embedding's SVD, the 2x2 products (multiplied as a balanced
tree of SU(2) pairs, compiler._step_pairs, in _protocol_pairs), then the
one assembly (_pair_unitary), which writes a block column at a time with
one rank-r product each.  The applications read only the left block
column, so their two backends ask the assembly for that column alone:
exact with the closed form's pairs, protocol with _protocol_pairs, the
routine simulate_protocol runs.
build_target_unitary assembles the closed-form goal

    U_f = i * [[ sqrt(I - f(Ad) f(A)),  f(Ad) ],
               [ f(A),                 -sqrt(I - f(A) f(Ad)) ]]

which is unitary and anti-Hermitian at once; the global factor i is part
of the contract and verification uses plain operator distance, never a
phase-invariant one.  It takes its roots from eigendecompositions and
carries +-i on the kernels, so it stays a dense matrix built apart from
the assembly.  It also keeps the closed form's pairs
(i sqrt(1 - f^2), i f) at A's singular values (TargetUnitary.pairs); a run
keeps its own (ProtocolResult.pairs), and verify and achieved_eps read the
distance of the two from one routine (_target_distance).

noise_sweep builds no full-space matrix.  On the pair (r_j, l_j) of each
singular value sigma_j every step is the SU(2) rotation [[c, w], [-w*, c]]
(c = cos sigma t, w = -i sin(sigma t) e^{i phi}), so a whole run is a pair
(a_j, b_j) in [[a, b], [-b*, a*]], and kernel directions carry the identity.
The distance of two runs is therefore exactly
max_j sqrt(|da_j|^2 + |db_j|^2).  The sweep multiplies the pairs of all
trials step by step (_reduced_corners): over a batch of runs a chain is
faster than a tree, whose levels allocate the whole batch again; the
noiseless run is one more row of the first batch.

Trial i of a sweep draws its step-time noise from
np.random.default_rng(seed + i), bit for bit.  _standard_normals seeds all
trials in one pass: it runs numpy's documented SeedSequence hash on every
seed at once (_seed_states) and hands each trial's four PCG64 seed words to
default_rng, which still seeds the PCG64 and draws the normals.  A
one-seed draw (ControlNoiseModel) takes the same pass, about 0.1 ms.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import linalg
from .compiler import PhaseSchedule, _pair_product, _step_pairs, reduced_target
from .embedding import BlockHamiltonian, embed
from .errors import CapError, InvalidInputError
from .targets import TargetFunction


@dataclass(frozen=True)
class TargetUnitary:
    matrix: np.ndarray
    embedding: BlockHamiltonian
    f: TargetFunction
    pairs: tuple                # (a, b) per singular value: compiler.reduced_target


@dataclass(frozen=True)
class ControlNoiseModel:
    eta: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eta", linalg.as_real(self.eta, "eta", least=0))
        object.__setattr__(self, "seed", linalg.as_count(self.seed, "seed", least=0))

    def time_factors(self, count: int) -> np.ndarray:
        """Per-step multiplicative factors 1 + eta * N(0, 1), in step order."""
        count = linalg.as_count(count, "count", least=0)
        return 1.0 + self.eta * _standard_normals([self.seed], count)[0]


def _standard_normals(seeds, count: int) -> np.ndarray:
    """The noise law's draws: row i holds count N(0, 1) values from
    np.random.default_rng(seeds[i]), bit for bit.  The generators' seed
    words come from one pass over all seeds (_seed_states); numpy still
    seeds each PCG64 from them and draws the normals."""
    try:
        z = np.empty((len(seeds), count))
    except (ValueError, MemoryError):
        raise InvalidInputError(f"{len(seeds)} runs of {count} step-time draws "
                                "are too large to allocate") from None
    for row, words in zip(z, _seed_states(seeds)):
        np.random.default_rng(_SeedWords(words)).standard_normal(out=row)
    return z


class _SeedWords(ISeedSequence):
    """The four uint64 words SeedSequence(s).generate_state(4, np.uint64)
    gives, which is all PCG64 asks of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words
_POOL = 4
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715


def _hash_constants(init: int, mult: int, calls: int):
    """(xor, multiplier) columns of a hash's first calls calls: call j xors
    init * mult^j and then multiplies by init * mult^(j + 1), mod 2^32."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(words, xor, mult):
    """numpy's hashmix (and generate_state's step) with its constants given."""
    v = (words ^ xor) * mult
    return v ^ (v >> _XSHIFT)


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _XSHIFT)


def _seed_states(seeds) -> np.ndarray:
    """(len(seeds), 4) uint64: SeedSequence(s).generate_state(4, np.uint64)
    for each seed s >= 0, with numpy's hash run on all seeds at once.

    A seed's entropy is its little-endian 32-bit words, at least one; the
    first four fill the pool (zeros pad a shorter seed), and each further
    word is mixed into the whole pool for the seeds that have it, those
    with a nonzero word at or above it."""
    seeds = np.array([int(s) for s in seeds], dtype=object)
    n = max(1, -(-int(seeds.max()).bit_length() // 32))
    words = np.zeros((max(n, _POOL), len(seeds)), dtype=np.uint32)
    for i in range(n):
        words[i] = (seeds >> (32 * i)) & _MASK32
    # hash calls: four fill the pool, twelve mix it, four per further word
    xor, mult = _hash_constants(_INIT_A, _MULT_A, 4 * len(words))
    pool = _hash(words[:_POOL], xor[:_POOL], mult[:_POOL])
    for src in range(_POOL):       # mix each word into the other three
        dst = [d for d in range(_POOL) if d != src]
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[calls], mult[calls]))
    for src in range(_POOL, n):
        calls = slice(4 * src, 4 * src + 4)
        mixed = _mix(pool, _hash(words[src], xor[calls], mult[calls]))
        pool = np.where(words[src:].any(axis=0), mixed, pool)
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hash(np.tile(pool, (2, 1)), xor, mult)       # 8 words cycle the pool
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class ProtocolResult:
    unitary: np.ndarray
    embedding: BlockHamiltonian
    pairs: tuple                # (pa, pb) per singular value, assembled into unitary
    achieved_eps: float | None = None


def build_target_unitary(a, f: TargetFunction) -> TargetUnitary:
    """Closed-form target from the SVD of A with f applied to singular values.

    f is evaluated analytically, also for singular values outside the
    synthesis domain (the schedule's accuracy guarantee does not cover
    those; verify reports them separately).  Values |f(sigma)| > 1 leave
    no real complementary square root and raise a cap error.  A may be
    given as its embedding, whose SVD is then reused.
    """
    h = embed(a)                       # validates sigma_max <= 1
    n, m = h.n, h.m
    res = h.svd
    fs = _f_at(f, res.singulars)
    f_a = (res.left_vectors * fs) @ res.right_vectors.conj().T       # m x n
    upper = linalg.sqrt_psd(np.eye(n) - f_a.conj().T @ f_a)
    lower = linalg.sqrt_psd(np.eye(m) - f_a @ f_a.conj().T)
    u = np.zeros((n + m, n + m), dtype=complex)
    u[:n, :n] = 1j * upper
    u[:n, n:] = 1j * f_a.conj().T
    u[n:, :n] = 1j * f_a
    u[n:, n:] = -1j * lower
    return TargetUnitary(matrix=u, embedding=h, f=f, pairs=reduced_target(fs))


def _f_at(f: TargetFunction, sigmas) -> np.ndarray:
    """f at the singular values, clipped to [-1, 1]; beyond round-off a
    value |f| > 1 raises a cap error."""
    fs = np.asarray(f.eval_analytic(sigmas), dtype=float)
    if np.any(np.abs(fs) > 1.0 + 1e-12):
        raise CapError(
            f"|f(sigma)| reaches {np.max(np.abs(fs)):.6g} > 1; "
            "no unitary completion exists"
        )
    return np.clip(fs, -1.0, 1.0)


def _target_distance(h: BlockHamiltonian, pairs, target: TargetUnitary):
    """(operator distance, per-pair distances) of the run I + B (P - I) B^dag
    with pairs (pa, pb) from the target: on pair j the target is the pair
    (i sqrt(1 - f_j^2), i f_j) that build_target_unitary kept (target.pairs),
    so both operators differ there by a pair (da, db) of norm
    sqrt(|da|^2 + |db|^2).  When n + m > 2r a direction outside the pairs
    carries I against +-iI, at distance sqrt 2.  A target built on another A
    than the embedding h carries is refused; the same A embedded apart is not."""
    if target.embedding is not h and not np.array_equal(target.embedding.a_block,
                                                        h.a_block):
        raise InvalidInputError("the target was built on a different A")
    (pa, pb), (ta, tb) = pairs, target.pairs
    per_pair = np.sqrt(np.abs(pa - ta) ** 2 + np.abs(pb - tb) ** 2)
    dist = float(np.max(per_pair))
    return (max(dist, math.sqrt(2.0)) if h.n + h.m > 2 * len(pa) else dist), per_pair


def simulate_protocol(a, schedule: PhaseSchedule,
                      noise: ControlNoiseModel | None = None,
                      target: TargetUnitary | None = None) -> ProtocolResult:
    """Run the full alternating protocol for the embedding of A, one singular
    pair at a time (see the module docstring).

    With a noise model, each step time t_k becomes t_k * (1 + eta_k) with
    eta_k drawn once per run from the model's seed; eta = 0 reproduces the
    noiseless product bit for bit.  A may be given as its embedding, whose
    SVD is then reused.  With a target, achieved_eps is the operator
    distance to it, read pair by pair (_target_distance); a target built on
    another A is refused.
    """
    h = embed(a)
    pairs = _protocol_pairs(h, schedule, noise)
    achieved = None if target is None else _target_distance(h, pairs, target)[0]
    return ProtocolResult(unitary=_pair_unitary(h, *pairs), embedding=h,
                          pairs=pairs, achieved_eps=achieved)


def _protocol_pairs(h: BlockHamiltonian, schedule: PhaseSchedule,
                    noise: ControlNoiseModel | None = None):
    """(pa, pb), the pair of one run of schedule at each singular value of
    the embedding h, with the noise model's step-time factors if given."""
    times = schedule.times()
    if noise is not None:
        times = times * noise.time_factors(schedule.degree)
    return _step_pairs(schedule.phis(), times, h.svd.singulars)


def _pair_unitary(h: BlockHamiltonian, pa, pb, left_only=False) -> np.ndarray:
    """I + B (P - I) B^dag: the pair (pa_j, pb_j) on the plane of singular
    pair j, as [[a, b], [-b*, a*]], and the identity outside the pairs.

    Written a block column at a time, one product each: the left column
    [I_n; 0] + [R (pa - 1); L (-pb*)] R^dag and the right one
    [0; I_m] + [R pb; L (pa* - 1)] L^dag.  With left_only, the result is
    the (n + m) x n left column alone, the blocks that act on (x, 0)."""
    n, res = h.n, h.svd
    r, l = res.right_vectors, res.left_vectors
    u = np.eye(n + h.m, n if left_only else n + h.m, dtype=complex)
    u[:, :n] += np.concatenate([r * (pa - 1.0), l * -np.conj(pb)]) @ r.conj().T
    if not left_only:
        u[:, n:] += np.concatenate([r * pb, l * (np.conj(pa) - 1.0)]) @ l.conj().T
    return u


def verify(result: ProtocolResult, target: TargetUnitary, eps: float) -> dict:
    """Distance record with per-invariant-subspace residuals.

    Each singular pair (sigma_j, r_j, l_j) spans a 2-D subspace preserved by
    both operators; the record lists the restricted distances, flagging
    subspaces whose sigma lies outside the target's synthesis domain.  The
    distances are read off the run's and the target's pairs, as achieved_eps
    is (_target_distance), with no matrix built and no decomposition taken.
    A target built on another A is refused.
    """
    eps = linalg.as_real(eps, "eps", least=0)
    h = result.embedding
    distance, per_pair = _target_distance(h, result.pairs, target)
    sigmas = h.svd.singulars
    return {
        "op_distance": distance, "eps": eps, "passed": distance <= eps,
        "per_subspace": [{"sigma": float(sigma), "residual": float(residual),
                          "in_domain": bool(inside)}
                         for sigma, residual, inside in zip(
                             sigmas, per_pair, target.f.in_domain(sigmas))],
    }


def _reduced_corners(sigmas, phis, times):
    """Corners (a, b) of each run's product [[a, b], [-b*, a*]] at each sigma.

    times is (K,) for one run or (runs, K); a and b are (runs, N).
    """
    times = np.atleast_2d(times)
    w = -1j * np.exp(1j * np.asarray(phis))
    a = np.ones((times.shape[0], len(sigmas)), dtype=complex)
    b = np.zeros_like(a)
    for k in range(times.shape[1]):
        angles = np.multiply.outer(times[:, k], sigmas)
        a, b = _pair_product(np.cos(angles), np.sin(angles) * w[k], a, b)
    return a, b


def noise_sweep(a, schedule: PhaseSchedule, etas, trials: int,
                seed: int = 0) -> list[dict]:
    """Mean/max distance of noisy runs from the noiseless protocol.

    Trial i uses seed + i for every eta (common random numbers): its
    standard normals are drawn once and every eta's row scales them, so
    rows are directly comparable across etas, a sweep builds trials
    generators, and the whole table is deterministic.  Distances are
    computed per singular pair (see the module docstring).  etas is a
    sequence of numbers (a list, a tuple or a 1-D array), checked before
    any draw.
    """
    trials = linalg.as_count(trials, "trials")
    seed = linalg.as_count(seed, "seed", least=0)
    sigmas = embed(a).svd.singulars     # embed validates sigma_max <= 1
    if isinstance(etas, (str, bytes)) or not (isinstance(etas, Sequence)
                                              or np.ndim(etas) == 1):
        raise InvalidInputError(f"etas must be a sequence of numbers, got {etas!r}")
    etas = [linalg.as_real(eta, "eta", least=0) for eta in etas]
    if not etas:
        return []
    phis = schedule.phis()
    base_times = schedule.times()
    z = np.vstack([np.zeros(len(phis)),
                   _standard_normals(range(seed, seed + trials), len(phis))])
    table = []
    for eta in etas:
        an, bn = _reduced_corners(sigmas, phis, base_times * (1.0 + eta * z))
        if len(z) > trials:     # the first batch's row 0 (z = 0) is the noiseless run
            a0, b0, an, bn, z = an[:1], bn[:1], an[1:], bn[1:], z[1:]
        dists = np.sqrt(np.abs(an - a0) ** 2 + np.abs(bn - b0) ** 2).max(axis=1)
        table.append({
            "eta": eta,
            "mean_distance": float(np.mean(dists)),
            "max_distance": float(np.max(dists)),
            "trials": trials,
        })
    return table
