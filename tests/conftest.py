import numpy as np
import pytest

from hsvt import compiler, embedding, linalg, protocol


def random_contraction(rng, n, m=None, lo=0.1, hi=0.9):
    """n x n (or m x n) matrix with singular values drawn from [lo, hi]."""
    m = n if m is None else m
    g = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    u, _, vh = np.linalg.svd(g, full_matrices=False)
    s = rng.uniform(lo, hi, min(m, n))
    return u @ np.diag(s) @ vh


def conjugated_generator(h, phi):
    """G_phi = exp(i phi Z/2) H exp(-i phi Z/2) for a block Hamiltonian h.

    Multiplies the upper-right block by e^{i phi} and the lower-left block by
    e^{-i phi}; the spectrum is unchanged.
    """
    n, m = h.n, h.m
    g = np.zeros((n + m, n + m), dtype=complex)
    g[:n, n:] = np.exp(1j * phi) * h.a_block.conj().T
    g[n:, :n] = np.exp(-1j * phi) * h.a_block
    return g


def same_floats(a, b):
    """Equal arrays, signed zeros included."""
    return (a.shape == b.shape and np.array_equal(a, b)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def count_calls(monkeypatch, module, names):
    """Count the calls of each module.<name> for the rest of the test;
    returns the {name: count} dict, which the counters keep up to date."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def assemble(h):
    """The (n+m) x (n+m) Hamiltonian [[0, A^dag], [A, 0]] of an embedding."""
    n, m = h.n, h.m
    out = np.zeros((n + m, n + m), dtype=complex)
    out[n:, :n] = h.a_block
    out[:n, n:] = h.a_block.conj().T
    return out


def pair_basis(h):
    """(n+m) x 2r isometry [R (+) 0, 0 (+) L] of an embedding's SVD.

    Columns j and r + j span pair j, the plane on which H acts as
    sigma_j X: (r_j (+) l_j)/sqrt(2) and (r_j (-) l_j)/sqrt(2) are
    eigenvectors with eigenvalues +sigma_j and -sigma_j.
    """
    res = h.svd
    r = res.singulars.size
    b = np.zeros((h.n + h.m, 2 * r), dtype=complex)
    b[:h.n, :r] = res.right_vectors
    b[h.n:, r:] = res.left_vectors
    return b


def pair_blocks(h, op):
    """Per pair j, the 2x2 restriction basis^dag op basis of an (n+m) x (n+m)
    operator, with basis = columns j and r + j of pair_basis(h)."""
    b, r = pair_basis(h), h.svd.singulars.size
    return [b[:, [j, r + j]].conj().T @ op @ b[:, [j, r + j]] for j in range(r)]


def op_distance(u, v):
    """Spectral-norm distance ||U - V||_2: the dense oracle for the distances
    protocol.verify and achieved_eps read off the pairs."""
    return float(np.linalg.norm(u - v, 2))


def full_space_unitary(a, phis, times):
    """The protocol's product prod_k exp(i phi_k Z/2) exp(-i H t_k)
    exp(-i phi_k Z/2) on the whole space, from one eigendecomposition (w, v)
    of the embedding H of A: the oracle for protocol.simulate_protocol."""
    h = embedding.embed(a)
    w, v = linalg.hermitian_eig(assemble(h))
    z = np.concatenate([np.ones(h.n), -np.ones(h.m)])      # diagonal of Z
    u = np.eye(h.n + h.m, dtype=complex)
    for phi, t in zip(phis, times):
        d = np.exp(0.5j * phi * z)
        step = (v * np.exp(-1j * w * t)) @ v.conj().T
        u = (d[:, None] * step * np.conj(d)[None, :]) @ u
    return u


def reduced_full_gap(result, schedule):
    """Max over the singular pairs of result.embedding of the distance from
    the restriction of full_space_unitary to compiler.reduced_model: the
    full-space oracle against the 2x2 model, at round-off level always."""
    h = result.embedding
    blocks = pair_blocks(h, full_space_unitary(h, schedule.phis(), schedule.times()))
    return max((np.linalg.norm(got - compiler.reduced_model(schedule, sigma), 2)
                for sigma, got in zip(h.svd.singulars, blocks)), default=0.0)


def noise_sweep_oracle(a, schedule, etas, trials, seed=0):
    """(mean, max) per eta of full-space distances ||U - U0||_2, as noise_sweep."""
    phis, times = schedule.phis(), schedule.times()
    u0 = full_space_unitary(a, phis, times)
    rows = []
    for eta in etas:
        dists = []
        for i in range(trials):
            factors = protocol.ControlNoiseModel(eta, seed + i).time_factors(len(phis))
            u = full_space_unitary(a, phis, times * factors)
            dists.append(np.linalg.norm(u - u0, 2))
        rows.append((np.mean(dists), np.max(dists)))
    return rows


def step_matrices(phis, times, sigmas):
    """(K, N, 2, 2) dense reduced rotations of the steps (phis, times) at
    each of the N sigmas."""
    angles = np.multiply.outer(times, sigmas)          # (K, N)
    st, ct = np.sin(angles), np.cos(angles)
    e = np.exp(1j * np.asarray(phis))
    m = np.zeros(angles.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = ct
    m[..., 1, 1] = ct
    m[..., 0, 1] = -1j * st * e[:, None]
    m[..., 1, 0] = -1j * st * np.conj(e)[:, None]
    return m


def sequential_step_product(phis, times, sigmas):
    """(N, 2, 2) products of the dense steps, one 2x2 product per step from
    the right: the oracle for compiler.reduced_product."""
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(sigmas), 2, 2)).copy()
    for m in step_matrices(phis, times, sigmas):
        u = m @ u
    return u


def dense_target(f_values):
    """(N, 2, 2) dense target unitaries i*(sqrt(1-f^2) Z + f X)."""
    f = np.asarray(f_values, dtype=float)[:, None, None]
    g = np.sqrt(1.0 - f**2)
    return 1j * (g * np.diag([1.0, -1.0]) + f * np.array([[0.0, 1.0], [1.0, 0.0]]))


def metric_diff(u, target, metric):
    """What the metric measures of dense U - T: the (N,) lower-left entries
    for 'corner', all of the (N, 2, 2) difference for 'full'."""
    if metric == "corner":
        return u[:, 1, 0] - target[:, 1, 0]
    return u - target


def node_norms(diff):
    """Per-node residual of a metric_diff: the absolute value of the corner
    entry, or the 2x2 spectral norm."""
    if diff.ndim == 1:
        return np.abs(diff)
    return np.linalg.norm(diff, 2, axis=(1, 2))


def dense_residual(schedule, f, n):
    """Max over n Chebyshev nodes of f's domain of the 2x2 spectral norm of
    U - T, with U the dense step product: the full-metric residual."""
    nodes = compiler.chebyshev_grid(f.sigma_lo, f.sigma_hi, n)
    u = sequential_step_product(schedule.phis(), schedule.times(), nodes)
    return np.max(node_norms(metric_diff(u, dense_target(f(nodes)), "full")))


def row_norm_defect(u):
    """Max over a (N, 2, 2) stack of | |u_00|^2 + |u_01|^2 - 1 |: each first
    row of a unitary has norm 1."""
    return np.max(np.abs(np.sum(np.abs(u[:, 0]) ** 2, axis=1) - 1.0), initial=0.0)


def einsum_residual_jacobian(params, sigmas, target, variable_t, metric):
    """(residual, Jacobian) of the objective in dense form, against a dense
    target T: Re and Im of all four entries of U - T ('full') or of its
    lower-left entry ('corner'), with each step's derivative contracted by
    np.einsum over dense (K, N, 2, 2) chains.  compiler._residual_jacobian
    stacks other rows with the same cost, J^T r and J^T J."""
    if variable_t:
        K = len(params) // 2
        phis, times = params[:K], params[K:]
    else:
        K = len(params)
        phis, times = params, np.ones(K)
    N = len(sigmas)
    m = step_matrices(phis, times, sigmas)
    pre = np.empty((K + 1, N, 2, 2), dtype=complex)
    pre[0] = np.eye(2)
    for k in range(K):
        pre[k + 1] = m[k] @ pre[k]
    suf = np.empty((K + 1, N, 2, 2), dtype=complex)
    suf[K] = np.eye(2)
    for k in range(K - 1, -1, -1):
        suf[k] = suf[k + 1] @ m[k]
    u = pre[K]

    angles = np.multiply.outer(times, sigmas)
    st, ct = np.sin(angles), np.cos(angles)
    e = np.exp(1j * phis)

    d_phi = np.zeros((K, N, 2, 2), dtype=complex)
    d_phi[..., 0, 1] = st * e[:, None]
    d_phi[..., 1, 0] = -st * np.conj(e)[:, None]
    blocks = [np.einsum("knab,knbc,kncd->knad", suf[1:], d_phi, pre[:-1])]
    if variable_t:
        d_t = np.zeros((K, N, 2, 2), dtype=complex)
        sg = sigmas[None, :]
        d_t[..., 0, 0] = -sg * st
        d_t[..., 1, 1] = -sg * st
        d_t[..., 0, 1] = -1j * sg * ct * e[:, None]
        d_t[..., 1, 0] = -1j * sg * ct * np.conj(e)[:, None]
        blocks.append(np.einsum("knab,knbc,kncd->knad", suf[1:], d_t, pre[:-1]))
    du = np.concatenate(blocks, axis=0)          # (P, N, 2, 2)

    r_c = metric_diff(u, target, metric).reshape(-1)
    if metric == "corner":
        j_c = du[:, :, 1, 0]
    else:
        j_c = du.reshape(du.shape[0], N * 4)
    res = np.concatenate([r_c.real, r_c.imag])
    jac = np.concatenate([j_c.real, j_c.imag], axis=1).T
    return res, jac


def pair_chain_residual_jacobian(params, sigmas, target, variable_t, metric):
    """(residual, Jacobian) of the objective with its chains as one
    compiler._pair_product per step on (a, b) rows and trig on every
    (t, sigma): compiler._residual_jacobian computes the same floats with
    fewer array ops, against the same pair target."""
    if variable_t:
        K = len(params) // 2
        phis, times = params[:K], params[K:]
    else:
        K = len(params)
        phis, times = params, np.ones(K)
    pair = compiler._pair_product
    angles = np.multiply.outer(times, sigmas)
    st, ct = np.sin(angles), np.cos(angles)
    e = np.exp(1j * phis)[:, None]
    w = -1j * st * e
    pa = np.empty((K + 1, len(sigmas)), dtype=complex)
    pb = np.empty_like(pa)
    pa[0], pb[0] = 1.0, 0.0
    for k in range(K):
        pa[k + 1], pb[k + 1] = pair(ct[k], w[k], pa[k], pb[k])
    ta, tb = target
    res = compiler._rows(pa[K] - ta, pb[K] - tb, metric)
    qa, qb = np.empty_like(pa), np.empty_like(pb)
    qa[K], qb[K] = 1.0, 0.0
    for k in reversed(range(K)):
        qa[k], qb[k] = pair(qa[k + 1], qb[k + 1], ct[k], w[k])
    derivs = [(0.0, st * e)]
    if variable_t:
        derivs.append((-sigmas * st, -1j * sigmas * ct * e))
    cols = [pair(*pair(qa[1:], qb[1:], da, db), pa[:-1], pb[:-1]) for da, db in derivs]
    a, b = (np.concatenate(part) for part in zip(*cols))
    return res, compiler._rows(a, b, metric).T


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
