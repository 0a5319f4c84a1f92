"""Dual-pair momentum geometry on W = Hom(V^s, V).

A source space V^s carries a symmetric/hermitian form of signature
(s', s''); the target V is the defining space of one of the four matrix
families.  An interlacing map alpha: V^s -> V has an adjoint alpha^dagger
determined by the two forms, and the paired momentum maps

    mu_h(alpha) = -alpha^dagger . alpha    (source side)
    mu_g(alpha) = alpha . alpha^dagger     (target side)

are the classical invariant-theory quadratics: the components of mu_g
generate the source-invariant quadratic polynomials on W, and reduction
at mu_h = 0 lands in the square-zero nilpotent cone of the target
algebra.  Quaternionic maps (the so*(2n) case) are handled entirely in
the 2n x 2s complex representation [[A, -conj(B)], [B, conj(A)]].

Cases (source group acting on the right of alpha, target on the left):

    o-sp       O(s',s'')   x  sp(l,R)    real     alpha: (2l) x s
    u-u        U(s',s'')   x  u(p,q)     complex  alpha: (p+q) x s
    sp-sostar  Sp(s',s'')  x  so*(2n)    rep      alpha: (2n) x (2s)
    sp-so2q    Sp(s,R)     x  so(2,q)    real     alpha: (q+2) x (2s)

In the first three cases the source form is (x, y) = x* G_s y and the
dagger works out to G_s . alpha* . J_V; in the sp-so2q case the source
is symplectic and the target orthogonal, so the dagger is
J_2s . alpha^T . G with J_2s = [[0, -I], [I, 0]].

Zero-level sampling is constructive -- columns are taken in an explicit
isotropic subspace, which makes mu_h vanish identically rather than to
numerical tolerance -- and then spread by isometries of both sides.
Sample streams are seeded per element (SeedSequence.spawn), so batches
can be regenerated or distributed without coupling between samples.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .liealg import (
    DEFAULT_TOL,
    LieAlgebraDescriptor,
    form_j,
    basis,
    conj,
    fixed_basis,
    fixed_residual,
    form_involution,
    frobenius,
    make_algebra,
    quaternionic_involution,
)
from .classify import classify_many, expm, lie_steps, random_exp_product

CASES = ("o-sp", "u-u", "sp-sostar", "sp-so2q")


@dataclass(frozen=True, eq=False)
class DualPairConfig:
    """One dual pair: the source form, the target algebra, and W's shape.

    gs is the matrix of the source-side form as it enters the dagger:
    the metric diag(I_s', -I_s'') for the first three cases (block-doubled
    in the quaternionic representation), the symplectic J_2s for sp-so2q.
    The source algebra h and W are the common fixed points of
    h_involutions and w_involutions; h_stack is the basis of h.
    """

    case: str
    sprime: int
    ssecond: int
    params: tuple
    target: LieAlgebraDescriptor
    shape: tuple
    gs: np.ndarray = field(repr=False)
    h_involutions: tuple = field(repr=False)
    w_involutions: tuple = field(repr=False)
    h_stack: np.ndarray = field(repr=False)

    @property
    def s(self):
        return self.sprime + self.ssecond

    @property
    def w_dim(self):
        # real dimension of W; the u-u ambient is complex, the others
        # (including the quaternionic rep, already doubled) count as-is
        n = int(np.prod(self.shape))
        return 2 * n if self.case == "u-u" else n

    def name(self):
        src = {"o-sp": "O", "u-u": "U", "sp-sostar": "Sp", "sp-so2q": "Sp(s,R)"}
        if self.case == "sp-so2q":
            return f"Sp({self.sprime},R) x {self.target.name()}"
        return f"{src[self.case]}({self.sprime},{self.ssecond}) x {self.target.name()}"


def make_dual_pair(case, sprime, ssecond, params):
    """Build a DualPairConfig.

    params are the target-algebra parameters: (l,) for o-sp, (p, q) for
    u-u, (n,) for sp-sostar, (q,) for sp-so2q.
    """
    sprime, ssecond = int(sprime), int(ssecond)
    if sprime < 0 or ssecond < 0:
        raise ValueError("signature must be non-negative")
    s = sprime + ssecond
    if np.isscalar(params):
        params = (params,)
    params = tuple(int(v) for v in params)
    g = np.diag(np.r_[np.ones(sprime), -np.ones(ssecond)])
    if case == "o-sp":
        target = make_algebra("sp", params)
        shape = (target.N, s)
        gs = g
        h_invs, w_invs = (form_involution(gs), conj), (conj,)
    elif case == "u-u":
        target = make_algebra("u", params)
        shape = (target.N, s)
        gs = g.astype(complex)
        h_invs, w_invs = (form_involution(gs),), ()
    elif case == "sp-sostar":
        target = make_algebra("sostar", params)
        shape = (target.N, 2 * s)
        gs = np.kron(np.eye(2), g).astype(complex)
        Js = form_j(s)
        h_invs = (form_involution(gs), quaternionic_involution(Js, Js))
        w_invs = (quaternionic_involution(target.J_V, Js),)
    elif case == "sp-so2q":
        if ssecond != 0:
            raise ValueError("the symplectic source form has no signature; use ssecond=0")
        target = make_algebra("so2q", params)
        shape = (target.N, 2 * s)
        gs = form_j(s)
        h_invs, w_invs = (form_involution(gs), conj), (conj,)
    else:
        raise ValueError(f"unknown dual-pair case {case!r}")
    m = shape[1]
    return DualPairConfig(case, sprime, ssecond, params, target, shape, gs,
                          h_invs, w_invs, fixed_basis(h_invs, (m, m)))


def map_residual(config, alpha):
    """How far alpha is from being a valid interlacing map (ignoring shape)."""
    return fixed_residual(config.w_involutions, alpha)


def check_map(config, alpha, tol=DEFAULT_TOL):
    """alpha, after checking that it is an interlacing map, or a stack of them."""
    alpha = np.asarray(alpha)
    if alpha.shape[-2:] != config.shape:
        raise ValueError(
            f"interlacing map must have shape {config.shape}, got {alpha.shape}"
        )
    res = np.ravel(map_residual(config, alpha))
    over = res > tol * np.maximum(1.0, np.ravel(np.linalg.norm(alpha, axis=(-2, -1))))
    if over.any():
        raise ValueError(f"matrix is not a valid {config.case} interlacing map "
                         f"(residual {res[over.argmax()]:.2e})")
    return alpha


@dataclass(frozen=True, eq=False)
class InterlacingMap:
    config: DualPairConfig
    alpha: np.ndarray

    def __post_init__(self):
        check_map(self.config, self.alpha)

    def dagger(self):
        return dagger(self.config, self.alpha)

    def mu_h(self):
        return mu_h(self.config, self.alpha)

    def mu_g(self):
        return mu_g(self.config, self.alpha)


def dagger(config, alpha):
    """The adjoint alpha^dagger: V -> V^s determined by the two forms.

    Defined by (alpha^dagger u, v) = B(u, alpha v) in the first three
    cases; in the sp-so2q case the forms swap sides, (alpha u, v) =
    B(u, alpha^dagger v), which flips the formula to J_2s alpha^T G.
    """
    alpha = check_map(config, alpha)
    if config.case == "sp-so2q":
        return config.gs @ alpha.mT @ config.target.G
    if config.case == "o-sp":
        return config.gs @ alpha.mT @ config.target.J_V
    return config.gs @ alpha.conj().mT @ config.target.J_V


def mu_h(config, alpha):
    """Source-side momentum -alpha^dagger alpha (an s x s matrix in h)."""
    alpha = np.asarray(alpha)
    return -(dagger(config, alpha) @ alpha)


def mu_g(config, alpha):
    """Target-side momentum alpha alpha^dagger, a member of the target algebra."""
    alpha = np.asarray(alpha)
    return alpha @ dagger(config, alpha)


def h_residual(config, Y):
    """Membership residual of Y in the source algebra h."""
    return fixed_residual(config.h_involutions, Y)


def trace_r(config, M):
    """Real constituent of the source-algebra trace.

    Plain trace over R; real part over C; for the quaternionic rep the
    complex trace double-counts the real quaternion coefficient, hence
    the factor 1/2.
    """
    t = np.trace(np.asarray(M))
    if config.case == "sp-sostar":
        return float(np.real(t)) / 2.0
    return float(np.real(t))


def omega_w(config, alpha, beta):
    """Symplectic form omega_W(alpha, beta) = trace_r(beta^dagger alpha)."""
    return trace_r(config, dagger(config, beta) @ np.asarray(alpha))


def _hom_rep(A, B):
    """Complex rep of the quaternionic matrix A + jB."""
    return np.block([[A, -B.conj()], [B, A.conj()]])


def w_basis(config):
    """Ordered real basis of W (ambient matrices)."""
    B = fixed_basis(config.w_involutions, config.shape)
    assert len(B) == config.w_dim
    return B


def h_basis(config):
    """Ordered real basis of the source algebra h (matrices acting on V^s)."""
    return config.h_stack


def random_h_isometry(config, rng, steps=2):
    """(x, x^-1) for x a product of exponentials in the source group."""
    return random_exp_product(h_basis(config), rng, steps)


def random_g_isometry(config, rng, steps=2):
    """(y, y^-1) for y a product of exponentials in the target group."""
    return random_exp_product(basis(config.target), rng, steps)


def _isotropic_frame(config):
    """Columns spanning a maximal totally isotropic subspace of V.

    Taking alpha = frame @ C kills the source momentum identically:
    every bilinear/hermitian product of frame columns under the target
    form vanishes, so alpha^dagger alpha = 0 whatever C (and whatever the
    source signature, since gs only rescales the zero matrix).
    """
    desc = config.target
    if config.case == "o-sp":
        l = desc.params[0]
        return np.vstack([np.eye(l), np.zeros((l, l))])
    if config.case == "u-u":
        p, q = desc.params
        r = min(p, q)
        U = np.zeros((desc.N, r), dtype=complex)
        for k in range(r):
            U[k, k] = 1.0
            U[p + k, k] = 1j
        return U
    if config.case == "sp-sostar":
        n = desc.params[0]
        r = n // 2
        U = np.zeros((n, r), dtype=complex)
        for k in range(r):
            U[2 * k, k] = 1.0
            U[2 * k + 1, k] = 1j
        return U
    q = desc.params[0]
    m = min(2, q)
    U = np.zeros((desc.N, m))
    for k in range(m):
        U[k, k] = 1.0
        U[2 + k, k] = 1.0
    return U


def _zero_level_draws(config, rng, m, cols, dims):
    """One sample's numbers, in the order they are drawn: the rank k, the
    frame coefficients C (m x cols, rank k), then, when dims holds the
    dimensions of g and h, two coefficient rows for the target
    exponentials and two for the source ones."""
    k = int(rng.integers(0, min(m, cols) + 1)) if min(m, cols) > 0 else 0
    if config.case in ("u-u", "sp-sostar"):
        C = (rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))) @ (
            rng.standard_normal((k, cols)) + 1j * rng.standard_normal((k, cols))
        )
    else:
        C = rng.standard_normal((m, k)) @ rng.standard_normal((k, cols))
    if dims is None:
        return C, None, None
    return C, rng.standard_normal((2, dims[0])), rng.standard_normal((2, dims[1]))


def sample_zero_level(config, count, seed, spread=True):
    """A (count,) + shape stack of interlacing maps with mu_h identically zero.

    Constructive: isotropic-frame columns, then two-sided isometry
    spreading y alpha x^-1 (which fixes the zero level by equivariance).
    Each sample draws its numbers from its own spawned seed stream; the
    linear algebra then runs on the whole stack, so the first n samples
    of a larger count are the n samples of count n, bit for bit.
    """
    if config.case not in CASES:
        warnings.warn(f"no zero-level construction for case {config.case!r}")
        return np.zeros((0,) + config.shape)
    U = _isotropic_frame(config)
    m = U.shape[1]
    cols = config.s if config.case != "sp-so2q" else 2 * config.sprime
    Bg, Bh = basis(config.target), h_basis(config)
    dims = (len(Bg), len(Bh)) if spread else None
    draws = [_zero_level_draws(config, np.random.default_rng(child), m, cols, dims)
             for child in np.random.SeedSequence(seed).spawn(int(count))]
    alpha = U @ np.array([d[0] for d in draws], dtype=U.dtype).reshape(len(draws), m, cols)
    if config.case == "sp-sostar":
        alpha = _hom_rep(alpha, np.zeros_like(alpha))
    if not spread or not draws:
        return alpha
    Eg = expm(lie_steps(np.array([d[1] for d in draws]), Bg))
    Eh = expm(-lie_steps(np.array([d[2] for d in draws]), Bh))
    y = Eg[:, 0] @ Eg[:, 1]
    xinv = Eh[:, 1] @ Eh[:, 0]
    return y @ alpha @ xinv


def reduce_and_classify(config, count, seed, tol=1e-8):
    """Histogram of orbit types of mu_g over the sampled zero level."""
    hist = {}
    alphas = sample_zero_level(config, count, seed)
    for t in classify_many(config.target, mu_g(config, alphas), tol=tol):
        hist[t] = hist.get(t, 0) + 1
    return hist


def quadratic_hamiltonian(config, act, alpha):
    """f_X(alpha) = 1/2 omega_W(X alpha, alpha) for a linear action X on W.

    act is a callable W -> W (see g_action / h_action for the two
    momentum-map directions).
    """
    alpha = np.asarray(alpha)
    return 0.5 * omega_w(config, act(alpha), alpha)


def g_action(config, X):
    """Infinitesimal target action alpha -> X alpha; f_X = half-trace of X mu_g."""
    X = np.asarray(X)
    return lambda a: X @ a


def h_action(config, Y):
    """Infinitesimal source action alpha -> -alpha Y; f_Y = half-trace of Y mu_h."""
    Y = np.asarray(Y)
    return lambda a: -(a @ Y)


def rank_one_moment(config, v):
    """mu_g of a single source column: the squaring map v -> v v^dagger."""
    sib = make_dual_pair(config.case, 1, 0, config.params)
    v = np.asarray(v)
    if v.ndim == 1:
        v = v.reshape(-1, 1)
    return mu_g(sib, v)


def invariant_quadratics_dim(config, tol=1e-8):
    """Dimension of the space of source-invariant quadratic forms on W.

    Computed as the null space of the h-action on symmetric 2-tensors
    over real coordinates of W.  The orthogonal source has a second
    connected component, so invariance under one reflection is imposed
    as well (for O(2) the algebra alone would admit the extra
    determinant quadratics).  Equals dim of the target algebra: the
    invariant quadratics are spanned by the components of mu_g.
    """
    if config.ssecond != 0 or config.case == "sp-so2q":
        raise ValueError("invariant quadratics are computed for compact sources only")
    d = config.w_dim
    if d > 24:
        raise ValueError(f"dim W = {d} exceeds the supported size 24")
    if d == 0:
        return 0
    WB = w_basis(config)
    F = np.stack([_flatten_w(M) for M in WB])  # d x (real ambient dim)
    solver = np.linalg.pinv(F.T)

    def coords(M):
        return solver @ _flatten_w(M)

    pairs = [(a, b) for a in range(d) for b in range(a, d)]

    def constraint_rows(maps):
        # maps: list of (L, affine) with constraint L^T S + S L = 0 for
        # algebra elements, L^T S L - S = 0 for group reflections
        rows = []
        for L, is_group in maps:
            blocks = np.zeros((d * d, len(pairs)))
            for idx, (a, b) in enumerate(pairs):
                S = np.zeros((d, d))
                S[a, b] = 1.0
                S[b, a] = 1.0
                R = L.T @ S @ L - S if is_group else L.T @ S + S @ L
                blocks[:, idx] = R.ravel()
            rows.append(blocks)
        return rows

    maps = []
    for Y in h_basis(config):
        L = np.stack([coords(-(M @ Y)) for M in WB]).T  # column a = action on basis a
        maps.append((L, False))
    if config.case == "o-sp" and config.s >= 1:
        refl = np.eye(config.s)
        refl[0, 0] = -1.0
        L = np.stack([coords(M @ refl) for M in WB]).T
        maps.append((L, True))
    if not maps:
        return d * (d + 1) // 2
    A = np.vstack(constraint_rows(maps))
    sv = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, sv[0] if sv.size else 0.0)))
    return len(pairs) - rank


def _flatten_w(M):
    M = np.asarray(M)
    if np.iscomplexobj(M):
        return np.concatenate([M.real.ravel(), M.imag.ravel()])
    return M.astype(float).ravel()


def moment_quadratic_forms(config):
    """mu_g components as symmetric matrices over real W-coordinates.

    Polarization of the quadratic map mu_g; rows of the returned stack
    span the invariant quadratics (one form per real component of the
    target matrix, flattened upper-triangle coefficients).
    """
    WB = w_basis(config)
    d = len(WB)
    vals = {}
    for a in range(d):
        for b in range(a, d):
            M = 0.5 * (
                mu_g(config, WB[a] + WB[b]) - mu_g(config, WB[a]) - mu_g(config, WB[b])
            )
            vals[(a, b)] = _flatten_w(M)
    ncomp = vals[(0, 0)].size if d else 0
    forms = np.zeros((ncomp, d * (d + 1) // 2))
    for idx, (a, b) in enumerate((a, b) for a in range(d) for b in range(a, d)):
        forms[:, idx] = vals[(a, b)]
    return forms


def semisimple_reduction_check(config, eps, count, seed, tol=1e-6):
    """Reduction at the constant source level -eps J_V hits the orbit of 2 eps z.

    Square compact cases only (s = 2l, p+q, n).  Samples alpha =
    sqrt(eps) . exp(xi) with xi in the target algebra; then mu_h is the
    constant -eps J_V (the source-side H-element, up to the sign fixed
    by mu_h = -dagger(alpha) alpha) and mu_g(alpha) = g (2 eps z) g^-1.
    """
    from .classify import semisimple_orbit_check

    eps = float(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    desc = config.target
    required = {"o-sp": desc.N, "u-u": desc.N, "sp-sostar": desc.params[0] if desc.params else 0}
    if config.case not in required:
        raise ValueError("square semisimple reduction applies to o-sp, u-u, sp-sostar")
    if config.ssecond != 0 or config.sprime != required[config.case]:
        raise ValueError(
            f"square case needs (s', s'') = ({required[config.case]}, 0) for {config.case}"
        )
    level = -eps * desc.J_V
    for child in np.random.SeedSequence(seed).spawn(int(count)):
        g, _ = random_exp_product(basis(desc), np.random.default_rng(child), 1)
        alpha = np.sqrt(eps) * g
        if frobenius(mu_h(config, alpha) - level) > tol * max(1.0, eps):
            return False
        if not semisimple_orbit_check(desc, mu_g(config, alpha), eps, tol=tol):
            return False
    return True


def canonical_alphas(config):
    """The two interlacing maps whose mu_g are the standard triple
    nilpositives e_1, e_2 of so(2,q), exactly, entry by entry.

    Columns of the classical displays, second column rescaled by -1/2 so
    that both the zero-level equations and mu_g = e_i hold in exact
    binary arithmetic.
    """
    if config.case != "sp-so2q" or config.sprime != 1:
        raise ValueError("canonical maps are defined for Sp(1,R) x so(2,q)")
    q = config.target.params[0]
    if q < 2:
        raise ValueError("need q >= 2")
    n = q + 2
    a1 = np.zeros((n, 2))
    a1[0, 0] = 1.0
    a1[2, 0] = 1.0
    a1[1, 1] = 1.0
    a1[3, 1] = -1.0
    a2 = np.zeros((n, 2))
    a2[1, 0] = -1.0
    a2[2, 0] = 1.0
    a2[0, 1] = 1.0
    a2[3, 1] = 1.0
    scale = np.diag([1.0, -0.5])
    return a1 @ scale, a2 @ scale


def sample_sp1_nilcone(config, count, seed, sign=None, spread=True):
    """Interlacing maps whose source momentum lies in the sp(1,R) nilcone.

    First column exactly isotropic, second exactly orthogonal to it, so
    mu_h = [[0, c], [0, 0]] with c = (w2, w2); the requested sign of c
    picks the nilcone half (upward for +1).  Construction keeps the
    vanishing products exact by cancelling identical terms.
    """
    if config.case != "sp-so2q" or config.sprime != 1:
        raise ValueError("nilcone sampling is defined for Sp(1,R) x so(2,q)")
    q = config.target.params[0]
    if q < 2:
        warnings.warn("need q >= 2 for a nilcone construction; returning no samples")
        return []
    if sign not in (None, 1, -1):
        raise ValueError("sign must be None, +1 or -1")
    n = q + 2
    out = []
    for child in np.random.SeedSequence(seed).spawn(int(count)):
        rng = np.random.default_rng(child)
        x = rng.standard_normal(2)
        while np.hypot(x[0], x[1]) < 0.1:
            x = rng.standard_normal(2)
        y = rng.standard_normal(2)
        while abs(y[0] * x[1] - y[1] * x[0]) < 1e-3:
            y = rng.standard_normal(2)
        want = sign if sign is not None else (1 if rng.integers(2) else -1)
        # c = kappa^2/(x,x) * (2 tau - tau^2) - |t|^2 with kappa = y1 x2 - y2 x1;
        # tau < 2 with t = 0 gives c > 0, tau > 2 gives c < 0
        if want > 0:
            tau = rng.uniform(0.2, 1.8)
            t = np.zeros(q - 2)
        else:
            tau = rng.uniform(2.2, 4.0)
            t = rng.standard_normal(q - 2)
        lam = tau * (y[0] * x[1] - y[1] * x[0]) / (x[0] ** 2 + x[1] ** 2)
        w1 = np.zeros(n)
        w1[0], w1[1], w1[2], w1[3] = x[0], x[1], x[0], x[1]
        w2 = np.zeros(n)
        w2[0], w2[1] = y[0], y[1]
        w2[2], w2[3] = y[0] - lam * x[1], y[1] + lam * x[0]
        w2[4:] = t
        alpha = np.column_stack([w1, w2])
        if spread:
            y_iso, _ = random_g_isometry(config, rng)
            _, xinv = random_h_isometry(config, rng)
            alpha = y_iso @ alpha @ xinv
        out.append(alpha)
    return out
