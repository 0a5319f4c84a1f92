import numpy as np
import pytest

from orbitkit import dualpair as dp
from orbitkit.classify import classify_nilpotent, k_rank
from orbitkit.liealg import contains, frobenius, make_algebra
from orbitkit.triples import standard_triples


def rand_alpha(cfg, rng):
    if cfg.case == "u-u":
        return rng.standard_normal(cfg.shape) + 1j * rng.standard_normal(cfg.shape)
    if cfg.case == "sp-sostar":
        n, s = cfg.shape[0] // 2, cfg.shape[1] // 2
        A = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
        B = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
        return dp._hom_rep(A, B)
    return rng.standard_normal(cfg.shape)


CONFIGS = [
    dp.make_dual_pair("o-sp", 2, 0, (2,)),
    dp.make_dual_pair("o-sp", 2, 1, (2,)),
    dp.make_dual_pair("u-u", 2, 0, (2, 2)),
    dp.make_dual_pair("u-u", 1, 1, (2, 1)),
    dp.make_dual_pair("sp-sostar", 2, 0, (3,)),
    dp.make_dual_pair("sp-sostar", 1, 1, (2,)),
    dp.make_dual_pair("sp-so2q", 2, 0, (4,)),
]
IDS = [c.name() for c in CONFIGS]


# ---------------------------------------------------------------- config

def test_config_shapes_and_dims():
    cfg = dp.make_dual_pair("o-sp", 3, 0, (2,))
    assert cfg.shape == (4, 3) and cfg.w_dim == 12
    cfg = dp.make_dual_pair("u-u", 2, 1, (2, 2))
    assert cfg.shape == (4, 3) and cfg.w_dim == 24
    cfg = dp.make_dual_pair("sp-sostar", 2, 0, (3,))
    assert cfg.shape == (6, 4) and cfg.w_dim == 24
    cfg = dp.make_dual_pair("sp-so2q", 2, 0, (4,))
    assert cfg.shape == (6, 4) and cfg.w_dim == 24


def test_config_validation():
    with pytest.raises(ValueError):
        dp.make_dual_pair("sp-ghost", 1, 0, (2,))
    with pytest.raises(ValueError):
        dp.make_dual_pair("o-sp", -1, 1, (2,))
    # symplectic source carries no signature
    with pytest.raises(ValueError):
        dp.make_dual_pair("sp-so2q", 1, 1, (4,))


def test_interlacing_map_validation():
    cfg = dp.make_dual_pair("o-sp", 2, 0, (2,))
    with pytest.raises(ValueError):
        dp.dagger(cfg, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        dp.InterlacingMap(cfg, np.zeros((5, 2)))
    # quaternionic structure is enforced, not just the shape
    cfg = dp.make_dual_pair("sp-sostar", 1, 0, (2,))
    bad = np.ones(cfg.shape, dtype=complex)
    bad[0, 1] = 5.0
    with pytest.raises(ValueError):
        dp.InterlacingMap(cfg, bad)
    good = rand_alpha(cfg, np.random.default_rng(0))
    m = dp.InterlacingMap(cfg, good)
    assert np.allclose(m.mu_g(), dp.mu_g(cfg, good))
    assert np.allclose(m.mu_h(), dp.mu_h(cfg, good))


def test_basis_dimensions():
    for cfg in CONFIGS:
        assert len(dp.w_basis(cfg)) == cfg.w_dim
        hb = dp.h_basis(cfg)
        s = cfg.s
        expected = {
            "o-sp": s * (s - 1) // 2,
            "u-u": s * s,
            "sp-sostar": s * (2 * s + 1),
            "sp-so2q": s * (2 * s + 1),
        }[cfg.case]
        assert len(hb) == expected
        for Y in hb:
            assert dp.h_residual(cfg, Y) < 1e-12


# ---------------------------------------------------------------- dagger

def test_dagger_zero():
    for cfg in CONFIGS:
        dt = complex if cfg.case in ("u-u", "sp-sostar") else float
        assert not np.any(dp.dagger(cfg, np.zeros(cfg.shape, dtype=dt)))


def test_dagger_column_display():
    # alpha with row vectors q, p has dagger with columns p, -q
    cfg = dp.make_dual_pair("o-sp", 2, 0, (1,))
    q = np.array([1.0, 2.0])
    p = np.array([3.0, 5.0])
    alpha = np.vstack([q, p])
    expect = np.column_stack([p, -q])
    assert np.array_equal(dp.dagger(cfg, alpha), expect)


def test_dagger_u_display():
    # columns i*conj(w_1..w_p), -i*conj(w_{p+1}..)
    cfg = dp.make_dual_pair("u-u", 2, 0, (1, 1))
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    dag = dp.dagger(cfg, alpha)
    assert np.allclose(dag[:, 0], 1j * alpha[0].conj())
    assert np.allclose(dag[:, 1], -1j * alpha[1].conj())


def _source_form(cfg, x, y):
    return np.vdot(x, cfg.gs @ y) if np.iscomplexobj(cfg.gs) else x @ cfg.gs @ y


def _target_form(cfg, u, w):
    # B(u, w) = -u* J_V w for the three J_V families
    J = cfg.target.J_V
    return -np.vdot(u, J @ w) if np.iscomplexobj(J) else -(u @ J @ w)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_dagger_defining_identity(cfg):
    rng = np.random.default_rng(7)
    alpha = rand_alpha(cfg, rng)
    dag = dp.dagger(cfg, alpha)
    N, m = cfg.shape
    cplx = cfg.case in ("u-u", "sp-sostar")
    for _ in range(100):
        u = rng.standard_normal(N) + (1j * rng.standard_normal(N) if cplx else 0)
        v = rng.standard_normal(m) + (1j * rng.standard_normal(m) if cplx else 0)
        if cfg.case == "sp-so2q":
            # forms swap sides here: (alpha u, v)_G = B(u, dagger v)
            lhs = (alpha @ v) @ cfg.target.G @ u
            rhs = -(v @ cfg.gs @ (dag @ u))
        else:
            lhs = _source_form(cfg, dag @ u, v)
            rhs = _target_form(cfg, u, alpha @ v)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_dagger_antiequivariance(cfg):
    rng = np.random.default_rng(11)
    alpha = rand_alpha(cfg, rng)
    for _ in range(3):
        y, yinv = dp.random_g_isometry(cfg, rng)
        x, xinv = dp.random_h_isometry(cfg, rng)
        lhs = dp.dagger(cfg, y @ alpha @ xinv)
        rhs = x @ dp.dagger(cfg, alpha) @ yinv
        assert frobenius(lhs - rhs) < 1e-9 * max(1.0, frobenius(rhs))


# ---------------------------------------------------------------- momenta

@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_momenta_land_in_their_algebras(cfg):
    rng = np.random.default_rng(13)
    for _ in range(5):
        alpha = rand_alpha(cfg, rng)
        assert dp.h_residual(cfg, dp.mu_h(cfg, alpha)) < 1e-9 * max(
            1.0, frobenius(alpha) ** 2
        )
        assert contains(cfg.target, dp.mu_g(cfg, alpha), tol=1e-9)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_mu_g_equivariance(cfg):
    rng = np.random.default_rng(17)
    alpha = rand_alpha(cfg, rng)
    mg = dp.mu_g(cfg, alpha)
    mh = dp.mu_h(cfg, alpha)
    for _ in range(3):
        y, yinv = dp.random_g_isometry(cfg, rng)
        x, xinv = dp.random_h_isometry(cfg, rng)
        moved = y @ alpha @ xinv
        assert frobenius(dp.mu_g(cfg, moved) - y @ mg @ yinv) <= 1e-9 * max(
            1.0, frobenius(mg)
        )
        assert frobenius(dp.mu_h(cfg, moved) - x @ mh @ xinv) <= 1e-9 * max(
            1.0, frobenius(mh)
        )


def test_angular_momentum_pattern():
    # compact O(2) source: mu_h(q, p) = (q wedge p) [[0,1],[-1,0]]
    cfg = dp.make_dual_pair("o-sp", 2, 0, (1,))
    rng = np.random.default_rng(19)
    q, p = rng.standard_normal(2), rng.standard_normal(2)
    mh = dp.mu_h(cfg, np.vstack([q, p]))
    wedge = q[0] * p[1] - q[1] * p[0]
    assert np.allclose(mh, wedge * np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-12)


def test_mu_h_wedge_sum():
    # mu_h = q_1 ^ p_1 + ... + q_l ^ p_l as antisymmetric outer products
    cfg = dp.make_dual_pair("o-sp", 3, 0, (2,))
    rng = np.random.default_rng(23)
    alpha = rng.standard_normal((4, 3))
    expect = np.zeros((3, 3))
    for i in range(2):
        qi, pi = alpha[i], alpha[2 + i]
        expect += np.outer(qi, pi) - np.outer(pi, qi)
    assert np.allclose(dp.mu_h(cfg, alpha), expect, atol=1e-12)


def test_o11_whole_nilcone_displays():
    # O(1,1) on Hom(R^2, R^2): the two classical matrices, with the
    # Lorentz products (x, y) = x1 y1 - x2 y2
    cfg = dp.make_dual_pair("o-sp", 1, 1, (1,))
    rng = np.random.default_rng(29)
    q, p = rng.standard_normal(2), rng.standard_normal(2)
    alpha = np.vstack([q, p])
    lor = lambda x, y: x[0] * y[0] - x[1] * y[1]
    mh = dp.mu_h(cfg, alpha)
    wedge = q[0] * p[1] - q[1] * p[0]
    assert np.allclose(mh, wedge * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
    mg = dp.mu_g(cfg, alpha)
    expect = np.array([[lor(q, p), -lor(q, q)], [lor(p, p), -lor(q, p)]])
    assert np.allclose(mg, expect, atol=1e-12)


def test_sp_source_momentum_display():
    # Sp(1,R) x so(2,q): mu_h = [[(w1,w2), (w2,w2)], [-(w1,w1), -(w1,w2)]]
    cfg = dp.make_dual_pair("sp-so2q", 1, 0, (3,))
    rng = np.random.default_rng(31)
    alpha = rng.standard_normal((5, 2))
    G = cfg.target.G
    w1, w2 = alpha[:, 0], alpha[:, 1]
    lor = lambda x, y: x @ G @ y
    expect = np.array(
        [[lor(w1, w2), lor(w2, w2)], [-lor(w1, w1), -lor(w1, w2)]]
    )
    assert np.allclose(dp.mu_h(cfg, alpha), expect, atol=1e-12)


# ---------------------------------------------------------------- omega_W

@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_omega_antisymmetric(cfg):
    rng = np.random.default_rng(37)
    for _ in range(5):
        a, b = rand_alpha(cfg, rng), rand_alpha(cfg, rng)
        scale = max(1.0, frobenius(a) * frobenius(b))
        assert abs(dp.omega_w(cfg, a, b) + dp.omega_w(cfg, b, a)) < 1e-10 * scale
        assert abs(dp.omega_w(cfg, a, a)) < 1e-10 * scale


def test_omega_standard_form_s1():
    cfg = dp.make_dual_pair("o-sp", 1, 0, (1,))
    a = np.array([[1.0], [2.0]])  # (q1, p1)
    b = np.array([[3.0], [5.0]])  # (q2, p2)
    assert dp.omega_w(cfg, a, b) == pytest.approx(1.0 * 5.0 - 2.0 * 3.0)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_omega_nondegenerate(cfg):
    B = dp.w_basis(cfg)
    gram = np.array([[dp.omega_w(cfg, a, b) for b in B] for a in B])
    assert np.linalg.matrix_rank(gram, tol=1e-10) == len(B)
    assert np.allclose(gram, -gram.T, atol=1e-12)


def test_trace_r_quaternionic_halving():
    cfg = dp.make_dual_pair("sp-sostar", 3, 0, (2,))
    assert dp.trace_r(cfg, np.eye(6)) == pytest.approx(3.0)
    cfg = dp.make_dual_pair("u-u", 2, 0, (1, 1))
    assert dp.trace_r(cfg, (2 + 5j) * np.eye(2)) == pytest.approx(4.0)


# ------------------------------------------------- quadratic hamiltonians

def test_classical_sl2_hamiltonians():
    # E, F, H acting on the (q, p) plane give p^2/2, -q^2/2, pq
    cfg = dp.make_dual_pair("o-sp", 1, 0, (1,))
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    H = np.array([[1.0, 0.0], [0.0, -1.0]])
    rng = np.random.default_rng(41)
    for _ in range(10):
        q, p = rng.standard_normal(2)
        v = np.array([[q], [p]])
        assert dp.quadratic_hamiltonian(cfg, dp.g_action(cfg, E), v) == pytest.approx(p * p / 2)
        assert dp.quadratic_hamiltonian(cfg, dp.g_action(cfg, F), v) == pytest.approx(-q * q / 2)
        assert dp.quadratic_hamiltonian(cfg, dp.g_action(cfg, H), v) == pytest.approx(p * q)


def test_rank_one_moment_display():
    # v = (q1, q2, p1, p2): vv^dagger = outer(v, (p1, p2, -q1, -q2))
    cfg = dp.make_dual_pair("o-sp", 1, 0, (2,))
    q1, q2, p1, p2 = 1.0, 2.0, 3.0, 5.0
    v = np.array([q1, q2, p1, p2])
    got = dp.rank_one_moment(cfg, v)
    expect = np.outer(v, np.array([p1, p2, -q1, -q2]))
    assert np.array_equal(got, expect)
    assert expect[0, 0] == q1 * p1 and expect[0, 2] == -q1 * q1
    assert not np.any(dp.rank_one_moment(cfg, np.zeros(4)))


def test_rank_one_angular_momentum_value():
    cfg = dp.make_dual_pair("o-sp", 1, 0, (2,))
    X = np.array(
        [
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )
    rng = np.random.default_rng(43)
    v = rng.standard_normal(4)
    val = 0.5 * np.trace(X @ dp.rank_one_moment(cfg, v))
    assert val == pytest.approx(v[0] * v[3] - v[1] * v[2])


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_hamiltonians_match_momentum_pairings(cfg):
    from orbitkit.liealg import random_element

    rng = np.random.default_rng(47)
    alpha = rand_alpha(cfg, rng)
    X = random_element(cfg.target, rng)
    f = dp.quadratic_hamiltonian(cfg, dp.g_action(cfg, X), alpha)
    assert f == pytest.approx(0.5 * dp.trace_r(cfg, X @ dp.mu_g(cfg, alpha)), abs=1e-9)
    for Y in dp.h_basis(cfg)[:4]:
        f = dp.quadratic_hamiltonian(cfg, dp.h_action(cfg, Y), alpha)
        assert f == pytest.approx(0.5 * dp.trace_r(cfg, Y @ dp.mu_h(cfg, alpha)), abs=1e-9)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_momentum_property_finite_difference(cfg):
    # D f_Y(alpha)[delta] = omega(Y.alpha, delta); central difference of a
    # quadratic is exact up to roundoff
    rng = np.random.default_rng(53)
    alpha = rand_alpha(cfg, rng)
    delta = rand_alpha(cfg, rng)
    h = 1e-4
    for Y in dp.h_basis(cfg)[:3]:
        act = dp.h_action(cfg, Y)
        fp = dp.quadratic_hamiltonian(cfg, act, alpha + h * delta)
        fm = dp.quadratic_hamiltonian(cfg, act, alpha - h * delta)
        fd = (fp - fm) / (2 * h)
        assert fd == pytest.approx(dp.omega_w(cfg, act(alpha), delta), abs=1e-8)
        # the action operator is omega-skew, i.e. lies in sp(W)
        beta = rand_alpha(cfg, rng)
        skew = dp.omega_w(cfg, act(alpha), beta) + dp.omega_w(cfg, alpha, act(beta))
        assert abs(skew) < 1e-10 * max(1.0, frobenius(alpha) * frobenius(beta))


# ---------------------------------------------------------------- zero level

@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_zero_level_is_exact(cfg):
    samples = dp.sample_zero_level(cfg, 20, seed=61)
    assert len(samples) == 20
    r = cfg.target.r
    for alpha in samples:
        assert frobenius(dp.mu_h(cfg, alpha)) <= 1e-10 * max(1.0, frobenius(alpha) ** 2)
        mg = dp.mu_g(cfg, alpha)
        assert frobenius(mg @ mg) <= 1e-9 * max(1e-12, frobenius(mg) ** 2)
        if cfg.case != "sp-so2q":
            s_k = cfg.s
            assert k_rank(cfg.target, mg) <= min(r, s_k)


@pytest.mark.parametrize("cfg", CONFIGS, ids=IDS)
def test_zero_level_prefix_is_the_smaller_sample(cfg):
    few = dp.sample_zero_level(cfg, 4, seed=71)
    many = dp.sample_zero_level(cfg, 100, seed=71)
    assert few.shape == (4,) + cfg.shape and many.shape == (100,) + cfg.shape
    assert np.array_equal(few, many[:4])
    assert dp.sample_zero_level(cfg, 0, seed=71).shape == (0,) + cfg.shape


def test_zero_level_other_direction():
    # mu_g = 0 forces mu_h squared to vanish; isotropic ROW spaces do it
    cfg = dp.make_dual_pair("u-u", 1, 1, (1, 1))
    v = np.array([1.0, 2.0j])
    w = np.array([1.0, 1.0])  # isotropic for diag(1,-1)
    alpha = np.outer(v, w)
    assert frobenius(dp.mu_g(cfg, alpha)) < 1e-12
    mh = dp.mu_h(cfg, alpha)
    assert frobenius(mh) > 0.1
    assert frobenius(mh @ mh) < 1e-12

    cfg = dp.make_dual_pair("o-sp", 2, 2, (1,))
    w1 = np.array([1.0, 0.0, 1.0, 0.0])
    w2 = np.array([0.0, 1.0, 0.0, 1.0])
    alpha = np.outer([1.0, 0.0], w1) + np.outer([0.0, 1.0], w2)
    assert frobenius(dp.mu_g(cfg, alpha)) < 1e-12
    mh = dp.mu_h(cfg, alpha)
    assert frobenius(mh) > 0.1
    assert frobenius(mh @ mh) < 1e-12
    assert dp.h_residual(cfg, mh) < 1e-12


def test_zero_level_trivial_source():
    cfg = dp.make_dual_pair("o-sp", 0, 0, (2,))
    hist = dp.reduce_and_classify(cfg, 5, seed=1)
    assert hist == {(0, 0): 5}


# ---------------------------------------------------------------- reduction

def test_compact_reduction_histograms():
    for case, sig, params in (
        ("o-sp", (2, 0), (2,)),
        ("u-u", (2, 0), (2, 2)),
        ("sp-sostar", (2, 0), (4,)),
    ):
        cfg = dp.make_dual_pair(case, *sig, params)
        hist = dp.reduce_and_classify(cfg, 120, seed=67)
        r, s = cfg.target.r, cfg.s
        assert all(u == 0 for (t, u) in hist)
        assert all(t <= min(r, s) for (t, u) in hist)
        assert (min(r, s), 0) in hist


def test_o2_histogram_types():
    cfg = dp.make_dual_pair("o-sp", 2, 0, (2,))
    hist = dp.reduce_and_classify(cfg, 150, seed=71)
    assert set(hist) <= {(0, 0), (1, 0), (2, 0)}
    assert (2, 0) in hist


def test_o11_whole_nilcone():
    cfg = dp.make_dual_pair("o-sp", 1, 1, (1,))
    hist = dp.reduce_and_classify(cfg, 200, seed=73)
    assert (1, 0) in hist and (0, 1) in hist


def test_noncompact_type_bounds():
    cfg = dp.make_dual_pair("o-sp", 2, 1, (2,))
    hist = dp.reduce_and_classify(cfg, 150, seed=79)
    r = cfg.target.r
    assert all(t <= min(r, 2) and u <= min(r, 1) for (t, u) in hist)
    assert any(u > 0 for (t, u) in hist)


def test_saturated_source_histogram_support():
    # s > r adds nothing: same support as s = r
    base = dp.make_dual_pair("o-sp", 2, 0, (2,))
    bigger = dp.make_dual_pair("o-sp", 3, 0, (2,))
    h1 = dp.reduce_and_classify(base, 200, seed=83)
    h2 = dp.reduce_and_classify(bigger, 200, seed=89)
    assert set(h1) == set(h2)


# ------------------------------------------------- invariant quadratics

def test_invariant_quadratics_dims():
    cfg = dp.make_dual_pair("o-sp", 2, 0, (2,))
    assert dp.invariant_quadratics_dim(cfg) == 10 == cfg.target.dim
    cfg = dp.make_dual_pair("u-u", 1, 0, (2, 1))
    assert dp.invariant_quadratics_dim(cfg) == 9 == cfg.target.dim
    cfg = dp.make_dual_pair("sp-sostar", 1, 0, (2,))
    assert dp.invariant_quadratics_dim(cfg) == cfg.target.dim == 6
    cfg = dp.make_dual_pair("o-sp", 1, 0, (2,))
    assert dp.invariant_quadratics_dim(cfg) == cfg.target.dim


def test_invariant_quadratics_errors():
    with pytest.raises(ValueError):
        dp.invariant_quadratics_dim(dp.make_dual_pair("o-sp", 1, 1, (1,)))
    with pytest.raises(ValueError):
        dp.invariant_quadratics_dim(dp.make_dual_pair("u-u", 2, 0, (3, 4)))


def test_moment_components_span_invariants():
    for cfg in (
        dp.make_dual_pair("o-sp", 2, 0, (2,)),
        dp.make_dual_pair("u-u", 1, 0, (2, 1)),
        dp.make_dual_pair("sp-sostar", 1, 0, (2,)),
    ):
        forms = dp.moment_quadratic_forms(cfg)
        assert np.linalg.matrix_rank(forms, tol=1e-8) == dp.invariant_quadratics_dim(cfg)


# ------------------------------------------------- semisimple reduction

def test_semisimple_reduction_square_cases():
    for case, params in (("o-sp", (2,)), ("u-u", (2, 1)), ("sp-sostar", (3,))):
        probe = dp.make_dual_pair(case, 1, 0, params)
        s = probe.target.N if case != "sp-sostar" else params[0]
        cfg = dp.make_dual_pair(case, s, 0, params)
        assert dp.semisimple_reduction_check(cfg, 1.0, 10, seed=97)
        assert dp.semisimple_reduction_check(cfg, 0.25, 5, seed=101)


def test_semisimple_level_value():
    # the source momentum is the constant -eps J_V on these samples
    cfg = dp.make_dual_pair("o-sp", 4, 0, (2,))
    eps = 0.5
    alpha = np.sqrt(eps) * np.eye(4)
    assert np.allclose(dp.mu_h(cfg, alpha), -eps * cfg.target.J_V, atol=1e-12)
    assert np.allclose(dp.mu_g(cfg, alpha), eps * cfg.target.J_V, atol=1e-12)


def test_semisimple_scaling_is_quadratic():
    cfg = dp.make_dual_pair("u-u", 3, 0, (2, 1))
    rng = np.random.default_rng(103)
    alpha = rand_alpha(cfg, rng)
    assert np.allclose(
        dp.mu_g(cfg, np.sqrt(2.0) * alpha), 2.0 * dp.mu_g(cfg, alpha), atol=1e-12
    )


def test_semisimple_reduction_validation():
    cfg = dp.make_dual_pair("o-sp", 3, 0, (2,))  # not square
    with pytest.raises(ValueError):
        dp.semisimple_reduction_check(cfg, 1.0, 3, seed=1)
    cfg = dp.make_dual_pair("o-sp", 4, 0, (2,))
    with pytest.raises(ValueError):
        dp.semisimple_reduction_check(cfg, -1.0, 3, seed=1)
    with pytest.raises(ValueError):
        dp.semisimple_reduction_check(dp.make_dual_pair("sp-so2q", 2, 0, (4,)), 1.0, 3, seed=1)


# ------------------------------------------------- so(2,q) constructions

@pytest.mark.parametrize("q", [4, 5])
def test_canonical_alphas_hit_generators_exactly(q):
    cfg = dp.make_dual_pair("sp-so2q", 1, 0, (q,))
    a1, a2 = dp.canonical_alphas(cfg)
    e1, e2 = (t[0] for t in standard_triples(cfg.target)[:2])
    assert np.array_equal(dp.mu_g(cfg, a1), e1)
    assert np.array_equal(dp.mu_g(cfg, a2), e2)
    assert np.array_equal(dp.mu_h(cfg, a1), np.zeros((2, 2)))
    assert np.array_equal(dp.mu_h(cfg, a2), np.zeros((2, 2)))


def test_canonical_alphas_validation():
    with pytest.raises(ValueError):
        dp.canonical_alphas(dp.make_dual_pair("o-sp", 1, 0, (2,)))
    with pytest.raises(ValueError):
        dp.canonical_alphas(dp.make_dual_pair("sp-so2q", 2, 0, (4,)))


@pytest.mark.parametrize("q", [4, 5])
def test_nilcone_chain(q):
    cfg = dp.make_dual_pair("sp-so2q", 1, 0, (q,))
    sp1 = make_algebra("sp", 1)
    for sign in (1, -1, None):
        samples = dp.sample_sp1_nilcone(cfg, 25, seed=107, sign=sign)
        assert len(samples) == 25
        types = set()
        for alpha in samples:
            mh = dp.mu_h(cfg, alpha)
            assert dp.h_residual(cfg, mh) < 1e-9 * max(1.0, frobenius(mh))
            assert frobenius(mh @ mh) <= 1e-10 * max(1.0, frobenius(mh) ** 2)
            mg = dp.mu_g(cfg, alpha)
            cube = mg @ mg @ mg
            assert frobenius(cube) <= 1e-9 * frobenius(mg) ** 3
            types.add(classify_nilpotent(sp1, mh))
        if sign is not None:
            assert len(types) == 1  # one nilcone half per requested sign
    plus = dp.sample_sp1_nilcone(cfg, 10, seed=109, sign=1, spread=False)
    minus = dp.sample_sp1_nilcone(cfg, 10, seed=109, sign=-1, spread=False)
    assert all(dp.mu_h(cfg, a)[0, 1] > 0 for a in plus)
    assert all(dp.mu_h(cfg, a)[0, 1] < 0 for a in minus)


def test_nilcone_validation():
    with pytest.raises(ValueError):
        dp.sample_sp1_nilcone(dp.make_dual_pair("sp-so2q", 2, 0, (4,)), 5, seed=1)
    with pytest.raises(ValueError):
        dp.sample_sp1_nilcone(dp.make_dual_pair("o-sp", 1, 0, (1,)), 5, seed=1)
    with pytest.raises(ValueError):
        dp.sample_sp1_nilcone(
            dp.make_dual_pair("sp-so2q", 1, 0, (4,)), 5, seed=1, sign=2
        )
