import math

import numpy as np
import pytest

from orbitkit.liealg import bracket, frobenius, make_algebra, proj_k, random_element
from orbitkit.poisson import (
    ContractionModel, PoissonContext, ZetaPoly, contraction_bracket,
    disc_model_bracket, half_trace, lie_poisson_bracket,
    lie_poisson_bracket_structure, model_metric_and_curvature,
    poly_bracket, pplus_bracket_matrix, s1_energy, stereographic_to_disc,
)
from orbitkit.triples import orbit_rep

DESCS = [
    make_algebra("sp", 1), make_algebra("sp", 2),
    make_algebra("u", (2, 1)), make_algebra("sostar", 3),
    make_algebra("so2q", 3),
]
CTXS = {d.name(): PoissonContext(d) for d in DESCS}
IDS = list(CTXS)


@pytest.mark.parametrize("name", IDS)
def test_context_invariants(name):
    ctx = CTXS[name]
    c = ctx.structure
    assert np.abs(c + np.swapaxes(c, 0, 1)).max() <= 1e-12
    assert ctx.jacobi_residual() <= 1e-10
    P = ctx.pairing
    assert np.array_equal(P, P.T)
    assert np.linalg.cond(P) < 1e8


@pytest.mark.parametrize("name", IDS)
def test_coordinates_round_trip(name):
    ctx = CTXS[name]
    rng = np.random.default_rng(1)
    X = random_element(ctx.desc, rng)
    x = ctx.coordinates(X)
    assert np.allclose(ctx.from_coordinates(x), X, atol=1e-10)


# --- the three-dimensional table ----------------------------------------------

def _sl2_setup():
    ctx = CTXS["sp(1,R)"]
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    H = np.diag([1.0, -1.0])
    b = [E - F, E + F, H]
    d = [-(E - F), E + F, H]          # duals under the half-trace pairing
    return ctx, b, d


def test_sl2_bracket_table_doubles_the_reference():
    # {x1,x2} = 2 x0, {x0,x2} = 2 x1, {x0,x1} = -2 x2: the textbook table with
    # the same signs, scaled by 2 under the half-trace identification
    ctx, b, d = _sl2_setup()
    rng = np.random.default_rng(4)
    for _ in range(25):
        xi = random_element(ctx.desc, rng)
        x = [half_trace(dk, xi) for dk in d]
        assert abs(lie_poisson_bracket(ctx, d[1], d[2], xi) - 2 * x[0]) <= 1e-12
        assert abs(lie_poisson_bracket(ctx, d[0], d[2], xi) - 2 * x[1]) <= 1e-12
        assert abs(lie_poisson_bracket(ctx, d[0], d[1], xi) + 2 * x[2]) <= 1e-12


def test_bracket_antisymmetry_and_self():
    ctx, b, d = _sl2_setup()
    xi = ctx.from_coordinates([0.3, -1.2, 0.7])
    for a in d:
        assert lie_poisson_bracket(ctx, a, a, xi) == 0.0
    for a1 in d:
        for a2 in d:
            assert abs(lie_poisson_bracket(ctx, a1, a2, xi)
                       + lie_poisson_bracket(ctx, a2, a1, xi)) <= 1e-14


def test_jacobi_at_points():
    ctx, b, d = _sl2_setup()
    rng = np.random.default_rng(5)
    for _ in range(100):
        xi = random_element(ctx.desc, rng)
        total = 0.0
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            inner = bracket(d[i], d[j])
            total += lie_poisson_bracket(ctx, inner, d[k], xi)
        assert abs(total) <= 1e-10


@pytest.mark.parametrize("name", IDS)
def test_structure_constant_route_agrees(name):
    ctx = CTXS[name]
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = random_element(ctx.desc, rng)
        b = random_element(ctx.desc, rng)
        xi = random_element(ctx.desc, rng)
        direct = lie_poisson_bracket(ctx, a, b, xi)
        routed = lie_poisson_bracket_structure(ctx, a, b, xi)
        assert abs(complex(direct) - routed) <= 1e-8 * max(1.0, abs(complex(direct)))


# --- p+ coordinates --------------------------------------------------------------

@pytest.mark.parametrize("name", IDS)
def test_pplus_duals_sit_in_the_minus_eigenspace(name):
    ctx = CTXS[name]
    _, mats = ctx.pplus_duals()
    for c in mats:
        gap = frobenius(bracket(ctx.desc.z, c) + 1j * c)
        assert gap <= 1e-9 * max(1.0, frobenius(c))


@pytest.mark.parametrize("name", IDS)
def test_polarization_vanishing(name):
    ctx = CTXS[name]
    rng = np.random.default_rng(12)
    for _ in range(200):
        xi = random_element(ctx.desc, rng)
        B1, _ = pplus_bracket_matrix(ctx, xi)
        assert np.abs(B1).max() <= 1e-12 * max(1.0, frobenius(xi))


@pytest.mark.parametrize("name", IDS)
def test_conjugate_bracket_sees_only_the_k_part(name):
    ctx = CTXS[name]
    rng = np.random.default_rng(13)
    xi = random_element(ctx.desc, rng)
    _, B2 = pplus_bracket_matrix(ctx, xi)
    _, B2k = pplus_bracket_matrix(ctx, proj_k(ctx.desc, xi))
    assert np.allclose(B2, B2k, atol=1e-10 * max(1.0, frobenius(xi)))


def test_pplus_brackets_vanish_at_origin():
    ctx = CTXS["u(2,1)"]
    B1, B2 = pplus_bracket_matrix(ctx, np.zeros((3, 3)))
    assert np.abs(B1).max() == 0.0
    assert np.abs(B2).max() == 0.0


def test_sp1_conjugate_bracket_at_z():
    # hand value: dual of zeta is [[i,-1],[-1,-i]], and {zeta, conj zeta}(z) = -2i
    ctx = CTXS["sp(1,R)"]
    _, mats = ctx.pplus_duals()
    assert np.allclose(mats[0], np.array([[1j, -1.0], [-1.0, -1j]]), atol=1e-12)
    _, B2 = pplus_bracket_matrix(ctx, ctx.desc.z)
    assert abs(B2[0, 0] - (-2j)) <= 1e-12
    coeffs, _ = ctx.pplus_duals()
    routed = lie_poisson_bracket_structure(ctx, coeffs[0], np.conj(coeffs[0]), ctx.desc.z)
    assert abs(routed - (-2j)) <= 1e-10


def test_holomorphic_polynomials_poisson_commute_with_coordinates():
    # Cauchy-Riemann restatement: zbar-free f of degree <= 2 has {zeta_j, f} = 0
    for name in ("sp(2,R)", "u(2,1)"):
        ctx = CTXS[name]
        d = len(ctx.pplus_duals()[0])
        rng = np.random.default_rng(21)
        f = ZetaPoly.constant(d, 0.5)
        f = f + 2.0 * ZetaPoly.zeta(d, 0)
        f = f + ZetaPoly.zeta(d, 0) * ZetaPoly.zeta(d, d - 1)
        f = f - 3.0 * (ZetaPoly.zeta(d, d - 1) * ZetaPoly.zeta(d, d - 1))
        assert f.is_zbar_free()
        for _ in range(10):
            xi = random_element(ctx.desc, rng)
            for j in range(d):
                v = poly_bracket(ctx, ZetaPoly.zeta(d, j), f, xi)
                assert abs(v) <= 1e-12 * max(1.0, frobenius(xi) ** 2)
        # sanity: with a conjugate factor the bracket is generically nonzero
        g = ZetaPoly.zeta_bar(d, 0)
        vals = [abs(poly_bracket(ctx, ZetaPoly.zeta(d, 0), g,
                                 random_element(ctx.desc, rng))) for _ in range(5)]
        assert max(vals) > 1e-6


def test_poly_bracket_matches_linear_case():
    ctx = CTXS["sostar(3)"] if "sostar(3)" in CTXS else CTXS["so*(6)"]
    d = len(ctx.pplus_duals()[0])
    rng = np.random.default_rng(31)
    xi = random_element(ctx.desc, rng)
    _, B2 = pplus_bracket_matrix(ctx, xi)
    for j in range(d):
        for k in range(d):
            v = poly_bracket(ctx, ZetaPoly.zeta(d, j), ZetaPoly.zeta_bar(d, k), xi)
            assert abs(v - B2[j, k]) <= 1e-12


def test_poly_leibniz_identity():
    ctx = CTXS["sp(2,R)"]
    d = 3
    rng = np.random.default_rng(33)
    xi = random_element(ctx.desc, rng)
    w = ctx.zeta_values(xi)
    f = ZetaPoly.zeta(d, 0) + 0.5 * ZetaPoly.zeta_bar(d, 1)
    g = ZetaPoly.zeta(d, 1) * ZetaPoly.zeta(d, 2)
    h = ZetaPoly.zeta_bar(d, 2)
    lhs = poly_bracket(ctx, f * g, h, xi)
    rhs = f.value(w) * poly_bracket(ctx, g, h, xi) + g.value(w) * poly_bracket(ctx, f, h, xi)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


# --- the stacked kernel against pairwise references ----------------------------

# the five algebras of the polarization benchmark; u(3,3) and so*(8) have
# complex bases, on which the conjugate duals are not conj() of the duals
BENCH_CTXS = [PoissonContext(make_algebra(f, p)) for f, p in (
    ("sp", 4), ("u", (3, 3)), ("sostar", 4), ("so2q", 6), ("sp", 6))]
BENCH_IDS = [c.desc.name() for c in BENCH_CTXS]


def _pairwise_duals(ctx):
    coeffs, mats = ctx.pplus_duals()
    return list(mats), [np.tensordot(c, ctx.basis, 1) for c in coeffs.conj()]


def _pairwise_bracket(a, b, xi):
    return np.trace((a @ b - b @ a) @ xi) / 2


def _bench_points(ctx, seed):
    rng = np.random.default_rng(seed)
    return [ctx.desc.z] + [random_element(ctx.desc, rng) for _ in range(3)]


@pytest.mark.parametrize("ctx", BENCH_CTXS, ids=BENCH_IDS)
def test_bracket_matrices_match_pairwise_reference(ctx):
    mats, bars = _pairwise_duals(ctx)
    d = len(mats)
    for xi in _bench_points(ctx, 41):
        ref1 = np.array([[_pairwise_bracket(mats[j], mats[k], xi)
                          for k in range(d)] for j in range(d)])
        ref2 = np.array([[_pairwise_bracket(mats[j], bars[k], xi)
                          for k in range(d)] for j in range(d)])
        B1, B2 = pplus_bracket_matrix(ctx, xi)
        scale = max(1.0, np.abs(ref2).max())
        assert np.abs(B1 - ref1).max() <= 1e-12 * scale
        assert np.abs(B2 - ref2).max() <= 1e-12 * scale


@pytest.mark.parametrize("ctx", BENCH_CTXS, ids=BENCH_IDS)
def test_poly_bracket_matches_double_sum_reference(ctx):
    # f = zeta_0 conj(zeta_1) + zeta_1^2 / 2, g = conj(zeta_0) zeta_1 + conj(zeta_1) + 2 zeta_0
    mats, bars = _pairwise_duals(ctx)
    d = len(mats)
    Z = ZetaPoly
    f = Z.zeta(d, 0) * Z.zeta_bar(d, 1) + 0.5 * (Z.zeta(d, 1) * Z.zeta(d, 1))
    g = Z.zeta_bar(d, 0) * Z.zeta(d, 1) + Z.zeta_bar(d, 1) + 2.0 * Z.zeta(d, 0)
    duals = mats + bars            # variables 0..d-1, then the conjugates
    for xi in _bench_points(ctx, 43):
        w = [np.trace(m @ xi) / 2 for m in mats]
        wb = [np.trace(b @ xi) / 2 for b in bars]
        df = {0: wb[1], 1: w[1], d + 1: w[0]}
        dg = {d: w[1], 1: wb[0], d + 1: 1.0, 0: 2.0}
        ref = sum(a * b * _pairwise_bracket(duals[v1], duals[v2], xi)
                  for v1, a in df.items() for v2, b in dg.items())
        got = poly_bracket(ctx, f, g, xi)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


BAD_POINTS = {
    "nan": lambda N: np.where(np.eye(N) > 0, np.nan, 0.0),
    "inf": lambda N: np.full((N, N), np.inf),
    "too-small": lambda N: np.zeros((N - 1, N - 1)),
    "not-square": lambda N: np.zeros((N, N + 1)),
    "vector": lambda N: np.zeros(N),
}


@pytest.mark.parametrize("kind", BAD_POINTS)
def test_bad_evaluation_points_rejected(kind):
    ctx = CTXS["sp(2,R)"]
    xi = BAD_POINTS[kind](ctx.desc.N)
    d = len(ctx.pplus_duals()[0])
    f, g = ZetaPoly.zeta(d, 0), ZetaPoly.zeta_bar(d, 1)
    match = "non-finite" if kind in ("nan", "inf") else "needs 4 x 4"
    with pytest.raises(ValueError, match=match):
        pplus_bracket_matrix(ctx, xi)
    with pytest.raises(ValueError, match=match):
        poly_bracket(ctx, f, g, xi)


def test_degree_cap():
    d = 2
    q = ZetaPoly.zeta(d, 0) * ZetaPoly.zeta(d, 1)
    with pytest.raises(ValueError):
        _ = q * q * ZetaPoly.zeta(d, 0)


# --- contraction family -----------------------------------------------------------

def test_contraction_bracket_values():
    assert contraction_bracket(ContractionModel(1.0), 0.0, 0.0) == 1.0
    assert contraction_bracket(ContractionModel(0.0), 3.0, 4.0) == 5.0
    assert contraction_bracket(ContractionModel(2.0, sign=-1), 0.0, 0.0) == -2.0


def test_contraction_convergence_bound():
    grid = np.linspace(-5, 5, 21)
    for eps in (1.0, 0.25, 0.03125):
        m, m0 = ContractionModel(eps), ContractionModel(0.0)
        gap = max(abs(contraction_bracket(m, a, b) - contraction_bracket(m0, a, b))
                  for a in grid for b in grid)
        assert gap <= eps


def test_contraction_model_validation():
    with pytest.raises(ValueError):
        ContractionModel(-0.5)
    with pytest.raises(ValueError):
        ContractionModel(1.0, sign=2)


def test_metric_and_curvature():
    g, k = model_metric_and_curvature(ContractionModel(1.0), 0.0)
    assert (g, k) == (1.0, -1.0)
    _, k2 = model_metric_and_curvature(ContractionModel(2.0), 0.0)
    assert abs(k2 - (-1.0 / 8.0)) <= 1e-15
    gf, kf = model_metric_and_curvature(ContractionModel(0.0), 1.5 + 2j)
    assert kf == 0.0
    assert abs(gf - 1.0 / 2.5) <= 1e-15
    with pytest.raises(ValueError):
        model_metric_and_curvature(ContractionModel(0.0), 0.0)


def test_disc_bracket_values_and_domain():
    assert disc_model_bracket(1.0, 0.0, 0.0) == 0.25
    assert disc_model_bracket(4.0, 0.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        disc_model_bracket(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        disc_model_bracket(0.0, 0.0, 0.0)


def test_disc_domain_is_r_below_eps():
    # the pull-back of x = (100, 0) at eps = 4 has r^2 = 14.7: inside r < 4
    m = ContractionModel(4.0)
    y1, y2 = stereographic_to_disc(m, 100.0, 0.0)
    assert 4.0 < y1 * y1 + y2 * y2 < 16.0
    h = 1e-20
    d11 = stereographic_to_disc(m, 100.0 + 1j * h, 0.0)[0].imag / h
    d22 = stereographic_to_disc(m, 100.0, 1j * h)[1].imag / h
    pulled = d11 * d22 * contraction_bracket(m, 100.0, 0.0)
    assert abs(pulled - disc_model_bracket(4.0, y1, y2)) <= 1e-9
    assert disc_model_bracket(4.0, 3.0, 2.0) == pytest.approx((1 - 13 / 16) ** 2)
    # (0.6, 0) lies outside the disc r < 0.5
    with pytest.raises(ValueError, match="outside"):
        disc_model_bracket(0.5, 0.6, 0.0)


def test_stereographic_pullback_matches_disc_bracket():
    # {y1,y2} = det(Jacobian) {x1,x2}; the Jacobian comes from complex-step
    # differentiation, so the only error budget is the model mismatch itself
    rng = np.random.default_rng(77)
    h = 1e-20
    for eps in (0.5, 1.0, 4.0):
        m = ContractionModel(eps)
        for _ in range(34):
            x1, x2 = rng.uniform(-3, 3, size=2)
            y1, y2 = stereographic_to_disc(m, x1, x2)
            d11 = stereographic_to_disc(m, x1 + 1j * h, x2)[0].imag / h
            d12 = stereographic_to_disc(m, x1, x2 + 1j * h)[0].imag / h
            d21 = stereographic_to_disc(m, x1 + 1j * h, x2)[1].imag / h
            d22 = stereographic_to_disc(m, x1, x2 + 1j * h)[1].imag / h
            det = d11 * d22 - d12 * d21
            pulled = det * contraction_bracket(m, x1, x2)
            assert abs(pulled - disc_model_bracket(eps, y1, y2)) <= 1e-9


@pytest.mark.parametrize("l", [1, 2])
def test_poly_bracket_rejects_a_variable_count_mismatch(l):
    desc = make_algebra("sp", l)
    ctx = PoissonContext(desc)
    with pytest.raises(ValueError, match=f"2 and 2 variables; sp\\({l},R\\) has {desc.pplus_dim} "):
        poly_bracket(ctx, ZetaPoly.zeta(2, 0), ZetaPoly.zeta_bar(2, 1), desc.z)


# --- circle momentum --------------------------------------------------------------

def test_s1_energy_signs():
    for desc in DESCS:
        assert s1_energy(desc, np.zeros((desc.N, desc.N))) == 0.0
        a = s1_energy(desc, orbit_rep(desc, 1, 0))
        b = s1_energy(desc, orbit_rep(desc, 0, 1))
        assert a > 0 > b
        assert abs(a + b) <= 1e-14


def test_s1_energy_sign_is_stable_on_the_orbit():
    from orbitkit.classify import random_conjugate
    desc = make_algebra("u", (2, 1))
    X = orbit_rep(desc, 1, 0)
    for k in range(100):
        assert s1_energy(desc, random_conjugate(desc, X, seed=k)) > 0
