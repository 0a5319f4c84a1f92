import numpy as np
import pytest

from orbitkit.liealg import (
    FAMILIES, ad_z, b_x_form, basis, bracket, cartan_split, contains,
    from_p_plus, frobenius, make_algebra, membership_residual, pplus_coords,
    pplus_dim, pplus_unflatten, proj_k, proj_p, random_element, to_p_plus,
)

ALL = [
    make_algebra("sp", 1), make_algebra("sp", 2), make_algebra("sp", 3),
    make_algebra("u", (1, 1)), make_algebra("u", (2, 1)),
    make_algebra("u", (3, 2)), make_algebra("u", (2, 3)),
    make_algebra("sostar", 2), make_algebra("sostar", 3),
    make_algebra("sostar", 4), make_algebra("sostar", 5),
    make_algebra("so2q", 2), make_algebra("so2q", 3), make_algebra("so2q", 6),
]


def _ids(descs):
    return [d.name() for d in descs]


# --- descriptor oracles ------------------------------------------------------

def test_descriptor_numbers():
    # (family, params) -> (N, r, dim), dim = real dimension
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("sp", 2)) == (4, 2, 10)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("sp", 4)) == (8, 4, 36)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("u", (1, 1))) == (2, 1, 4)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("u", (3, 3))) == (6, 3, 36)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("sostar", 4)) == (8, 2, 28)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("sostar", 5)) == (10, 2, 45)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("so2q", 3)) == (5, 2, 10)
    assert (lambda d: (d.N, d.r, d.dim))(make_algebra("so2q", 6)) == (8, 2, 28)


def test_descriptors_compare_by_family_and_params():
    a, b = make_algebra("sp", 3), make_algebra("sp", (3,))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_algebra("sp", 2) and a != make_algebra("so2q", 3)
    assert len({a, b, make_algebra("u", (2, 1))}) == 2
    B = basis(a)
    assert basis(b) is B
    assert B.shape == (a.dim, a.N, a.N) and not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0, 0] = 1.0


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        make_algebra("sp", 0)
    with pytest.raises(ValueError):
        make_algebra("u", (1, 0))
    with pytest.raises(ValueError):
        make_algebra("so2q", 1)     # q >= 2 or the split rank drops
    with pytest.raises(ValueError):
        make_algebra("e7", 1)


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_z_is_a_member(desc):
    assert contains(desc, desc.z)
    assert membership_residual(desc, desc.z) == 0.0


@pytest.mark.parametrize("desc", [d for d in ALL if d.family != "so2q"],
                         ids=_ids([d for d in ALL if d.family != "so2q"]))
def test_J_V_squares_to_minus_one(desc):
    J = desc.J_V
    assert np.allclose(J @ J, -np.eye(desc.N), atol=1e-14)


def test_so2q_has_no_ambient_J():
    assert make_algebra("so2q", 4).J_V is None


# --- membership --------------------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_basis_members_and_dimension(desc):
    B = basis(desc)
    assert len(B) == desc.dim
    for M in B:
        assert membership_residual(desc, M) == 0.0
    flat = np.stack([np.concatenate([M.real.ravel(), M.imag.ravel()])
                     if np.iscomplexobj(M) else
                     np.concatenate([M.ravel(), np.zeros(M.size)])
                     for M in B])
    assert np.linalg.matrix_rank(flat) == desc.dim


def test_membership_violations_detected():
    sp2 = make_algebra("sp", 2)
    M = np.zeros((4, 4))
    M[0, 2], M[1, 3] = 1.0, 1.0
    M[0, 3] = 0.5                      # symmetric violation in the B block
    assert not contains(sp2, M)
    u11 = make_algebra("u", (1, 1))
    assert not contains(u11, np.array([[1.0, 0.0], [0.0, -1.0]]))  # A* != -A
    so4 = make_algebra("sostar", 2)
    M = np.zeros((4, 4), dtype=complex)
    M[0, 1], M[1, 0] = 1.0, -1.0       # antisymmetric, but not quaternionic
    assert not contains(so4, M)
    M[2, 3], M[3, 2] = 1.0, -1.0       # the conj(A) block completes it
    assert contains(so4, M)
    assert not contains(so4, np.diag([1j, 1j, -1j, -1j]))    # quaternionic, symmetric
    so23 = make_algebra("so2q", 3)
    M = np.zeros((5, 5))
    M[0, 1] = M[1, 0] = 1.0            # symmetric inside the compact so(2) block
    assert not contains(so23, M)
    M[0, 1] = -1.0
    assert contains(so23, M)
    # complex dust on a real family is a violation, not noise to strip
    assert not contains(sp2, np.eye(4, dtype=complex) * 1e-3 * 1j +
                        random_element(sp2, np.random.default_rng(0)))


def test_membership_shape_check():
    with pytest.raises(ValueError):
        contains(make_algebra("sp", 2), np.zeros((3, 3)))


# --- Cartan decomposition ----------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_cartan_split_reconstructs_and_is_idempotent(desc):
    rng = np.random.default_rng(11)
    for _ in range(20):
        X = random_element(desc, rng)
        Xk, Xp = cartan_split(desc, X)
        assert np.allclose(Xk + Xp, X, atol=1e-12)
        assert contains(desc, Xk) and contains(desc, Xp)
        Kk, Kp = cartan_split(desc, Xk)
        assert frobenius(Kp) <= 1e-12
        Pk, Pp = cartan_split(desc, Xp)
        assert frobenius(Pk) <= 1e-12


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_cartan_relations(desc):
    # [k,k] in k, [k,p] in p, [p,p] in k
    rng = np.random.default_rng(5)
    for _ in range(10):
        Xk = proj_k(desc, random_element(desc, rng))
        Yk = proj_k(desc, random_element(desc, rng))
        Xp = proj_p(desc, random_element(desc, rng))
        Yp = proj_p(desc, random_element(desc, rng))
        s = max(1.0, frobenius(Xk), frobenius(Yk), frobenius(Xp), frobenius(Yp)) ** 2
        assert frobenius(proj_p(desc, bracket(Xk, Yk), check=False)) <= 1e-10 * s
        assert frobenius(proj_k(desc, bracket(Xk, Yp), check=False)) <= 1e-10 * s
        assert frobenius(proj_p(desc, bracket(Xp, Yp), check=False)) <= 1e-10 * s


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_z_centralizes_k_and_ad_z_squares_to_minus_id_on_p(desc):
    rng = np.random.default_rng(7)
    for _ in range(10):
        X = random_element(desc, rng)
        Xk, Xp = cartan_split(desc, X)
        assert frobenius(ad_z(desc, Xk)) <= 1e-12 * max(1.0, frobenius(Xk))
        assert np.allclose(ad_z(desc, ad_z(desc, Xp)), -Xp, atol=1e-12 * max(1.0, frobenius(Xp)))


@pytest.mark.parametrize("desc", [d for d in ALL if d.family != "so2q"],
                         ids=_ids([d for d in ALL if d.family != "so2q"]))
def test_ad_z_on_p_is_left_multiplication_by_J(desc):
    rng = np.random.default_rng(3)
    for _ in range(10):
        Xp = proj_p(desc, random_element(desc, rng))
        assert np.allclose(ad_z(desc, Xp), desc.J_V @ Xp, atol=1e-12 * max(1.0, frobenius(Xp)))


def test_reject_cartan_split_of_non_member():
    sp2 = make_algebra("sp", 2)
    with pytest.raises(ValueError):
        cartan_split(sp2, np.eye(4))


# --- bracket closure ---------------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_bracket_closure(desc):
    rng = np.random.default_rng(2026)
    for _ in range(125):
        X = random_element(desc, rng)
        Y = random_element(desc, rng)
        W = bracket(X, Y)
        assert membership_residual(desc, W) <= 1e-10 * max(1.0, np.abs(W).max())


# --- the p+ chart -------------------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_chart_round_trip(desc):
    rng = np.random.default_rng(13)
    for _ in range(20):
        Xp = proj_p(desc, random_element(desc, rng))
        w = to_p_plus(desc, Xp)
        assert w.family == desc.family
        back = from_p_plus(desc, w)
        assert np.allclose(back, Xp, atol=1e-12 * max(1.0, frobenius(Xp)))
        assert contains(desc, back)


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_chart_is_complex_linear_for_ad_z(desc):
    # the chart sends the intrinsic complex structure [z, .] to multiplication by i
    rng = np.random.default_rng(17)
    for _ in range(10):
        Xp = proj_p(desc, random_element(desc, rng))
        lhs = to_p_plus(desc, ad_z(desc, Xp)).value
        rhs = 1j * to_p_plus(desc, Xp).value
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, frobenius(Xp)))


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_chart_is_real_linear(desc):
    rng = np.random.default_rng(19)
    X1 = proj_p(desc, random_element(desc, rng))
    X2 = proj_p(desc, random_element(desc, rng))
    w = to_p_plus(desc, 2.0 * X1 - 0.5 * X2).value
    assert np.allclose(w, 2.0 * to_p_plus(desc, X1).value - 0.5 * to_p_plus(desc, X2).value)


@pytest.mark.parametrize("desc", ALL, ids=_ids(ALL))
def test_pplus_coords_round_trip(desc):
    rng = np.random.default_rng(23)
    c = rng.standard_normal(pplus_dim(desc)) + 1j * rng.standard_normal(pplus_dim(desc))
    w = pplus_unflatten(desc, c)
    assert np.allclose(pplus_coords(desc, w), c)
    # the unflattened element is a genuine chart image
    Xp = from_p_plus(desc, w)
    assert contains(desc, Xp)
    assert frobenius(proj_k(desc, Xp)) <= 1e-12
    assert np.allclose(to_p_plus(desc, Xp).value, w.value, atol=1e-12)


def test_pplus_dims():
    assert pplus_dim(make_algebra("sp", 3)) == 6
    assert pplus_dim(make_algebra("u", (3, 2))) == 6
    assert pplus_dim(make_algebra("sostar", 4)) == 6
    assert pplus_dim(make_algebra("so2q", 5)) == 5


# --- the hermitian form of a nilpotent ---------------------------------------

@pytest.mark.parametrize("desc", [d for d in ALL if d.family != "so2q"],
                         ids=_ids([d for d in ALL if d.family != "so2q"]))
def test_b_form_of_z_is_half_identity(desc):
    M, rank, sig = b_x_form(desc, desc.z)
    assert np.allclose(M, np.eye(desc.N) / 2)
    full = desc.N // 2 if desc.family == "sostar" else desc.N
    assert (rank, sig) == (full, full)


def test_b_form_rank_one_example():
    sp2 = make_algebra("sp", 2)
    e1 = np.zeros((4, 4))
    e1[0, 2] = -1.0                     # the first raising element
    M, rank, sig = b_x_form(sp2, e1)
    assert (rank, sig) == (1, 1)
    assert np.allclose(M, np.diag([0.0, 0.0, 1.0, 0.0]))


def test_b_form_unsupported_for_so2q():
    with pytest.raises(ValueError):
        b_x_form(make_algebra("so2q", 3), make_algebra("so2q", 3).z)
