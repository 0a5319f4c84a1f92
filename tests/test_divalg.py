import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.divalg import (
    MUL, AlgebraElement, DAMatrix, as_complex, cd_conj, cd_mul, complex_rep,
    complex_unrep, da_conj_norm_trace, da_mul, quat_join, quat_split,
)
from orbitkit.jordan import AlbertElement

coeff = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def vecs(tag, n):
    dim = {"R": 1, "C": 2, "H": 4, "O": 8}[tag]
    return st.lists(coeff, min_size=dim * n, max_size=dim * n)


def rand_elem(rng, tag):
    dim = {"R": 1, "C": 2, "H": 4, "O": 8, "OC": 8}[tag]
    c = rng.standard_normal(dim)
    if tag == "OC":
        c = c + 1j * rng.standard_normal(dim)
    return AlgebraElement(tag, c)


def test_unit_law():
    rng = np.random.default_rng(0)
    for tag in ("R", "C", "H", "O", "OC"):
        one = AlgebraElement.one(tag)
        x = rand_elem(rng, tag)
        assert np.allclose((one * x).coeffs, x.coeffs)
        assert np.allclose((x * one).coeffs, x.coeffs)


def test_quaternion_j_squares_to_minus_one():
    j = AlgebraElement.unit("H", 2)
    assert np.allclose((j * j).coeffs, [-1, 0, 0, 0])


def test_imaginary_octonion_units_square_to_minus_one():
    for k in range(1, 8):
        e = AlgebraElement.unit("O", k)
        assert np.allclose((e * e).coeffs, -AlgebraElement.one("O").coeffs)
        c, n, t = da_conj_norm_trace(e)
        assert np.allclose(c.coeffs, -e.coeffs)
        assert n == 1.0
        assert t == 0.0


def test_conj_norm_trace_on_one():
    c, n, t = da_conj_norm_trace(AlgebraElement.one("O"))
    assert np.allclose(c.coeffs, AlgebraElement.one("O").coeffs)
    assert n == 1.0 and t == 2.0


def test_trace_is_twice_real_coefficient():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rand_elem(rng, "O")
        assert da_conj_norm_trace(x)[2] == 2 * x.coeffs[0]


@settings(max_examples=60, deadline=None)
@given(vecs("O", 2))
def test_composition_law(v):
    a = AlgebraElement("O", v[:8])
    b = AlgebraElement("O", v[8:])
    na, nb, nab = a.norm(), b.norm(), (a * b).norm()
    assert abs(nab - na * nb) <= 1e-12 * max(1.0, na * nb)


@settings(max_examples=60, deadline=None)
@given(vecs("O", 2))
def test_conjugation_antiautomorphism(v):
    a = AlgebraElement("O", v[:8])
    b = AlgebraElement("O", v[8:])
    lhs = (a * b).conj()
    rhs = b.conj() * a.conj()
    assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(vecs("O", 2))
def test_alternative_laws(v):
    a = AlgebraElement("O", v[:8])
    b = AlgebraElement("O", v[8:])
    scale = 1e-12 * max(1.0, np.abs(a.coeffs).max() ** 2 * max(1.0, np.abs(b.coeffs).max()))
    assert np.abs((a * (a * b)).coeffs - ((a * a) * b).coeffs).max() <= scale
    assert np.abs(((b * a) * a).coeffs - (b * (a * a)).coeffs).max() <= scale


def test_associativity_fails_in_octonions_but_holds_in_h():
    # sanity: the tower is built right (H associative, O only alternative)
    e = AlgebraElement.unit
    a, b, c = e("O", 1), e("O", 2), e("O", 4)
    assert not np.allclose(((a * b) * c).coeffs, (a * (b * c)).coeffs)
    rng = np.random.default_rng(3)
    x, y, z = (rand_elem(rng, "H") for _ in range(3))
    assert np.allclose(((x * y) * z).coeffs, (x * (y * z)).coeffs)


def test_composition_law_on_random_pairs_all_tags():
    rng = np.random.default_rng(11)
    for tag in ("R", "C", "H", "O"):
        for _ in range(1000 if tag == "O" else 200):
            a, b = rand_elem(rng, tag), rand_elem(rng, tag)
            na, nb, nab = a.norm(), b.norm(), (a * b).norm()
            assert abs(nab - na * nb) <= 1e-12 * max(1.0, abs(na * nb))


def test_oc_conjugation_is_complex_linear():
    rng = np.random.default_rng(5)
    x = rand_elem(rng, "OC")
    lam = 0.3 - 1.7j
    assert np.allclose((lam * x).conj().coeffs, lam * x.conj().coeffs)
    # norm of an OC element may be non-real
    assert isinstance(x.norm(), complex)


def test_tag_mismatch_errors():
    a = AlgebraElement.one("H")
    b = AlgebraElement.one("O")
    with pytest.raises(ValueError):
        da_mul(a, b)


def test_scalar_json_round_trip():
    rng = np.random.default_rng(9)
    for tag in ("R", "C", "H", "O", "OC"):
        x = rand_elem(rng, tag)
        y = AlgebraElement.from_json(tag, x.to_json())
        assert np.allclose(x.coeffs, y.coeffs)


# --- the multiplication table ----------------------------------------------

def doubling_product(x, y):
    """(a, b)(c, d) = (ac - conj(d) b, da + b conj(c)), by plain recursion."""
    n = len(x)
    if n == 1:
        return x * y
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    conj = lambda z: np.concatenate([z[:1], -z[1:]])
    return np.concatenate([doubling_product(a, c) - doubling_product(conj(d), b),
                           doubling_product(d, a) + doubling_product(b, conj(c))])


@pytest.mark.parametrize("d", [2, 4, 8])
def test_table_matches_doubling_formula(d):
    e = np.eye(d)
    for i in range(d):
        for j in range(d):
            assert np.array_equal(MUL[d][i, j], doubling_product(e[i], e[j]))


def test_octonion_table_is_signed_permutation():
    T = MUL[8]
    assert np.array_equal(np.abs(T).sum(axis=2), np.ones((8, 8)))
    assert set(np.unique(T)) == {-1.0, 0.0, 1.0}
    for i in range(8):
        # left and right multiplication by e_i permute the basis up to sign
        assert np.array_equal(np.abs(T[i]).sum(axis=0), np.ones(8))
        assert np.array_equal(np.abs(T[:, i]).sum(axis=0), np.ones(8))
    assert np.array_equal(T[0], np.eye(8)) and np.array_equal(T[:, 0], np.eye(8))
    for i in range(1, 8):
        assert np.array_equal(T[i, i], -np.eye(8)[0])


@pytest.mark.parametrize("complex_coeffs", [False, True], ids=["O", "OC"])
def test_stacked_and_broadcast_products_match_row_by_row(complex_coeffs):
    rng = np.random.default_rng(37)

    def draw(*shape):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_coeffs else z

    x, y = draw(5, 8), draw(5, 8)
    got = cd_mul(x, y)
    assert got.shape == (5, 8)
    for k in range(5):
        assert np.allclose(got[k], doubling_product(x[k], y[k]), rtol=1e-14, atol=1e-14)
    u, v = draw(3, 1, 8), draw(1, 3, 8)
    got = cd_mul(u, v)
    assert got.shape == (3, 3, 8)
    for i in range(3):
        for j in range(3):
            assert np.allclose(got[i, j], doubling_product(u[i, 0], v[0, j]),
                               rtol=1e-14, atol=1e-14)


def test_product_outside_the_tower_rejected():
    with pytest.raises(ValueError, match="dimension 16"):
        cd_mul(np.ones(16), np.ones(16))
    with pytest.raises(ValueError):
        cd_mul(np.ones(8), np.ones(4))


def test_albert_from_grid_rejects_each_non_hermitian_slot():
    rng = np.random.default_rng(41)
    A = AlbertElement("C", rng.standard_normal(3) + 1j * rng.standard_normal(3),
                      rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    M = A.grid()
    assert np.array_equal(M[1, 2], A.a[0]) and np.array_equal(M[2, 1], cd_conj(A.a[0]))
    for i in range(3):
        for j in range(3):
            for k in (0, 5):
                bad = M.copy()
                bad[i, j, k] += 1e-3
                if i == j and k == 0:
                    AlbertElement.from_grid("C", bad)   # a diagonal scalar may change
                    continue
                with pytest.raises(ValueError, match="not hermitian"):
                    AlbertElement.from_grid("C", bad)


# --- matrices -------------------------------------------------------------

def rand_mat(rng, tag, m, n):
    dim = {"R": 1, "C": 2, "H": 4}[tag]
    return DAMatrix(tag, rng.standard_normal((m, n, dim)))


def test_matrix_multiplication_associative():
    rng = np.random.default_rng(13)
    for tag in ("R", "C", "H"):
        for _ in range(20):
            A = rand_mat(rng, tag, 2, 3)
            B = rand_mat(rng, tag, 3, 2)
            C = rand_mat(rng, tag, 2, 2)
            lhs = (A @ B) @ C
            rhs = A @ (B @ C)
            assert np.allclose(lhs.data, rhs.data, atol=1e-10)


def test_complex_rep_of_identity():
    assert np.allclose(complex_rep(DAMatrix.eye("H", 1)), np.eye(2))


def test_complex_rep_of_j_has_rank_two():
    J = DAMatrix("H", np.array([[[0.0, 0.0, 1.0, 0.0]]]))
    R = complex_rep(J)
    assert np.allclose(R, [[0, -1], [1, 0]])
    assert np.linalg.matrix_rank(R) == 2


def test_complex_rep_multiplicative():
    rng = np.random.default_rng(17)
    for _ in range(50):
        A = rand_mat(rng, "H", 2, 2)
        B = rand_mat(rng, "H", 2, 2)
        lhs = complex_rep(A @ B)
        rhs = complex_rep(A) @ complex_rep(B)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


def test_complex_rep_respects_conj_transpose():
    rng = np.random.default_rng(19)
    A = rand_mat(rng, "H", 3, 2)
    assert np.allclose(complex_rep(A.conj_transpose()), complex_rep(A).conj().T)


def test_complex_rep_injective_and_rank_doubling():
    rng = np.random.default_rng(23)
    A = rand_mat(rng, "H", 3, 3)
    assert complex_unrep(complex_rep(A)).norm() > 0
    back = complex_unrep(complex_rep(A))
    assert np.allclose(back.data, A.data)
    # rep(M) = 0 implies M = 0
    Z = DAMatrix.zeros("H", 2, 2)
    assert np.allclose(complex_rep(Z), 0)
    # a rank-1 quaternionic outer product has complex rank 2
    u = rand_mat(rng, "H", 3, 1)
    v = rand_mat(rng, "H", 1, 3)
    assert np.linalg.matrix_rank(complex_rep(u @ v)) == 2


def test_quat_split_join_round_trip():
    rng = np.random.default_rng(29)
    A = rand_mat(rng, "H", 2, 4)
    assert np.allclose(quat_join(*quat_split(A)).data, A.data)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(31)
    for tag in ("R", "C", "H"):
        A = rand_mat(rng, tag, 2, 3)
        B = DAMatrix.from_json(A.to_json())
        assert B.tag == A.tag and np.allclose(B.data, A.data)


def test_as_complex():
    A = DAMatrix("C", np.array([[[1.0, 2.0]]]))
    assert as_complex(A)[0, 0] == 1 + 2j
    with pytest.raises(ValueError):
        as_complex(DAMatrix.eye("H", 1))
