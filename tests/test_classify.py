import numpy as np
import pytest

from orbitkit.classify import (
    NOT_PSEUDOHOLOMORPHIC, OrbitType, admissible_types, classify_many, classify_nilpotent,
    in_closure, is_holomorphic, k_rank, pplus_closure_report, random_conjugate,
    semisimple_orbit_check,
)
from orbitkit.dualpair import make_dual_pair, mu_g, sample_zero_level
from orbitkit.liealg import contains, make_algebra, pplus_unflatten
from orbitkit.triples import ks_element, orbit_rep

ALL = [
    make_algebra("sp", 2), make_algebra("sp", 3),
    make_algebra("u", (2, 2)), make_algebra("u", (3, 2)),
    make_algebra("sostar", 4), make_algebra("sostar", 5),
    make_algebra("so2q", 2), make_algebra("so2q", 4), make_algebra("so2q", 5),
]
IDS = [d.name() for d in ALL]


def test_admissible_type_count():
    for desc in ALL:
        types = admissible_types(desc)
        assert len(types) == (desc.r + 1) * (desc.r + 2) // 2
        assert len(set(types)) == len(types)
        assert OrbitType(0, 0) in types


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_zero_classifies_as_origin(desc):
    assert classify_nilpotent(desc, np.zeros((desc.N, desc.N))) == (0, 0)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_representatives_classify_to_their_type(desc):
    for t, u in admissible_types(desc):
        assert classify_nilpotent(desc, orbit_rep(desc, t, u)) == (t, u)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_positive_scaling_invariance(desc):
    for t, u in admissible_types(desc):
        X = orbit_rep(desc, t, u)
        for lam in (0.1, 1.0, 10.0):
            assert classify_nilpotent(desc, lam * X) == (t, u)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_conjugation_invariance(desc):
    for t, u in admissible_types(desc):
        X = orbit_rep(desc, t, u)
        for k in range(6):
            Y = random_conjugate(desc, X, steps=3, seed=1000 * t + 100 * u + k)
            assert contains(desc, Y, tol=1e-9)
            assert classify_nilpotent(desc, Y) == (t, u)


def test_non_member_rejected():
    with pytest.raises(ValueError):
        classify_nilpotent(make_algebra("sp", 2), np.eye(4))


def test_non_finite_input_rejected():
    sp2 = make_algebra("sp", 2)
    X = orbit_rep(sp2, 1, 0)
    X[0, 1] = np.nan
    assert not contains(sp2, X)
    with pytest.raises(ValueError, match="non-finite"):
        classify_nilpotent(sp2, X)


@pytest.mark.parametrize("tol", [0.0, 1e-17, np.finfo(float).eps / 2, -1e-8,
                                 np.nan, np.inf])
def test_tolerance_below_machine_precision_rejected(tol):
    sp2 = make_algebra("sp", 2)
    X = orbit_rep(sp2, 1, 0)
    with pytest.raises(ValueError, match="tolerance"):
        classify_nilpotent(sp2, X, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        in_closure(sp2, X, 1, tol=tol)
    assert classify_nilpotent(sp2, X, tol=np.finfo(float).eps) == (1, 0)


def test_type_beyond_rank_raises():
    # just above machine epsilon the signature cut counts rounding noise
    # as eigenvalues: without the check this sample set yields (3,1) and
    # (4,0) on sp(3,R), whose rank is 3
    cfg = make_dual_pair("o-sp", 3, 0, (3,))
    with pytest.raises(ArithmeticError, match=r"r = 3 .*tol=2\.3e-16"):
        for alpha in sample_zero_level(cfg, 200, seed=1):
            classify_nilpotent(cfg.target, mu_g(cfg, alpha), tol=2.3e-16)


def _mixed_stack(desc, seed):
    """Every admissible representative and a conjugate of each, zero, and the
    H-element z, which is not square-zero."""
    rng = np.random.default_rng(seed)
    Xs = [np.zeros((desc.N, desc.N)), desc.z]
    for t, u in admissible_types(desc):
        X = orbit_rep(desc, t, u)
        Xs += [X, random_conjugate(desc, X, rng=rng)]
    return np.array(Xs, dtype=complex if desc.base == "C" else float)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_classify_many_matches_one_by_one(desc):
    Xs = _mixed_stack(desc, 17)
    got = classify_many(desc, Xs)
    assert got == [classify_nilpotent(desc, X) for X in Xs]
    assert got[0] == (0, 0) and got[1] is NOT_PSEUDOHOLOMORPHIC
    assert classify_many(desc, Xs[:0]) == []


def _first_error(desc, Xs, tol):
    for X in Xs:
        try:
            classify_nilpotent(desc, X, tol=tol)
        except (ValueError, ArithmeticError) as exc:
            return exc
    return None


def test_classify_many_raises_the_error_of_the_first_bad_element():
    sp3 = make_algebra("sp", 3)
    good = orbit_rep(sp3, 2, 0)
    nan = good.copy()
    nan[0, 3] = np.nan
    outside = good + np.eye(6)
    # off the algebra by 5e-9: a member at tol 1e-8, but -J_V X fails the
    # 1e-9 hermitian check
    gap = good.copy()
    gap[0, 0] += 5e-9
    cfg = make_dual_pair("o-sp", 3, 0, (3,))
    mus = mu_g(cfg, sample_zero_level(cfg, 200, seed=1))
    beyond = next(X for X in mus if isinstance(_first_error(sp3, [X], 2.3e-16), ArithmeticError))
    bads = [nan, outside, gap, beyond]
    kinds = ("non-finite", "is not in", "hermitian", "exceeds rank")
    seen = set()
    for tol in (1e-8, 2.3e-16):     # beyond fails only at 2.3e-16, gap only at 1e-8
        for X in bads:
            for other in bads:
                Xs = np.array([good, X, good, other])
                want = _first_error(sp3, Xs, tol)
                if want is None:
                    assert classify_many(sp3, Xs, tol=tol) == [
                        classify_nilpotent(sp3, Y, tol=tol) for Y in Xs]
                    continue
                with pytest.raises(type(want)) as got:
                    classify_many(sp3, Xs, tol=tol)
                assert str(got.value) == str(want)
                seen |= {k for k in kinds if k in str(want)}
    assert seen == set(kinds)


def test_non_nilpotent_is_not_pseudoholomorphic():
    for desc in ALL:
        assert classify_nilpotent(desc, desc.z) is NOT_PSEUDOHOLOMORPHIC


def test_degree_three_nilpotent_in_sp2_is_not_pseudoholomorphic():
    # strictly upper triangular member with X^2 != 0: nilpotent but not square-zero
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.diag([0.0, 1.0])
    X = np.block([[A, B], [np.zeros((2, 2)), -A.T]])
    desc = make_algebra("sp", 2)
    assert contains(desc, X)
    assert np.linalg.norm(X @ X) > 0.5
    assert classify_nilpotent(desc, X) is NOT_PSEUDOHOLOMORPHIC


def test_holomorphic_flag():
    desc = make_algebra("u", (2, 2))
    assert is_holomorphic(desc, orbit_rep(desc, 2, 0))
    assert is_holomorphic(desc, orbit_rep(desc, 0, 0))
    assert not is_holomorphic(desc, orbit_rep(desc, 0, 2))
    assert not is_holomorphic(desc, orbit_rep(desc, 1, 1))
    with pytest.raises(ValueError):
        is_holomorphic(desc, desc.z)


# --- closures ---------------------------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_holomorphic_chain(desc):
    for s in range(desc.r + 1):
        X = orbit_rep(desc, s, 0)
        for sp in range(desc.r + 1):
            assert bool(in_closure(desc, X, sp)) == (sp >= s)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_mixed_and_anti_types_never_in_holomorphic_closures(desc):
    if desc.r < 2:
        return
    for X in (orbit_rep(desc, 1, 1), orbit_rep(desc, 0, 1)):
        for s in range(desc.r + 1):
            rep = in_closure(desc, X, s)
            assert not rep
            assert rep.failed()


def test_closure_report_details():
    desc = make_algebra("sp", 2)
    rep = in_closure(desc, orbit_rep(desc, 1, 1), 2)
    assert rep.variant == "standard"
    assert "form_psd" in rep.failed()
    assert rep.conditions["rank"] and rep.conditions["nilpotent"]
    rep2 = in_closure(make_algebra("so2q", 3),
                      orbit_rep(make_algebra("so2q", 3), 1, 1), 2)
    assert rep2.variant == "so2q"
    assert "holomorphic_side" in rep2.failed()


def test_zero_in_every_closure():
    for desc in ALL:
        Z = np.zeros((desc.N, desc.N))
        for s in range(desc.r + 1):
            assert in_closure(desc, Z, s)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_closure_monotone_on_conjugates(desc):
    rng_seed = 7
    for t, u in admissible_types(desc):
        X = random_conjugate(desc, orbit_rep(desc, t, u), seed=rng_seed)
        flags = [bool(in_closure(desc, X, s)) for s in range(desc.r + 1)]
        for a, b in zip(flags, flags[1:]):
            assert b or not a     # once true, stays true


# --- p+ closures ---------------------------------------------------------------

def test_pplus_rank_closure_matrix_families():
    rng = np.random.default_rng(3)
    desc = make_algebra("sp", 3)
    v = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    w = v @ v.T                   # symmetric, rank 2
    assert pplus_closure_report(desc, pplus_unflatten(desc, w[np.triu_indices(3)]), 2)
    assert not pplus_closure_report(desc, pplus_unflatten(desc, w[np.triu_indices(3)]), 1)


def test_pplus_closure_of_distinguished_elements():
    for desc in ALL:
        for s in range(desc.r + 1):
            w = ks_element(desc, s)
            assert pplus_closure_report(desc, w, s)
            if s > 0:
                assert not pplus_closure_report(desc, w, s - 1)


def test_pplus_quadric_examples():
    desc = make_algebra("so2q", 5)
    w = np.array([1j, 1.0, 0.0, 0.0, 0.0])
    assert pplus_closure_report(desc, w, 1)
    assert not pplus_closure_report(desc, np.array([1.0, 1.0, 0, 0, 0]), 1)
    assert pplus_closure_report(desc, np.zeros(5), 0)
    assert not pplus_closure_report(desc, w, 0)
    assert pplus_closure_report(desc, np.array([1.0, 1.0, 0, 0, 0]), 2)


# --- sampling helpers -------------------------------------------------------------

def test_random_conjugate_zero_steps_is_identity():
    desc = make_algebra("u", (2, 1))
    X = orbit_rep(desc, 1, 0)
    assert np.array_equal(random_conjugate(desc, X, steps=0, seed=5), X)


@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_random_conjugate_preserves_spectrum_and_membership(desc):
    rng = np.random.default_rng(9)
    from orbitkit.liealg import random_element
    X = random_element(desc, rng)
    Y = random_conjugate(desc, X, steps=4, seed=17)
    assert contains(desc, Y, tol=1e-9)
    cx, cy = np.poly(X), np.poly(Y)
    assert np.allclose(cx, cy, atol=1e-8 * max(1.0, np.abs(cx).max()))


def test_random_conjugate_is_seed_deterministic():
    desc = make_algebra("sp", 2)
    X = orbit_rep(desc, 1, 0)
    assert np.array_equal(random_conjugate(desc, X, seed=3),
                          random_conjugate(desc, X, seed=3))


# --- semisimple proxy -------------------------------------------------------------

@pytest.mark.parametrize("desc", ALL, ids=IDS)
def test_semisimple_check(desc):
    eps = 0.75
    X = 2 * eps * desc.z
    assert semisimple_orbit_check(desc, X, eps)
    assert semisimple_orbit_check(desc, random_conjugate(desc, X, seed=2), eps)
    if desc.r >= 1:
        assert not semisimple_orbit_check(desc, orbit_rep(desc, 1, 0), eps)
    assert not semisimple_orbit_check(desc, X, 2 * eps)
    with pytest.raises(ValueError):
        semisimple_orbit_check(desc, X, -1.0)
