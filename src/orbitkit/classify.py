"""Orbit-type classification of square-zero matrices and closure membership.

For the three matrix families a nilpotent X with X^2 = 0 has type (t, u) where
t and u count the positive and negative eigenvalue pairs of the hermitian form
-J_V X.  so(2,q) carries no ambient J_V; there the type is decided by a
discriminant (nilpotency degree, matrix rank, sign of trace(z X), signature of
the symmetric matrix G X^2) calibrated on the standard representatives.  The
trace sign separates only the pure types (t,0)/(0,u): those orbits lie in a
proper invariant convex cone so the pairing with z keeps a fixed sign, while
on mixed orbits it genuinely varies and is ignored.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm

from .liealg import _require_member, b_x_form, basis, frobenius


class OrbitType(NamedTuple):
    t: int
    u: int


class _NotPseudoholomorphic:
    __slots__ = ()

    def __repr__(self):
        return "NotPseudoholomorphic"

    def __bool__(self):
        return False


NOT_PSEUDOHOLOMORPHIC = _NotPseudoholomorphic()


def admissible_types(desc):
    """All (t, u) with t + u <= r, listed holomorphic-first."""
    return [OrbitType(t, u)
            for s in range(desc.r + 1)
            for t in range(s, -1, -1)
            for u in (s - t,)]


def k_rank(desc, X, tol=1e-8):
    """Rank of X over the family's scalar ring (half the complex rank for so*)."""
    sv = np.linalg.svd(np.asarray(X), compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 0.0)))
    if desc.family == "sostar":
        return (rank + 1) // 2
    return rank


def _require_tol(tol):
    if not (np.isfinite(tol) and tol >= np.finfo(float).eps):
        raise ValueError(f"tolerance {tol!r} must be finite and at least machine epsilon")


def classify_nilpotent(desc, X, tol=1e-8):
    """OrbitType (t, u) of X, or NOT_PSEUDOHOLOMORPHIC; ArithmeticError when
    the cut at tol gives a type with t + u > r."""
    _require_tol(tol)
    X = np.asarray(X)
    _require_member(desc, X, tol)
    if desc.family == "so2q":
        return _classify_so2q(desc, X, tol)
    scale = frobenius(X)
    if scale <= tol:
        return OrbitType(0, 0)
    if frobenius(X @ X) > tol * scale * scale:
        return NOT_PSEUDOHOLOMORPHIC
    _, rank, sig = b_x_form(desc, X, tol)
    res = OrbitType((rank + sig) // 2, (rank - sig) // 2)
    if res.t + res.u > desc.r:
        raise ArithmeticError(f"type {tuple(res)} exceeds rank r = {desc.r} of "
                              f"{desc.name()} at tol={tol!r}; tolerance too tight")
    return res


def is_holomorphic(desc, X, tol=1e-8):
    """True iff the type is (t, 0), i.e. -J_V X is positive semidefinite."""
    res = classify_nilpotent(desc, X, tol)
    if res is NOT_PSEUDOHOLOMORPHIC:
        raise ValueError("matrix is not pseudoholomorphic nilpotent")
    return res.u == 0


# --- the so(2,q) discriminant --------------------------------------------------

def _so2q_discriminant(desc, X, tol):
    scale = frobenius(X)
    if scale <= tol:
        return (0, 0, 0, (0, 0))
    X2 = X @ X
    if frobenius(X2) <= tol * scale * scale:
        degree = 1
    elif frobenius(X2 @ X) <= tol * scale ** 3:
        degree = 2
    else:
        return None
    rank = k_rank(desc, X, tol)
    tr = float(np.trace(desc.z @ X))
    sign = 0 if abs(tr) <= tol * scale else (1 if tr > 0 else -1)
    M = desc.G @ X2
    ev = np.linalg.eigvalsh((M + M.T) / 2)
    thr = tol * max(1.0, np.abs(ev).max())
    sig = (int(np.sum(ev > thr)), int(np.sum(ev < -thr)))
    return (degree, rank, sign, sig)


def _so2q_table(desc):
    # discriminants of the standard representatives, computed once per q
    from .triples import orbit_rep
    table = []
    for tu in admissible_types(desc):
        d = _so2q_discriminant(desc, orbit_rep(desc, *tu), 1e-10)
        table.append((tu, d))
    return table


_SO2Q_TABLES = {}


def _classify_so2q(desc, X, tol):
    disc = _so2q_discriminant(desc, X, tol)
    if disc is None:
        return NOT_PSEUDOHOLOMORPHIC
    q = desc.params[0]
    if q not in _SO2Q_TABLES:
        _SO2Q_TABLES[q] = _so2q_table(desc)
    hits = []
    for tu, ref in _SO2Q_TABLES[q]:
        if (disc[0], disc[1], disc[3]) != (ref[0], ref[1], ref[3]):
            continue
        if tu.t != tu.u and disc[2] != ref[2]:
            continue        # trace sign binds only on the pure (convex) orbits
        hits.append(tu)
    if len(hits) == 1:
        return hits[0]
    return NOT_PSEUDOHOLOMORPHIC


# --- closure membership ---------------------------------------------------------

@dataclass(frozen=True)
class ClosureReport:
    ok: bool
    conditions: dict
    variant: str

    def __bool__(self):
        return self.ok

    def failed(self):
        return [k for k, v in self.conditions.items() if not v]


def in_closure(desc, X, s, tol=1e-8):
    """Does X lie in the closure of the rank-s holomorphic orbit?

    Standard families check the three semi-algebraic conditions: scalar rank
    at most s, matrix nilpotency, and positive semidefiniteness of -J_V X.
    so(2,q) instead checks rank class, the matching power vanishing, and that
    the discriminant lands on the holomorphic side; the report is flagged.
    """
    _require_tol(tol)
    X = np.asarray(X)
    _require_member(desc, X, tol)
    s = int(s)
    if s < 0 or s > desc.r:
        raise ValueError(f"s={s} out of range for {desc.name()}")
    scale = max(1.0, frobenius(X))
    if desc.family == "so2q":
        res = _classify_so2q(desc, X, tol)
        rank_class = None
        disc = _so2q_discriminant(desc, X, tol)
        if disc is not None:
            rank_class = disc[0]
        conds = {
            "rank_class": rank_class is not None and rank_class <= s,
            "power_vanishes": frobenius(np.linalg.matrix_power(X, s + 1))
                              <= tol * scale ** (s + 1),
            "holomorphic_side": res is not NOT_PSEUDOHOLOMORPHIC and res.u == 0,
        }
        return ClosureReport(all(conds.values()), conds, "so2q")
    ev = np.linalg.eigvals(X)
    M = -desc.J_V @ X
    M = (M + M.conj().T) / 2
    lam = np.linalg.eigvalsh(M)
    conds = {
        "rank": k_rank(desc, X, tol) <= s,
        "nilpotent": bool(np.all(np.abs(ev) <= np.sqrt(tol) * scale)),
        "form_psd": bool(lam.min() >= -tol * max(1.0, np.abs(lam).max())),
    }
    return ClosureReport(all(conds.values()), conds, "standard")


def pplus_closure_report(desc, w, s):
    """Is the model element in the closure of the rank-s stratum of p+?"""
    val = w.value if hasattr(w, "value") else np.asarray(w)
    s = int(s)
    tol = 1e-9
    if desc.family == "so2q":
        n2 = float(np.linalg.norm(val))
        if s <= 0:
            return n2 <= tol
        if s == 1:
            return abs(np.sum(val * val)) <= tol * max(1.0, n2 * n2)
        return True
    sv = np.linalg.svd(np.atleast_2d(val), compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 0.0)))
    cap = 2 * s if desc.family == "sostar" else s
    return rank <= cap


# --- orbit sampling ---------------------------------------------------------------

def random_exp_product(B, rng, steps):
    """(g, g^-1) for g = exp(xi_1) ... exp(xi_steps).

    Each xi is a combination of the basis stack B with N(0, 1) coefficients,
    scaled down to Frobenius norm 0.5 when it is larger.
    """
    g = ginv = np.eye(B.shape[-1], dtype=B.dtype)
    for _ in range(int(steps)):
        xi = np.tensordot(rng.standard_normal(len(B)), B, 1)
        nrm = frobenius(xi)
        if nrm > 0.5:
            xi = xi * (0.5 / nrm)
        g = g @ expm(xi)
        ginv = expm(-xi) @ ginv
    return g, ginv


def random_conjugate(desc, X, steps=3, seed=None, rng=None):
    """Ad(g) X for g a product of `steps` exponentials exp(xi), |xi| <= 0.5."""
    if rng is None:
        rng = np.random.default_rng(seed)
    g, ginv = random_exp_product(basis(desc), rng, steps)
    return g @ np.asarray(X) @ ginv


def semisimple_orbit_check(desc, X, eps, tol=1e-6):
    """Necessary condition for X to lie on the orbit of 2*eps*z: equal
    characteristic polynomials."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    cx = np.poly(np.asarray(X))
    cz = np.poly(2.0 * eps * desc.z)
    return bool(np.abs(cx - cz).max() <= tol * max(1.0, np.abs(cz).max()))
