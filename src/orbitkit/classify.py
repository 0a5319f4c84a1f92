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
from math import factorial, isfinite
from typing import NamedTuple

import numpy as np

from .liealg import (
    _require_form, _require_member, basis, form_counts, frobenius, membership_residual,
)


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


_EPS = np.finfo(float).eps


def _require_tol(tol):
    if not (isfinite(tol) and tol >= _EPS):
        raise ValueError(f"tolerance {tol!r} must be finite and at least machine epsilon")


def classify_nilpotent(desc, X, tol=1e-8):
    """OrbitType (t, u) of X, or NOT_PSEUDOHOLOMORPHIC; ArithmeticError when
    the cut at tol gives a type with t + u > r."""
    return classify_many(desc, np.asarray(X)[None], tol)[0]


def classify_many(desc, Xs, tol=1e-8):
    """classify_nilpotent of every matrix of a (k, N, N) stack, as a list.

    The linear algebra runs on the whole stack.  Each element meets the
    checks in this order: finiteness, membership, zero scale, square-zero,
    the hermitian gap and so* parity of -J_V X, and t + u <= r.  When
    elements fail, the error raised is the one of the first failing element.
    """
    _require_tol(tol)
    Xs = np.asarray(Xs)
    if Xs.ndim != 3 or Xs.shape[1:] != (desc.N, desc.N):
        raise ValueError(f"expected {desc.N} x {desc.N} matrices, got shape {Xs.shape}")
    amax = np.abs(Xs).max(axis=(1, 2), initial=0.0)    # NaN or inf when not finite
    finite = np.isfinite(amax)
    if not finite.all():
        Xs = np.where(finite[:, None, None], Xs, 0)
    # contains(), with the largest entries already at hand
    member = [isfinite(a) and r <= tol * max(1.0, a)
              for a, r in zip(amax.tolist(), membership_residual(desc, Xs).tolist())]
    if desc.family == "so2q":
        if not all(member):
            _raise_for(desc, Xs, finite, member.index(False))
        return [_classify_so2q(desc, X, tol) for X in Xs]
    scale, scale2 = _frobenius(np.concatenate((Xs, Xs @ Xs))).reshape(2, -1)    # of X and X^2
    # a type, None for a non-member, or True where the form decides the type
    out = [None if not ok else OrbitType(0, 0) if s <= tol
           else NOT_PSEUDOHOLOMORPHIC if s2 > tol * s * s else True
           for ok, s, s2 in zip(member, scale.tolist(), scale2.tolist())]
    live = [i for i, typ in enumerate(out) if typ is True]
    if live:
        _, gap, gap_bad, odd, rank, sig = form_counts(desc, Xs[live], tol)
    forms = iter(range(len(live)))      # the place of each live element in form_counts
    for i, typ in enumerate(out):
        if typ is None:
            _raise_for(desc, Xs, finite, i)
        if typ is True:
            j = next(forms)
            _require_form(gap, gap_bad, odd, j)
            k, g = int(rank[j]), int(sig[j])
            out[i] = OrbitType((k + g) // 2, (k - g) // 2)
            if out[i].t + out[i].u > desc.r:
                raise ArithmeticError(f"type {tuple(out[i])} exceeds rank r = {desc.r} of "
                                      f"{desc.name()} at tol={tol!r}; tolerance too tight")
    return out


def _frobenius(Xs):
    """Frobenius norm of each matrix of a stack."""
    v = Xs.reshape(len(Xs), Xs.shape[1] * Xs.shape[2])
    return np.sqrt(np.vecdot(v, v).real)


def _raise_for(desc, Xs, finite, i):
    """The membership error of element i: non-finite, or outside the algebra."""
    if not finite[i]:
        raise ValueError(f"matrix has non-finite entries; not an element of {desc.name()}")
    raise ValueError(f"matrix is not in {desc.name()} "
                     f"(residual {membership_residual(desc, Xs[i]):.3e})")


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
    xi = lie_steps(rng.standard_normal((int(steps), len(B))), B)
    E = expm(np.concatenate([xi, -xi]))
    g = ginv = np.eye(B.shape[-1], dtype=B.dtype)
    for e, einv in zip(E[:len(xi)], E[len(xi):]):
        g = g @ e
        ginv = einv @ ginv
    return g, ginv


def lie_steps(coeffs, B):
    """The combinations coeffs . B over the last axis of coeffs, each scaled
    down to Frobenius norm 0.5 when it is larger."""
    xi = np.tensordot(coeffs, B, 1)
    return xi * (0.5 / np.maximum(np.linalg.norm(xi, axis=(-2, -1)), 0.5))[..., None, None]


# Degree-13 Pade coefficients b_k / b_0 = (26-k)! 13! / (26! k! (13-k)!) and
# the largest 1-norm at which the approximant alone is accurate to double
# precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005) 1179-1193).
_PADE13 = [factorial(26 - k) * factorial(13) / (factorial(26) * factorial(k) * factorial(13 - k))
           for k in range(14)]
_THETA13 = 5.371920351148152


def expm(A):
    """exp(A) for a square matrix or a (..., n, n) stack.

    Scaling and squaring with the degree-13 Pade approximant: each matrix is
    scaled by 2^-s to 1-norm at most theta_13, and the approximant squared
    s times.  A matrix of a stack gets the same bits as it gets alone, and
    a square-zero X with dyadic entries gives I + X exactly.
    """
    A = np.asarray(A)
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(float)
    mant, expo = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1, initial=0.0) / _THETA13)
    s = np.maximum(expo - (mant == 0.5), 0)     # least s >= 0 with norm / 2^s <= theta
    A = A / np.exp2(s)[..., None, None]
    b = _PADE13
    eye = np.eye(A.shape[-1], dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + eye)
    R = np.linalg.solve(V - U, V + U)
    for i in range(int(s.max(initial=0))):
        R = np.where((s > i)[..., None, None], R @ R, R)
    return R


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
