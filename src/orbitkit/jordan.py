"""Rank-3 exceptional Jordan algebra over the (complexified) octonions, the
Jordan rank on the classical model spaces, and the relative invariants whose
zero loci cut out the sub-maximal strata.

An AlbertElement is a hermitian 3x3 matrix over O or O_C stored as three
scalars and three octonions,

    [ alpha_1   a_3       conj(a_2) ]
    [ conj(a_3) alpha_2   a_1       ]
    [ a_2       conj(a_1) alpha_3   ],

with the commutative product x o y = (xy + yx)/2 and the cubic generic norm

    nu(A) = alpha_1 alpha_2 alpha_3 + t(a_3 a_1 a_2)
            - alpha_1 n(a_1) - alpha_2 n(a_2) - alpha_3 n(a_3).

Over the complex field the octonion conjugation stays C-linear, so n(a) can
be any complex number and nu has honest complex zeros; its vanishing locus is
the sub-maximal-rank hypersurface.  The Freudenthal adjoint A# enters only as
a rank detector (rank <= 1 iff A# = 0) and is pinned by the Cayley-Hamilton
consequence A o A# = nu(A) I, which the tests check on random elements.

For the classical model spaces the invariant-vs-rank dictionary is:
symmetric and square matrices use the determinant, antisymmetric matrices of
even size use the determinant (the square of the degree-ell generator, with
the same zero locus), and the rank-2 quadric model uses sum(w_j^2).
"""

import numpy as np

from .divalg import cd_conj, cd_mul

_FIELDS = ("R", "C")
_DIAG = np.arange(3)
# cyclic successors of 0, 1, 2: a_i sits at grid slot (i+1, i+2) mod 3 and
# its conjugate at the transposed slot
_NXT, _PRV = np.array([1, 2, 0]), np.array([2, 0, 1])


class AlbertElement:
    """Hermitian 3x3 matrix over O (field "R") or O_C (field "C")."""

    __slots__ = ("field", "alpha", "a")

    def __init__(self, field, alpha, a):
        if field not in _FIELDS:
            raise ValueError(f"field must be one of {_FIELDS}, got {field!r}")
        dtype = complex if field == "C" else float
        alpha = np.asarray(alpha, dtype=dtype)
        a = np.asarray(a, dtype=dtype)
        if alpha.shape != (3,):
            raise ValueError("need three diagonal scalars")
        if a.shape != (3, 8):
            raise ValueError("need three octonions as rows of an (3, 8) array")
        self.field = field
        self.alpha = alpha
        self.a = a

    @classmethod
    def zero(cls, field="C"):
        return cls(field, np.zeros(3), np.zeros((3, 8)))

    @classmethod
    def diagonal(cls, field, d1, d2, d3):
        return cls(field, [d1, d2, d3], np.zeros((3, 8)))

    @classmethod
    def identity(cls, field="C"):
        return cls.diagonal(field, 1.0, 1.0, 1.0)

    def __add__(self, other):
        self._check(other)
        return AlbertElement(self.field, self.alpha + other.alpha, self.a + other.a)

    def __sub__(self, other):
        self._check(other)
        return AlbertElement(self.field, self.alpha - other.alpha, self.a - other.a)

    def __neg__(self):
        return AlbertElement(self.field, -self.alpha, -self.a)

    def scale(self, c):
        return AlbertElement(self.field, c * self.alpha, c * self.a)

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.alpha) ** 2)
                             + 2 * np.sum(np.abs(self.a) ** 2)))

    def grid(self):
        """The full (3, 3, 8) coefficient array of the hermitian matrix."""
        dtype = complex if self.field == "C" else float
        M = np.zeros((3, 3, 8), dtype=dtype)
        M[_DIAG, _DIAG, 0] = self.alpha
        M[_NXT, _PRV] = self.a
        M[_PRV, _NXT] = cd_conj(self.a)
        return M

    @classmethod
    def from_grid(cls, field, M, tol=1e-10):
        scale = max(1.0, float(np.max(np.abs(M))))
        if np.max(np.abs(M - cd_conj(np.swapaxes(M, 0, 1)))) > tol * scale:
            raise ValueError("coefficient grid is not hermitian")
        return cls(field, M[_DIAG, _DIAG, 0], M[_NXT, _PRV])

    def to_json(self):
        # scalar encodings: R -> number, C -> [re, im], O -> [8], OC -> [[8], [8]]
        if self.field == "C":
            alpha = [[x.real, x.imag] for x in self.alpha]
            a = [[row.real.tolist(), row.imag.tolist()] for row in self.a]
        else:
            alpha = [float(x) for x in self.alpha]
            a = [row.tolist() for row in self.a]
        return {"field": self.field, "alpha": alpha, "a": a}

    @classmethod
    def from_json(cls, data):
        field = data.get("field", "C")
        if field == "C":
            alpha = [x[0] + 1j * x[1] for x in data["alpha"]]
            a = [np.asarray(re, float) + 1j * np.asarray(im, float)
                 for re, im in data["a"]]
        else:
            alpha = data["alpha"]
            a = data["a"]
        return cls(field, alpha, np.stack([np.asarray(r) for r in a]))

    def _check(self, other):
        if not isinstance(other, AlbertElement) or self.field != other.field:
            raise ValueError("field mismatch")

    def __repr__(self):
        return f"AlbertElement({self.field!r}, alpha={self.alpha.tolist()})"


def _grid_mul(M, N):
    return cd_mul(M[:, :, None], N[None]).sum(axis=1)


def jordan_product(x, y):
    """x o y = (xy + yx)/2 on hermitian octonion matrices."""
    x._check(y)
    M, N = x.grid(), y.grid()
    P = 0.5 * (_grid_mul(M, N) + _grid_mul(N, M))
    return AlbertElement.from_grid(x.field, P)


def generic_norm(A):
    """The cubic form nu; Freudenthal's formal determinant."""
    a1, a2, a3 = A.a
    t = cd_mul(cd_mul(a3, a1), a2)[0] * 2
    n = cd_mul(A.a, cd_conj(A.a))[:, 0]
    val = (A.alpha[0] * A.alpha[1] * A.alpha[2] + t
           - A.alpha[0] * n[0] - A.alpha[1] * n[1] - A.alpha[2] * n[2])
    return complex(val) if A.field == "C" else float(val)


def freudenthal_adjoint(A):
    """A#: diagonal alpha_2 alpha_3 - n(a_1) (cyclic), off-diagonal
    conj(a_2 a_3) - alpha_1 a_1 (cyclic); A o A# = nu(A) I."""
    al, a = A.alpha, A.a
    beta = al[_NXT] * al[_PRV] - cd_mul(a, cd_conj(a))[:, 0]
    b = cd_conj(cd_mul(a[_NXT], a[_PRV])) - al[:, None] * a     # a2 a3, a3 a1, a1 a2
    return AlbertElement(A.field, beta, b)


def albert_rank(A, tol=1e-10):
    """0..3 by the chain nu(A) != 0 > A# != 0 > A != 0 > 0."""
    if A.field != "C":
        raise ValueError("rank stratification lives on the complex Albert algebra")
    scale = max(1.0, A.norm())
    if abs(generic_norm(A)) > tol * scale**3:
        return 3
    if freudenthal_adjoint(A).norm() > tol * scale**2:
        return 2
    if A.norm() > tol:
        return 1
    return 0


# --- classical model spaces -------------------------------------------------

def _model_value(w):
    if hasattr(w, "family") and hasattr(w, "value"):
        return w.family, np.asarray(w.value)
    raise ValueError("expected a p+ model element with family and value")


def jordan_rank_classical(w, tol=1e-9):
    """Jordan rank of a p+ model element.

    Matrix rank for the symmetric and rectangular models, half the matrix
    rank for the antisymmetric one, and the 0/1/2 quadric stratification for
    the rank-2 family.
    """
    family, val = _model_value(w)
    if family == "so2q":
        nrm = float(np.linalg.norm(val))
        if nrm <= tol:
            return 0
        return 1 if abs(np.sum(val * val)) <= tol * nrm * nrm else 2
    sv = np.linalg.svd(np.atleast_2d(val), compute_uv=False)
    rank = int(np.sum(sv > tol * max(1.0, sv[0] if len(sv) else 0.0)))
    if family == "sostar":
        # an antisymmetric matrix cannot have odd rank; a tolerance artifact can
        if rank % 2:
            raise ArithmeticError(
                f"odd rank {rank} on an antisymmetric model element; tolerance too tight")
        return rank // 2
    return rank


def fundamental_invariant(family, w):
    """The relative invariant cutting out the sub-maximal stratum of p+.

    Determinant for the square models, sum(w_j^2) for the quadric model,
    the generic norm for the Albert algebra.  Only the regular families
    carry one.
    """
    if family == "albert":
        if not isinstance(w, AlbertElement):
            raise ValueError("the albert family needs an AlbertElement")
        return generic_norm(w)
    got, val = _model_value(w)
    if got != family:
        raise ValueError(f"element belongs to family {got!r}, not {family!r}")
    if family == "so2q":
        s = np.sum(val * val)
        return complex(s) if np.iscomplexobj(val) else float(s)
    if family == "u":
        q, p = val.shape
        if p != q:
            raise ValueError(f"u({p},{q}) is not regular; no relative invariant")
    elif family == "sostar":
        n = val.shape[0]
        if n % 2:
            raise ValueError(f"so*({2 * n}) with odd {n} is not regular; no relative invariant")
    elif family != "sp":
        raise ValueError(f"unknown family {family!r}")
    return complex(np.linalg.det(val))
