"""Arithmetic for the division-algebra tower R < C < H < O, the complexified
octonions OC, and small matrices over R/C/H with a faithful complex
representation of quaternionic matrices.

Scalars are coefficient vectors over a fixed basis e_0..e_{d-1}.  The
multiplication table MUL[d] (e_i e_j = sum_k MUL[d][i,j,k] e_k) is built once
at import by Cayley-Dickson doubling with the convention

    (a, b) (c, d) = (a c - conj(d) b,  d a + b conj(c)),

each of the four terms being a signed block of the half-size table.  A
product of any two coefficient arrays is then one contraction against the
table, broadcast over the leading axes.

The OC elements carry complex coefficients; conjugation flips the sign of
e_1..e_7 only (it is extended C-linearly), so n(a) may be a non-real complex
number there.
"""

import numpy as np

TAGS = ("R", "C", "H", "O", "OC")
_DIM = {"R": 1, "C": 2, "H": 4, "O": 8, "OC": 8}
_DTYPE = {"R": float, "C": float, "H": float, "O": float, "OC": complex}


def cd_conj(x):
    """Cayley-Dickson conjugate: negate every coefficient except e_0."""
    y = -np.asarray(x).copy()
    y[..., 0] = -y[..., 0]
    return y


def _double(t):
    """Table of the doubled algebra from the table t of the half."""
    h = len(t)
    tt = np.swapaxes(t, 0, 1)
    sign = cd_conj(np.ones(h))[:, None]       # conj(e_j) = sign_j e_j, on axis 1
    m = np.zeros((2 * h,) * 3)
    m[:h, :h, :h], m[h:, h:, :h] = t, -tt * sign        # a c, -conj(d) b
    m[:h, h:, h:], m[h:, :h, h:] = tt, t * sign         # d a, b conj(c)
    return m


# e_i e_j = sum_k MUL[d][i,j,k] e_k, shared by every tag of that dimension
MUL = {1: np.ones((1, 1, 1))}
for _d in (2, 4, 8):
    MUL[_d] = _double(MUL[_d // 2])


def cd_mul(x, y):
    """Coefficient-space product of two arrays whose last axis is a basis of
    R, C, H or O; the leading axes broadcast."""
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.shape[-1]
    if n != y.shape[-1]:
        raise ValueError("operands live in different algebras")
    if n not in MUL:
        raise ValueError(f"no algebra of dimension {n} in the tower R < C < H < O")
    return np.einsum("...i,...j,ijk->...k", x, y, MUL[n])


class AlgebraElement:
    """A scalar in one of R, C, H, O, OC as a coefficient vector."""

    __slots__ = ("tag", "coeffs")

    def __init__(self, tag, coeffs):
        if tag not in TAGS:
            raise ValueError(f"unknown algebra tag {tag!r}")
        c = np.asarray(coeffs, dtype=_DTYPE[tag])
        if c.shape != (_DIM[tag],):
            raise ValueError(f"{tag} element needs {_DIM[tag]} coefficients, got shape {c.shape}")
        self.tag = tag
        self.coeffs = c

    @classmethod
    def zero(cls, tag):
        return cls(tag, np.zeros(_DIM[tag]))

    @classmethod
    def one(cls, tag):
        c = np.zeros(_DIM[tag])
        c[0] = 1.0
        return cls(tag, c)

    @classmethod
    def unit(cls, tag, k):
        """The basis element e_k."""
        c = np.zeros(_DIM[tag])
        c[k] = 1.0
        return cls(tag, c)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.tag, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.tag, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.tag, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.tag, cd_mul(self.coeffs, other.coeffs))
        return AlgebraElement(self.tag, self.coeffs * other)

    def __rmul__(self, other):
        return AlgebraElement(self.tag, other * self.coeffs)

    def conj(self):
        return AlgebraElement(self.tag, cd_conj(self.coeffs))

    def norm(self):
        """n(a) = a conj(a); real and >= 0 except over OC where it is complex."""
        p = cd_mul(self.coeffs, cd_conj(self.coeffs))
        return p[0]

    def trace(self):
        """t(a) = a + conj(a) = 2 a_0."""
        return 2 * self.coeffs[0]

    def _check(self, other):
        if self.tag != other.tag:
            raise ValueError(f"algebra mismatch: {self.tag} vs {other.tag}")

    def __repr__(self):
        return f"AlgebraElement({self.tag!r}, {self.coeffs.tolist()})"

    def to_json(self):
        c = self.coeffs
        if self.tag == "R":
            return float(c[0])
        if self.tag == "C":
            return [float(c[0]), float(c[1])]
        if self.tag == "OC":
            return [[float(v.real) for v in c], [float(v.imag) for v in c]]
        return [float(v) for v in c]

    @classmethod
    def from_json(cls, tag, data):
        if tag == "R":
            return cls(tag, [data])
        if tag == "OC":
            re, im = data
            return cls(tag, np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float))
        return cls(tag, data)


def da_mul(a, b):
    """Product of two AlgebraElements of the same tag."""
    return a * b


def da_conj_norm_trace(a):
    """(conj(a), n(a), t(a)) per the defining identities."""
    return a.conj(), a.norm(), a.trace()


class DAMatrix:
    """Matrix over R, C or H stored as an (rows, cols, dim) coefficient grid."""

    __slots__ = ("tag", "data")

    def __init__(self, tag, data):
        if tag not in ("R", "C", "H"):
            raise ValueError(f"unsupported matrix algebra {tag!r}")
        d = np.asarray(data, dtype=float)
        if d.ndim == 2:
            d = d[:, :, None]
        if d.ndim != 3 or d.shape[2] != _DIM[tag]:
            raise ValueError(f"expected (m, n, {_DIM[tag]}) grid, got {d.shape}")
        self.tag = tag
        self.data = d

    @property
    def shape(self):
        return self.data.shape[:2]

    @classmethod
    def zeros(cls, tag, m, n):
        return cls(tag, np.zeros((m, n, _DIM[tag])))

    @classmethod
    def eye(cls, tag, n):
        d = np.zeros((n, n, _DIM[tag]))
        d[np.arange(n), np.arange(n), 0] = 1.0
        return cls(tag, d)

    def __add__(self, other):
        self._check(other)
        return DAMatrix(self.tag, self.data + other.data)

    def __sub__(self, other):
        self._check(other)
        return DAMatrix(self.tag, self.data - other.data)

    def __neg__(self):
        return DAMatrix(self.tag, -self.data)

    def __matmul__(self, other):
        self._check(other)
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        prod = cd_mul(self.data[:, :, None], other.data[None]).sum(axis=1)
        return DAMatrix(self.tag, prod)

    def scale(self, r):
        return DAMatrix(self.tag, r * self.data)

    def conj_transpose(self):
        return DAMatrix(self.tag, cd_conj(np.swapaxes(self.data, 0, 1)))

    def norm(self):
        return float(np.linalg.norm(self.data))

    def _check(self, other):
        if self.tag != other.tag:
            raise ValueError(f"algebra mismatch: {self.tag} vs {other.tag}")

    def __repr__(self):
        return f"DAMatrix({self.tag!r}, shape={self.shape})"

    def to_json(self):
        m, n = self.shape
        return {
            "algebra": self.tag,
            "rows": m,
            "cols": n,
            "entries": [[AlgebraElement(self.tag, self.data[i, j]).to_json()
                         for j in range(n)] for i in range(m)],
        }

    @classmethod
    def from_json(cls, obj):
        tag = obj["algebra"]
        m, n = obj["rows"], obj["cols"]
        d = np.zeros((m, n, _DIM[tag]))
        for i in range(m):
            for j in range(n):
                d[i, j] = AlgebraElement.from_json(tag, obj["entries"][i][j]).coeffs
        return cls(tag, d)


def quat_split(M):
    """Complex pair (A, B) of a quaternionic grid under x = A + j B.

    For x = a + b i + c j + d k the parts are A = a + b i and B = c - d i,
    which makes left matrix action C-linear on column vectors v1 + j v2.
    """
    d = M.data if isinstance(M, DAMatrix) else np.asarray(M)
    A = d[..., 0] + 1j * d[..., 1]
    B = d[..., 2] - 1j * d[..., 3]
    return A, B


def quat_join(A, B):
    """Inverse of quat_split."""
    A = np.asarray(A)
    B = np.asarray(B)
    d = np.stack([A.real, A.imag, B.real, -B.imag], axis=-1)
    return DAMatrix("H", d)


def complex_rep(M):
    """Faithful complex 2m x 2n image [[A, -conj(B)], [B, conj(A)]] of a
    quaternionic m x n matrix; complex rank is twice the quaternionic rank."""
    if isinstance(M, DAMatrix):
        if M.tag != "H":
            raise ValueError("complex_rep expects a quaternionic matrix")
    A, B = quat_split(M)
    return np.block([[A, -B.conj()], [B, A.conj()]])


def complex_unrep(R, tol=1e-10):
    """Recover the quaternionic matrix from a complex image; validates the
    block symmetry of the j-structure."""
    R = np.asarray(R)
    m2, n2 = R.shape
    m, n = m2 // 2, n2 // 2
    A, Q = R[:m, :n], R[:m, n:]
    B, S = R[m:, :n], R[m:, n:]
    scale = max(1.0, np.abs(R).max())
    if np.abs(S - A.conj()).max() > tol * scale or np.abs(Q + B.conj()).max() > tol * scale:
        raise ValueError("matrix does not have the quaternionic block symmetry")
    return quat_join(A, B)


def as_complex(M):
    """Plain complex ndarray of an R or C DAMatrix."""
    if M.tag == "R":
        return M.data[..., 0].astype(complex)
    if M.tag == "C":
        return M.data[..., 0] + 1j * M.data[..., 1]
    raise ValueError("use complex_rep for quaternionic matrices")
