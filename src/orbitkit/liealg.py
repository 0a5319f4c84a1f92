"""The four classical hermitian matrix Lie algebras, each cut out by a form.

Every algebra is the set of ambient matrices X that solve

    X* F + F X = 0

for the family's form F, which is unitary (F^-1 = F*):

  sp(l, R)   real 2l x 2l      F = J = [[0, -I], [I, 0]]
  u(p, q)    complex (p+q)^2   F = G = diag(I_p, -I_q)
  so*(2n)    complex 2n x 2n   F = iJ, together with X^T = -X
  so(2, q)   real (q+2)^2      F = G = diag(I_2, -I_q)

Each condition is the fixed-point set of a real-linear involution:
X -> -F^-1 X* F for the form, X -> conj(X) for a real ambient, and
X -> -X^T for so*(2n).  The membership residual and the real basis of
every algebra come from its involutions (`fixed_residual`, `fixed_basis`).
The Cartan involution is X -> -X* in all four models, so k is the
skew-hermitian part and p the hermitian part of X.

Each descriptor carries the compatible complex structure J_V on the defining
representation (where one exists), the H-element z, and the chart p -> p+ that
realizes the symmetric part as the family's complex model space.
"""

from dataclasses import dataclass

import numpy as np

FAMILIES = ("sp", "u", "sostar", "so2q")

DEFAULT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LieAlgebraDescriptor:
    """Equal, and equally hashed, exactly when (family, params) agree."""

    family: str
    params: tuple
    N: int                  # ambient matrix size
    base: str               # ambient scalar field tag: "R" or "C"
    r: int                  # split rank
    dim: int                # real dimension of the algebra
    F: object               # the defining form, a unitary ndarray
    antisymmetric: bool = False   # X^T = -X as well (so*)
    J_V: object = None      # ndarray or None (so(2,q) has no ambient J_V)
    G: object = None        # indefinite metric, where the model uses one
    z: object = None        # H-element
    pplus_shape: tuple = ()
    pplus_dim: int = 0      # complex dimension of p+

    def __eq__(self, other):
        if not isinstance(other, LieAlgebraDescriptor):
            return NotImplemented
        return (self.family, self.params) == (other.family, other.params)

    def __hash__(self):
        return hash((self.family, self.params))

    def __repr__(self):
        return f"<{self.name()} descriptor>"

    def name(self):
        if self.family == "sp":
            return f"sp({self.params[0]},R)"
        if self.family == "u":
            return f"u({self.params[0]},{self.params[1]})"
        if self.family == "sostar":
            return f"so*({2 * self.params[0]})"
        return f"so(2,{self.params[0]})"


@dataclass(frozen=True)
class PPlusElement:
    family: str
    value: np.ndarray       # symmetric lxl / q x p / antisymmetric n x n / vector in C^q


def make_algebra(family, params):
    """Build the descriptor for sp(l,R), u(p,q), so*(2n) or so(2,q)."""
    if family == "sp":
        (l,) = _ints(params, 1)
        if l < 1:
            raise ValueError("sp(l,R) needs l >= 1")
        J = form_j(l)
        return LieAlgebraDescriptor(
            family, (l,), 2 * l, "R", l, 2 * l * l + l, F=J,
            J_V=J, z=0.5 * J, pplus_shape=(l, l), pplus_dim=l * (l + 1) // 2)
    if family == "u":
        p, q = _ints(params, 2)
        if p < 1 or q < 1:
            raise ValueError("u(p,q) needs p, q >= 1")
        G = np.diag([1.0] * p + [-1.0] * q)
        J = 1j * G
        return LieAlgebraDescriptor(
            family, (p, q), p + q, "C", min(p, q), (p + q) ** 2, F=G,
            J_V=J, G=G, z=0.5 * J, pplus_shape=(q, p), pplus_dim=p * q)
    if family == "sostar":
        (n,) = _ints(params, 1)
        if n < 1:
            raise ValueError("so*(2n) needs n >= 1")
        J = form_j(n).astype(complex)
        return LieAlgebraDescriptor(
            family, (n,), 2 * n, "C", n // 2, n * (2 * n - 1), F=1j * J,
            antisymmetric=True, J_V=J, z=0.5 * J, pplus_shape=(n, n),
            pplus_dim=n * (n - 1) // 2)
    if family == "so2q":
        (q,) = _ints(params, 1)
        if q < 2:
            raise ValueError("so(2,q) needs q >= 2")
        G = np.diag([1.0, 1.0] + [-1.0] * q)
        z = np.zeros((q + 2, q + 2))
        z[0, 1], z[1, 0] = 1.0, -1.0
        return LieAlgebraDescriptor(
            family, (q,), q + 2, "R", 2, (q + 2) * (q + 1) // 2, F=G,
            G=G, z=z, pplus_shape=(q,), pplus_dim=q)
    raise ValueError(f"unknown family {family!r}")


def _ints(params, n):
    t = tuple(int(v) for v in (params if hasattr(params, "__len__") else (params,)))
    if len(t) != n:
        raise ValueError(f"expected {n} parameter(s), got {t}")
    return t


def form_j(n):
    """J = [[0, -I], [I, 0]] of size 2n."""
    Z, I = np.zeros((n, n)), np.eye(n)
    return np.block([[Z, -I], [I, Z]])


# --- fixed points of involutions --------------------------------------------
#
# A matrix space cut out by forms is the common fixed-point set of a few
# commuting real-linear involutions of the ambient matrices.  The routines
# below take such a tuple of involutions; `conj` among them marks a real
# ambient.

def conj(X):
    """X -> conj(X): its fixed points are the real matrices."""
    return X.conj()


def neg_transpose(X):
    """X -> -X^T: its fixed points are the antisymmetric matrices."""
    return -X.mT


def form_involution(F):
    """X -> -F^-1 X* F for a unitary F: its fixed points solve X* F + F X = 0."""
    Fh = F.conj().T
    return lambda X: -(Fh @ X.conj().mT @ F)


def quaternionic_involution(J_left, J_right):
    """X -> J_left conj(X) J_right^T: its fixed points are the quaternionic
    matrices in the complex representation [[A, -conj(B)], [B, conj(A)]]."""
    return lambda X: J_left @ X.conj() @ J_right.T


def fixed_residual(invs, X):
    """Largest entry of X - theta(X) over the involutions theta (NaN stays NaN);
    a float for one matrix, an array of one value per matrix for a stack."""
    X = np.asarray(X)
    res = np.zeros(X.shape[:-2])
    for th in invs:
        if th is conj and not np.iscomplexobj(X):
            continue        # conj fixes every real matrix
        res = np.maximum(res, np.abs(X - th(X)).max(axis=(-2, -1), initial=0.0))
    return res if res.ndim else float(res)


def fixed_basis(invs, shape):
    """Real basis of the common fixed space of commuting involutions.

    The independent averages of the ambient matrix units over the
    involutions, in row-major order of the units, each scaled to largest
    entry 1 so that every entry is exact.  Returned as a read-only
    (dim,) + shape stack, real when `conj` is among the involutions.
    """
    real = conj in invs
    units = (1.0,) if real else (1.0, 1j)
    out, Q = [], np.zeros((0, 2 * int(np.prod(shape))))
    for idx in np.ndindex(*shape):
        for unit in units:
            E = np.zeros(shape, dtype=complex)
            E[idx] = unit
            for th in invs:
                E = (E + th(E)) / 2
            v = np.concatenate([E.real.ravel(), E.imag.ravel()])
            v = v - Q.T @ (Q @ v)
            nrm = np.linalg.norm(v)
            if nrm > 1e-9:
                Q = np.vstack([Q, v / nrm])
                out.append(E / np.abs(E).max())
    B = np.array(out, dtype=complex).reshape((len(out),) + tuple(shape))
    if real:
        B = np.ascontiguousarray(B.real)
    B.flags.writeable = False
    return B


def involutions(desc):
    """The involutions whose common fixed points are the algebra."""
    invs = (form_involution(desc.F),)
    if desc.base == "R":
        invs += (conj,)
    if desc.antisymmetric:
        invs += (neg_transpose,)
    return invs


def membership_residual(desc, M):
    """Largest entry of M - theta(M) over the algebra's involutions, for one
    matrix or per matrix of a stack."""
    M = np.asarray(M)
    if M.shape[-2:] != (desc.N, desc.N):
        raise ValueError(f"expected {desc.N} x {desc.N} matrix, got {M.shape}")
    return fixed_residual(involutions(desc), M)


def contains(desc, M, tol=DEFAULT_TOL):
    """True iff M solves the defining equations to tolerance (False on NaN);
    one flag per matrix of a stack."""
    M = np.asarray(M)
    res = membership_residual(desc, M)
    return res <= tol * np.maximum(1.0, np.abs(M).max(axis=(-2, -1), initial=0.0))


def _require_member(desc, M, tol=1e-8):
    M = np.asarray(M)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"matrix has non-finite entries; not an element of {desc.name()}")
    if not contains(desc, M, tol):
        raise ValueError(f"matrix is not in {desc.name()} "
                         f"(residual {membership_residual(desc, M):.3e})")


def cartan_split(desc, X, check=True):
    """(x_k, x_p) with x_k + x_p = X: the skew-hermitian part lies in k, the
    hermitian part in p, since the Cartan involution is X -> -X*."""
    X = np.asarray(X)
    if check:
        _require_member(desc, X)
    X = X.astype(complex) if desc.base == "C" else np.real(X).astype(float)
    Xk = (X - X.conj().T) / 2
    return Xk, X - Xk


def proj_p(desc, X, check=True):
    return cartan_split(desc, X, check=check)[1]


def proj_k(desc, X, check=True):
    return cartan_split(desc, X, check=check)[0]


def bracket(X, Y):
    """Matrix commutator XY - YX."""
    return X @ Y - Y @ X


def ad_z(desc, X):
    """[z, X]; on p this is the complex structure J_z."""
    return bracket(desc.z, X)


def b_x_form(desc, X, tol=1e-8):
    """The hermitian matrix -J_V X together with its rank and signature.

    Quaternionic counts (so*) are the complex ones halved.  Not defined for
    so(2,q), whose model carries no ambient J_V.
    """
    M, gap, gap_bad, odd, rank, sig = form_counts(desc, np.asarray(X)[None], tol)
    _require_form(gap, gap_bad, odd, 0)
    return M[0], int(rank[0]), int(sig[0])


def form_counts(desc, Xs, tol=1e-8):
    """b_x_form over a (k, N, N) stack, with its checks as flags.

    Returns the hermitian parts of -J_V X, the hermitian gaps, the flags of
    gaps above 1e-9 of the largest entry, the flags of odd so* counts, and
    the ranks and signatures at tol (halved for so*).
    """
    if desc.family == "so2q":
        raise ValueError("b_x_form is not supported for so(2,q)")
    M = desc.J_V @ Xs           # the sign of -J_V X enters below
    Mh = M.conj().mT
    gap = np.abs(M - Mh).max(axis=(1, 2), initial=0.0)
    gap_bad = gap > 1e-9 * np.maximum(1.0, np.abs(M).max(axis=(1, 2), initial=0.0))
    M = (M + Mh) / -2
    ev = np.linalg.eigvalsh(M)
    a = np.abs(ev)
    thr = tol * np.maximum(1.0, a.max(axis=1, keepdims=True))
    rank = (a > thr).sum(axis=1)
    sig = 2 * (ev > thr).sum(axis=1) - rank
    if desc.family != "sostar":
        return M, gap, gap_bad, np.zeros_like(gap_bad), rank, sig
    # rank and signature have the same parity
    return M, gap, gap_bad, rank % 2 == 1, rank // 2, sig // 2


def _require_form(gap, gap_bad, odd, i):
    """Raise the error of element i of form_counts, if it has one."""
    if gap_bad[i]:
        raise ValueError(f"form matrix failed the hermitian check ({gap[i]:.2e})")
    if odd[i]:
        raise ValueError("odd rank/signature contradicts the quaternionic structure")


# --- the p <-> p+ chart -----------------------------------------------------
#
# Each chart is complex-linear for the complex structure ad_z on p and is
# normalized so that the elements e^s + f^s built from the standard triples
# land on the canonical rank-s model matrices.

def to_p_plus(desc, Xp):
    """Model coordinates of an element of p."""
    Xp = np.asarray(Xp)
    if desc.family == "sp":
        l = desc.params[0]
        A, B = Xp[:l, :l], Xp[:l, l:]
        return PPlusElement("sp", 1j * A - B)
    if desc.family == "u":
        p = desc.params[0]
        B = Xp[p:, :p]
        return PPlusElement("u", -B.conj())
    if desc.family == "sostar":
        n = desc.params[0]
        A, B = Xp[:n, :n], Xp[n:, :n]
        V = A / 1j
        W = -(B / 1j)
        return PPlusElement("sostar", -V + 1j * W)
    q = desc.params[0]
    B = Xp[2:, :2]
    x, y = B[:, 0], B[:, 1]
    R = np.ones(q)
    R[0] = -1.0
    return PPlusElement("so2q", R * (x - 1j * y))


def from_p_plus(desc, w):
    """Inverse chart: the real p-element with the given model coordinates."""
    val = w.value if isinstance(w, PPlusElement) else np.asarray(w)
    if desc.family == "sp":
        l = desc.params[0]
        A, B = val.imag, -val.real
        Z = np.block([[A, B], [B, -A]])
        return Z
    if desc.family == "u":
        p, q = desc.params
        B = -val.conj()
        X = np.zeros((p + q, p + q), dtype=complex)
        X[p:, :p] = B
        X[:p, p:] = B.conj().T
        return X
    if desc.family == "sostar":
        n = desc.params[0]
        V, W = -val.real, val.imag
        A, B = 1j * V, -1j * W
        return np.block([[A, B], [B, -A]])
    q = desc.params[0]
    R = np.ones(q)
    R[0] = -1.0
    u = R * val
    B = np.stack([u.real, -u.imag], axis=1)
    X = np.zeros((q + 2, q + 2))
    X[2:, :2] = B
    X[:2, 2:] = B.T
    return X


def pplus_coords(desc, w):
    """Flatten a p+ model element to its free complex coordinates."""
    val = w.value if isinstance(w, PPlusElement) else np.asarray(w)
    if desc.family == "sp":
        l = desc.params[0]
        iu = np.triu_indices(l)
        return val[iu]
    if desc.family == "u":
        return val.reshape(-1)
    if desc.family == "sostar":
        n = desc.params[0]
        iu = np.triu_indices(n, k=1)
        return val[iu]
    return val.reshape(-1)


def pplus_unflatten(desc, coords):
    """Inverse of pplus_coords."""
    coords = np.asarray(coords, dtype=complex)
    if desc.family == "sp":
        l = desc.params[0]
        M = np.zeros((l, l), dtype=complex)
        iu = np.triu_indices(l)
        M[iu] = coords
        M = M + np.triu(M, k=1).T
        return PPlusElement("sp", M)
    if desc.family == "u":
        return PPlusElement("u", coords.reshape(desc.pplus_shape))
    if desc.family == "sostar":
        n = desc.params[0]
        M = np.zeros((n, n), dtype=complex)
        iu = np.triu_indices(n, k=1)
        M[iu] = coords
        M = M - M.T
        return PPlusElement("sostar", M)
    return PPlusElement("so2q", coords)


def pplus_dim(desc):
    """Complex dimension of p+ (the descriptor's pplus_dim field)."""
    return desc.pplus_dim


# --- real bases and random elements -------------------------------------------

_BASES = {}


def basis(desc):
    """The algebra's real basis as a read-only (dim, N, N) stack, built once
    per (family, params)."""
    key = (desc.family, desc.params)
    B = _BASES.get(key)
    if B is None:
        B = _BASES[key] = fixed_basis(involutions(desc), (desc.N, desc.N))
        assert len(B) == desc.dim
    return B


def random_element(desc, rng, scale=1.0):
    """Random algebra element with independent N(0, scale^2) basis coefficients."""
    B = basis(desc)
    return np.tensordot(rng.standard_normal(len(B)) * scale, B, 1)


def frobenius(M):
    return float(np.linalg.norm(np.asarray(M)))
