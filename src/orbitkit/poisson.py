"""Lie-Poisson brackets of coordinate functions, the abelian p+ checks, and
the one-variable contraction / curvature / disc models.

Everything identifies g with its dual through the half-trace pairing
P(X, Y) = trace(XY)/2: a linear functional is stored as the element that
represents it, and {mu_a, mu_b}(xi) = trace([a,b] xi)/2.  Under this pairing
the three-dimensional bracket table comes out at twice the textbook
normalization with identical signs; callers that need the classical scale
divide once, and the tests pin the factor.

The brackets of the p+ coordinates at a point xi are one contraction per
block: trace([a, b] xi) = trace(b [xi, a]), so the stack [xi, m_j] over the
duals m_j is formed once and paired with every dual at once.  Polynomial
brackets follow by the Leibniz rule, grad f . L . grad g, from those linear
brackets of the coordinates and their conjugates (degree cap 4).
"""

import math
from dataclasses import dataclass

import numpy as np

from .liealg import basis, pplus_coords, pplus_dim, proj_p, to_p_plus


def half_trace(X, Y):
    """trace(XY)/2; real output when the imaginary part is numerical dust."""
    v = np.trace(np.asarray(X) @ np.asarray(Y)) / 2
    if abs(v.imag) <= 1e-12 * max(1.0, abs(v)):
        return float(v.real)
    return complex(v)


def _flatten(M):
    """Real and imaginary parts of the trailing N x N axes as one real vector."""
    M = np.asarray(M)
    flat = M.reshape(M.shape[:-2] + (-1,))
    return np.concatenate([flat.real, flat.imag], axis=-1)


class PoissonContext:
    """Ordered basis, structure constants and the half-trace pairing of g."""

    def __init__(self, desc):
        self.desc = desc
        self.basis = basis(desc)
        self.dim = len(self.basis)
        B = self.basis
        self._coord_solver = np.linalg.pinv(_flatten(B).T)     # dim x 2N^2
        P = np.einsum("aij,bji->ab", B, B) / 2
        assert np.abs(np.imag(P)).max() <= 1e-12
        self.pairing = np.real(P)
        c = np.empty((self.dim,) * 3)
        for a, b_a in enumerate(B):     # one row at a time: all of [b_a, b_b] is dim^2 N^2
            c[a] = _flatten(b_a @ B - B @ b_a) @ self._coord_solver.T
        self.structure = c
        self._pplus = None

    def coordinates(self, M):
        """Real coefficients of a member over the ordered basis."""
        x = self._coord_solver @ _flatten(M)
        return x

    def from_coordinates(self, x):
        return np.tensordot(np.asarray(x), self.basis, 1)

    def jacobi_residual(self):
        c = self.structure
        # sum_e c_ab^e c_ec^d + cyclic, contracted over everything
        t1 = np.einsum("abe,ecd->abcd", c, c)
        return float(np.abs(t1 + np.einsum("abcd->bcad", t1)
                            + np.einsum("abcd->cabd", t1)).max())

    def pplus_duals(self):
        """(coeffs, matrices) for the p+ coordinates zeta_1..zeta_d.

        Row j holds complex basis coefficients of the representing element
        c_j in the complexification; trace(c_j xi)/2 = zeta_j(xi).  The
        conjugate duals, conj(coeffs) over the basis, are kept as `_bars`;
        on a complex basis they are not the entrywise conjugates of c_j.
        """
        if self._pplus is None:
            d = pplus_dim(self.desc)
            F = np.zeros((d, self.dim), dtype=complex)
            for a, b_a in enumerate(self.basis):
                w = to_p_plus(self.desc, proj_p(self.desc, b_a, check=False))
                F[:, a] = pplus_coords(self.desc, w)
            coeffs = np.linalg.solve(self.pairing, F.T).T
            self._pplus = (coeffs, np.tensordot(coeffs, self.basis, 1))
            self._bars = np.tensordot(coeffs.conj(), self.basis, 1)
        return self._pplus

    def zeta_values(self, xi):
        return pplus_coords(self.desc,
                            to_p_plus(self.desc, proj_p(self.desc, xi, check=False)))


def lie_poisson_bracket(ctx, a, b, xi):
    """{mu_a, mu_b}(xi) = trace([a,b] xi)/2 for functionals given as elements."""
    a, b = np.asarray(a), np.asarray(b)
    return half_trace(a @ b - b @ a, xi)


def lie_poisson_bracket_structure(ctx, a, b, xi):
    """Same value routed through the structure constants (cross-check path)."""
    ca = ctx.coordinates(a) if np.ndim(a) == 2 else np.asarray(a)
    cb = ctx.coordinates(b) if np.ndim(b) == 2 else np.asarray(b)
    # {a,b}(xi) = sum c_ab^e P(b_e, xi) with a,b expanded over the basis
    vals = np.einsum("eij,ji->e", ctx.basis, xi) / 2
    return complex(np.einsum("a,b,abe,e->", ca, cb, ctx.structure, vals))


def _commutators(ctx, xi, stack):
    """The stack [xi, s_j] for an evaluation point xi, which must be a finite
    N x N matrix."""
    xi = np.asarray(xi)
    N = ctx.desc.N
    if xi.shape != (N, N):
        raise ValueError(f"evaluation point has shape {xi.shape}; "
                         f"{ctx.desc.name()} needs {N} x {N}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("evaluation point has non-finite entries")
    return xi @ stack - stack @ xi


def _pair(stack, C):
    """[P(s_k, C_j)]_jk = [trace(s_k C_j)/2]_jk for two stacks; one BLAS
    product, several times faster than the same contraction by einsum."""
    return np.tensordot(C, stack, axes=([1, 2], [2, 1])) / 2


def pplus_bracket_matrix(ctx, xi):
    """([{zeta_j, zeta_k}(xi)], [{zeta_j, conj zeta_k}(xi)]).

    The first matrix vanishes identically: the representing elements lie in
    an abelian eigenspace of ad_z, which is the polarization statement.
    A point that is not a finite N x N matrix raises ValueError.
    """
    _, mats = ctx.pplus_duals()
    C = _commutators(ctx, xi, mats)
    return _pair(mats, C), _pair(ctx._bars, C)


# --- polynomials in the p+ coordinates ------------------------------------------

_DEGREE_CAP = 4


class ZetaPoly:
    """Polynomial in zeta_1..zeta_d and conj(zeta_1)..conj(zeta_d).

    Terms are keyed by exponent tuples (ez, ebar); variables are indexed
    0..d-1 for the zetas and d..2d-1 for the conjugates.
    """

    def __init__(self, d, terms=None):
        self.d = d
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}
        if any(sum(ez) + sum(eb) > _DEGREE_CAP for ez, eb in self.terms):
            raise ValueError(f"degree cap {_DEGREE_CAP} exceeded")

    @classmethod
    def constant(cls, d, c):
        z = (0,) * d
        return cls(d, {(z, z): complex(c)})

    @classmethod
    def zeta(cls, d, j):
        ez = tuple(1 if i == j else 0 for i in range(d))
        return cls(d, {(ez, (0,) * d): 1.0 + 0j})

    @classmethod
    def zeta_bar(cls, d, j):
        eb = tuple(1 if i == j else 0 for i in range(d))
        return cls(d, {((0,) * d, eb): 1.0 + 0j})

    def degree(self):
        return max((sum(ez) + sum(eb) for ez, eb in self.terms), default=0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return ZetaPoly(self.d, out)

    def __sub__(self, other):
        return self + (-1) * self._coerce(other)

    def __mul__(self, other):
        if np.isscalar(other):
            return ZetaPoly(self.d, {k: other * v for k, v in self.terms.items()})
        out = {}
        for (ez1, eb1), v1 in self.terms.items():
            for (ez2, eb2), v2 in other.terms.items():
                key = (tuple(map(sum, zip(ez1, ez2))),
                       tuple(map(sum, zip(eb1, eb2))))
                out[key] = out.get(key, 0) + v1 * v2
        return ZetaPoly(self.d, out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if np.isscalar(other):
            return ZetaPoly.constant(self.d, other)
        return other

    def is_zbar_free(self):
        return all(sum(eb) == 0 for _, eb in self.terms)

    def value(self, w):
        w = np.asarray(w, dtype=complex)
        total = 0j
        for (ez, eb), v in self.terms.items():
            total += v * np.prod(w ** ez) * np.prod(np.conj(w) ** eb)
        return total

    def partial(self, var):
        """d/d(var) treating zeta and conj(zeta) as independent variables."""
        out = {}
        for (ez, eb), v in self.terms.items():
            exps = list(ez) + list(eb)
            if exps[var] == 0:
                continue
            coeff = v * exps[var]
            exps[var] -= 1
            key = (tuple(exps[:self.d]), tuple(exps[self.d:]))
            out[key] = out.get(key, 0) + coeff
        return ZetaPoly(self.d, out)


def poly_bracket(ctx, f, g, xi):
    """{f, g}(xi) by the Leibniz rule from the linear coordinate brackets."""
    d = ctx.desc.pplus_dim
    if f.d != d or g.d != d:
        raise ValueError(f"polynomials in {f.d} and {g.d} variables; {ctx.desc.name()} "
                         f"has {d} p+ coordinates")
    B1, B2 = pplus_bracket_matrix(ctx, xi)
    bars = ctx._bars
    L = np.block([[B1, B2], [-B2.T, _pair(bars, _commutators(ctx, xi, bars))]])
    w = ctx.zeta_values(xi)
    df, dg = (np.array([p.partial(v).value(w) for v in range(2 * len(bars))])
              for p in (f, g))
    return df @ L @ dg


# --- the contraction family -------------------------------------------------------

@dataclass(frozen=True)
class ContractionModel:
    eps: float
    sign: int = 1

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


def contraction_bracket(m, x1, x2):
    """{x1, x2} = sign * sqrt(eps^2 + x1^2 + x2^2) on the chosen sheet."""
    return m.sign * math.sqrt(m.eps ** 2 + x1 * x1 + x2 * x2)


def model_metric_and_curvature(m, zeta):
    """(metric coefficient, curvature) of the deformed model at zeta."""
    s = m.eps ** 2 + abs(zeta) ** 2
    if s == 0:
        raise ValueError("the flat model degenerates at zeta = 0")
    return 1.0 / math.sqrt(s), -m.eps ** 2 / s ** 2.5


def disc_model_bracket(eps, y1, y2):
    """{y1, y2} = (eps/4)(1 - r^2/eps^2)^2 on the disc r^2 < eps^2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    r2 = y1 * y1 + y2 * y2
    if r2 >= eps * eps:
        raise ValueError(f"point with r^2 = {r2} is outside the disc of {eps}")
    return (eps / 4.0) * (1.0 - r2 / eps ** 2) ** 2


def stereographic_to_disc(m, x1, x2):
    """(y1, y2) = (x1, x2)/(1 + x0/eps) with x0 the positive-sheet value.

    Accepts complex inputs so the Jacobian can be taken by complex-step
    differentiation.
    """
    if m.eps <= 0:
        raise ValueError("stereographic projection needs eps > 0")
    x0 = np.sqrt(m.eps ** 2 + x1 * x1 + x2 * x2)
    lam = 1.0 + x0 / m.eps
    return x1 / lam, x2 / lam


def s1_energy(desc, X):
    """Momentum of the central circle action.

    The raw pairing trace(zX)/2 is negative on the holomorphic
    representatives in every family under the block conventions used here,
    so the energy is calibrated as its negative: positive on e_{s,0},
    negative on e_{0,s}.
    """
    v = -np.trace(desc.z @ np.asarray(X)) / 2
    return float(np.real(v))
