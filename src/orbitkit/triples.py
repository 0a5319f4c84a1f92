"""Commuting sl2-triples adapted to the H-element, orbit representatives
e_{t,u}, and the distinguished p+ elements attached to them.

A triple (e, f, h) is *invariant* when e - f lies in k and e + f, h lie in p,
and satisfies the H1 condition when additionally [z, e + f] = h and
[z, h] = -(e + f).  Each family carries r = split-rank pairwise commuting such
triples; sums e_{t,u} = e_1 + ... + e_t - e_{t+1} - ... - e_{t+u} represent
the distinguished nilpotent orbits.

Sign conventions: within sp(l,R) the k-th triple is (kappa_k(-E), kappa_k(-F),
kappa_k(H)); that choice is forced jointly by the H1 condition and by
non-negativity of the form -J_V e_k.  The u(p,q) triples are the images of the
sp ones under the symplectic embedding composed with the sl2 symmetry
(e, f, h) -> (f, e, -h); the embedding reverses the complex structures, and
the swap restores the H1 orientation.  The so*(2n) embedding preserves the
orientation, so its triples are plain images.
"""

from dataclasses import dataclass

import numpy as np

from .liealg import (
    DEFAULT_TOL, ad_z, bracket, cartan_split, frobenius, make_algebra,
    membership_residual, to_p_plus,
)


@dataclass(frozen=True)
class TripleFlags:
    sl2: bool
    invariant: bool
    h1: bool
    degenerate_zero: bool


def sp_triple_parts(l, k):
    """(e_k, f_k, h_k) of sp(l,R): elementary matrices in the B/C/A blocks."""
    E = np.zeros((l, l))
    E[k, k] = 1.0
    Z = np.zeros((l, l))
    e = np.block([[Z, -E], [Z, Z]])
    f = np.block([[Z, Z], [-E, Z]])
    h = np.block([[E, Z], [Z, -E]])
    return e, f, h


def embed_sp_in_u(p, q, X):
    """The symplectic embedding sp(q,R) -> u(p,q) for p >= q.

    A point with k-part (A', B') and p-part (A'', B'') goes to the block
    matrix [[A' + iB', 0, iA'' + B''], [0, 0, 0], [-iA'' + B'', 0, A' - iB']]
    over the splitting (q, p - q, q).  Note: this map reverses the complex
    structures on p, i.e. embed([z, x]) = -[z, embed(x)] for x in p.
    """
    if p < q:
        raise ValueError("the embedding needs p >= q")
    desc = make_algebra("sp", q)
    Xk, Xp = cartan_split(desc, X)
    Ak, Bk = Xk[:q, :q], Xk[:q, q:]
    Ap, Bp = Xp[:q, :q], Xp[:q, q:]
    n = p + q
    out = np.zeros((n, n), dtype=complex)
    out[:q, :q] = Ak + 1j * Bk
    out[p:, p:] = Ak - 1j * Bk
    out[:q, p:] = 1j * Ap + Bp
    out[p:, :q] = -1j * Ap + Bp
    return out


def embed_sp_in_sostar(n, X):
    """The symplectic embedding sp(l,R) -> so*(2n) for l = n // 2.

    k-part (A', B') and p-part (A'', B'') go to the model element with
    A = [[A', iB''], [-iB'', A']] and B = [[-B', -iA''], [iA'', -B']],
    padded by a zero row/column in each n-block when n is odd.  This map
    intertwines the complex structures on p.
    """
    l = n // 2
    desc = make_algebra("sp", l)
    Xk, Xp = cartan_split(desc, X)
    Ak, Bk = Xk[:l, :l], Xk[:l, l:]
    Ap, Bp = Xp[:l, :l], Xp[:l, l:]
    A = np.zeros((n, n), dtype=complex)
    B = np.zeros((n, n), dtype=complex)
    A[:l, :l] = A[l:2 * l, l:2 * l] = Ak
    A[:l, l:2 * l] = 1j * Bp
    A[l:2 * l, :l] = -1j * Bp
    B[:l, :l] = B[l:2 * l, l:2 * l] = -Bk
    B[:l, l:2 * l] = -1j * Ap
    B[l:2 * l, :l] = 1j * Ap
    return np.block([[A, -B.conj()], [B, A.conj()]])


def standard_triples(desc):
    """The r pairwise commuting H1-triples of the family, as (e, f, h) tuples."""
    fam = desc.family
    if fam == "sp":
        l = desc.params[0]
        return [sp_triple_parts(l, k) for k in range(l)]
    if fam == "u":
        p, q = desc.params
        out = []
        for k in range(desc.r):
            e = np.zeros((p + q, p + q), dtype=complex)
            e[k, k] = 0.5j
            e[p + k, p + k] = -0.5j
            e[p + k, k] = -0.5
            e[k, p + k] = -0.5
            f = np.zeros_like(e)
            f[k, k] = -0.5j
            f[p + k, p + k] = 0.5j
            f[p + k, k] = -0.5
            f[k, p + k] = -0.5
            h = np.zeros_like(e)
            h[p + k, k] = 1j
            h[k, p + k] = -1j
            out.append((e, f, h))
        return out
    if fam == "sostar":
        n = desc.params[0]
        l = n // 2
        out = []
        for k in range(l):
            e, f, h = sp_triple_parts(l, k)
            out.append(tuple(embed_sp_in_sostar(n, M) for M in (e, f, h)))
        return out
    # so(2,q): the two explicit 4 x 4 generator triples, padded to q + 2
    q = desc.params[0]
    n = q + 2
    X = np.zeros((n, n))
    X[0, 1], X[1, 0], X[2, 3], X[3, 2] = 1.0, -1.0, 1.0, -1.0
    Y = np.zeros((n, n))
    Y[0, 1], Y[1, 0], Y[2, 3], Y[3, 2] = 1.0, -1.0, -1.0, 1.0
    A1 = np.zeros((n, n))
    A1[0, 2] = A1[2, 0] = 1.0
    A1[1, 3] = A1[3, 1] = -1.0
    A2 = np.zeros((n, n))
    A2[0, 3] = A2[3, 0] = 1.0
    A2[1, 2] = A2[2, 1] = 1.0
    B1 = np.zeros((n, n))
    B1[0, 3] = B1[3, 0] = 1.0
    B1[1, 2] = B1[2, 1] = -1.0
    B2 = np.zeros((n, n))
    B2[0, 2] = B2[2, 0] = 1.0
    B2[1, 3] = B2[3, 1] = 1.0
    t1 = (0.5 * (A2 + X), 0.5 * (A2 - X), A1)
    t2 = (0.5 * (B2 + Y), 0.5 * (B2 - Y), B1)
    return [t1, t2]


def u_triples_via_embedding(p, q):
    """u(p,q) triples as embedded sp(q,R) triples with the (e,f,h) -> (f,e,-h)
    swap that corrects the reversed complex structure.  Used for cross-checks;
    standard_triples builds the same matrices directly."""
    out = []
    for k in range(min(p, q)):
        e, f, h = sp_triple_parts(q, k)
        out.append((embed_sp_in_u(p, q, f),
                    embed_sp_in_u(p, q, e),
                    embed_sp_in_u(p, q, -h)))
    return out


def orbit_rep(desc, t, u):
    """e_{t,u} = e_1 + ... + e_t - e_{t+1} - ... - e_{t+u}."""
    t, u = int(t), int(u)
    if t < 0 or u < 0 or t + u > desc.r:
        raise ValueError(f"type ({t},{u}) is out of range for {desc.name()} (r={desc.r})")
    trips = standard_triples(desc)
    dtype = complex if desc.base == "C" else float
    X = np.zeros((desc.N, desc.N), dtype=dtype)
    for k in range(t):
        X = X + trips[k][0]
    for k in range(t, t + u):
        X = X - trips[k][0]
    return X


def ks_element(desc, s):
    """The p+ image of (e^s + f^s - i h^s) / 2 for e^s = e_1 + ... + e_s.

    Since h = [z, e + f], the element is (v - i J_z v)/2 for v = e^s + f^s,
    and its chart image equals the chart image of v itself.
    """
    s = int(s)
    if s < 0 or s > desc.r:
        raise ValueError(f"s={s} out of range for {desc.name()}")
    trips = standard_triples(desc)
    dtype = complex if desc.base == "C" else float
    v = np.zeros((desc.N, desc.N), dtype=dtype)
    for k in range(s):
        v = v + trips[k][0] + trips[k][1]
    return to_p_plus(desc, v)


def check_triple(desc, e, f, h, tol=DEFAULT_TOL):
    """Flags (sl2, invariant, H1, degenerate_zero) for a candidate triple."""
    e, f, h = (np.asarray(m) for m in (e, f, h))
    scale = max(1.0, frobenius(e), frobenius(f), frobenius(h))
    sl2 = (frobenius(bracket(h, e) - 2 * e) <= tol * scale
           and frobenius(bracket(h, f) + 2 * f) <= tol * scale
           and frobenius(bracket(e, f) - h) <= tol * scale)
    k_ef, p_ef = cartan_split(desc, e - f, check=False)
    inv = (frobenius(p_ef) <= tol * scale
           and frobenius(cartan_split(desc, e + f, check=False)[0]) <= tol * scale
           and frobenius(cartan_split(desc, h, check=False)[0]) <= tol * scale
           and membership_residual(desc, e) <= tol * scale
           and membership_residual(desc, f) <= tol * scale
           and membership_residual(desc, h) <= tol * scale)
    h1 = (frobenius(ad_z(desc, e + f) - h) <= tol * scale
          and frobenius(ad_z(desc, h) + (e + f)) <= tol * scale)
    zero = max(frobenius(e), frobenius(f), frobenius(h)) <= tol
    return TripleFlags(sl2, inv, h1, zero)
