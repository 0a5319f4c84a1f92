"""Correctness checks on workload outputs, and self-tests of the checks.

Every check compares an output of orbitkit with a fact computed apart from
it: the type an element was built from, the rank drawn by the sampler, a
numpy determinant or SVD, or an identity the outputs must satisfy.  None
compares against a stored copy of earlier output.  Each check returns a
list of faults; an empty list means the output passed.

`selftest()` plants one wrong answer per check and fails if the check
accepts it.  Run it alone with `python3 perfbench/checks.py`.
"""

import math

import numpy as np

# A count further than this many binomial standard deviations from its mean
# is a fault.  At 6 SD a correct sampler fails one count in about 5e8.
BINOMIAL_SD = 6.0
SVD_RANK_TOL = 1e-8


# --- reduction -------------------------------------------------------------

def histogram_faults(hist, n, r, s, compact):
    """Faults of one dual pair's histogram of n zero-level samples.

    The sampler draws the rank k of the zero-level map uniformly from
    {0..min(r, s)}, and mu_g then has type (t, u) with t + u = k.  A compact
    source gives only (t, 0).
    """
    faults = []
    if sum(hist.values()) != n:
        faults.append(f"counts sum to {sum(hist.values())}, not {n}")
    top = min(r, s)
    by_rank = [0] * (top + 1)
    for key, c in hist.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            faults.append(f"key {key!r} is not a (t, u) type")
            continue
        t, u = key
        if t < 0 or u < 0 or t + u > r:
            faults.append(f"type {key} is not admissible for r = {r}")
        elif t + u > top:
            faults.append(f"type {key} has rank above min(r, s) = {top}")
        elif compact and u != 0:
            faults.append(f"compact source gave non-holomorphic type {key}")
        else:
            by_rank[t + u] += c
    if compact and (top, 0) not in hist:
        faults.append(f"top type ({top}, 0) not attained")
    if not compact and ((1, 0) not in hist or (0, 1) not in hist):
        faults.append("indefinite source did not give both (1, 0) and (0, 1)")
    p = 1.0 / (top + 1)
    sd = math.sqrt(n * p * (1 - p))
    for k, c in enumerate(by_rank):
        if abs(c - n * p) > BINOMIAL_SD * sd:
            faults.append(f"rank {k} drawn {c} times of {n}, "
                          f"expected {n * p:.1f} +- {BINOMIAL_SD:g} x {sd:.1f}")
    return faults


def saturation_faults(hist_r, hist_above):
    """Source sizes beyond the target rank r add no type."""
    extra = set(hist_above) - set(hist_r)
    return [f"source size r + 1 adds types {sorted(extra)}"] if extra else []


def sample_faults(alpha, dagger, t, u, quaternionic):
    """mu_h = 0 and mu_g^2 = 0 from the benchmark's own products, and the SVD
    rank of mu_g equals the classified t + u (halved in the quaternionic
    representation)."""
    faults = []
    a2 = max(1.0, float(np.linalg.norm(alpha)) ** 2)
    mu_h = -(dagger @ alpha)
    mu_g = alpha @ dagger
    if np.linalg.norm(mu_h) > 1e-9 * a2:
        faults.append(f"|mu_h| = {np.linalg.norm(mu_h):.2e} on the zero level")
    if np.linalg.norm(mu_g @ mu_g) > 1e-9 * a2 * a2:
        faults.append(f"|mu_g^2| = {np.linalg.norm(mu_g @ mu_g):.2e}")
    sv = np.linalg.svd(mu_g, compute_uv=False)
    rank = int(np.sum(sv > SVD_RANK_TOL * max(1.0, sv[0])))
    if quaternionic:
        rank //= 2
    if rank != t + u:
        faults.append(f"SVD rank {rank} of mu_g, classified as ({t}, {u})")
    return faults


# --- classification --------------------------------------------------------

def classification_faults(built, got, closure_s, jordan_rank):
    """The type equals the (t, u) the element was built from; on holomorphic
    types the smallest closure stratum and the Jordan rank both equal t."""
    t, u = built
    faults = []
    if got != (t, u):
        faults.append(f"built as ({t}, {u}), classified as {got!r}")
    if u == 0:
        if closure_s != t:
            faults.append(f"smallest closure stratum {closure_s}, expected {t}")
        if jordan_rank != t:
            faults.append(f"Jordan rank {jordan_rank}, expected {t}")
    return faults


# --- polarization ----------------------------------------------------------

def bracket_faults(B1, B2, at_z):
    """B1 = {zeta_j, zeta_k} vanishes, i B2 is hermitian, and at xi = z it is
    positive definite (the positive polarization)."""
    faults = []
    scale = max(1.0, float(np.abs(B2).max()))
    if np.abs(B1).max() > 1e-12 * scale:
        faults.append(f"max|B1| = {np.abs(B1).max():.2e}")
    H = 1j * B2
    if np.abs(H - H.conj().T).max() > 1e-10 * scale:
        faults.append("i B2 is not hermitian")
    elif at_z:
        ev = np.linalg.eigvalsh((H + H.conj().T) / 2)
        if ev[0] <= 1e-9 * scale:
            faults.append(f"i B2(z) has eigenvalue {ev[0]:.2e}, not positive")
    return faults


def linearity_faults(B2_a, B2_b, B2_ab):
    """xi -> B2(xi) is linear: B2(a + b) = B2(a) + B2(b)."""
    scale = max(1.0, float(np.abs(B2_a).max()), float(np.abs(B2_b).max()))
    gap = float(np.abs(B2_ab - B2_a - B2_b).max())
    return [f"B2(a+b) - B2(a) - B2(b) = {gap:.2e}"] if gap > 1e-10 * scale else []


def poly_value(monomials, w, var=None):
    """Value at w of a polynomial given as [(coeff, (var, ...))], or of its
    partial derivative in `var`.  Variables 0..d-1 are zeta_j, d..2d-1 their
    conjugates."""
    vals = np.concatenate([w, np.conj(w)])
    total = 0j
    for coeff, vs in monomials:
        vs = list(vs)
        if var is not None:
            if var not in vs:
                continue
            coeff = coeff * vs.count(var)
            vs.remove(var)
        total += coeff * np.prod([vals[v] for v in vs])
    return total


def leibniz_faults(value, f, g, w, B1, B2):
    """{f, g} = sum df/dv1 dg/dv2 {v1, v2}, with the linear brackets of
    (zeta, conj zeta) taken from the bracket matrices B1 and B2."""
    d = len(w)
    L = np.block([[B1, B2], [-B2.T, np.conj(B1)]])
    df = np.array([poly_value(f, w, v) for v in range(2 * d)])
    dg = np.array([poly_value(g, w, v) for v in range(2 * d)])
    expect = df @ L @ dg
    scale = max(1.0, float(np.abs(df).max() * np.abs(dg).max() * np.abs(L).max()))
    gap = abs(value - expect)
    return [f"poly_bracket off the Leibniz rule by {gap:.2e}"] if gap > 1e-10 * scale else []


# --- Albert algebra --------------------------------------------------------

def albert_norm(alpha, a):
    """Frobenius norm of the hermitian 3x3 octonion matrix."""
    return math.sqrt(float(np.sum(np.abs(alpha) ** 2) + 2 * np.sum(np.abs(a) ** 2)))


def complex_albert_faults(built_rank, M, got_rank, got_norm):
    """albert_rank equals the rank the element was built with, and the
    generic norm equals numpy's determinant of the complex matrix M."""
    faults = []
    if got_rank != built_rank:
        faults.append(f"built with rank {built_rank}, albert_rank gave {got_rank}")
    det = complex(np.linalg.det(M))
    scale = max(1.0, float(np.linalg.norm(M))) ** 3
    if abs(got_norm - det) > 1e-9 * scale:
        faults.append(f"generic norm {got_norm!r} but det {det!r}")
    return faults


def adjoint_identity_faults(alpha, a, nu, prod_alpha, prod_a):
    """Cayley-Hamilton: A o A# = nu(A) I, to 1e-10 |A|^3."""
    gap = albert_norm(prod_alpha - nu, prod_a)
    bound = 1e-10 * max(1.0, albert_norm(alpha, a)) ** 3
    return [f"|A o A# - nu I| = {gap:.2e} > {bound:.2e}"] if gap > bound else []


# --- self-tests ------------------------------------------------------------

def selftest():
    """Names of checks that accept a planted wrong answer or reject a right one."""
    bad = []

    def expect(name, faults, should_fail):
        if bool(faults) != should_fail:
            bad.append(name)

    expect("classification accepts right type",
           classification_faults((2, 0), (2, 0), 2, 2), False)
    expect("classification rejects swapped (t, u)",
           classification_faults((2, 1), (1, 2), None, None), True)
    expect("classification rejects wrong closure stratum",
           classification_faults((1, 0), (1, 0), 2, 1), True)

    good = {(0, 0): 50, (1, 0): 50}
    expect("histogram accepts right histogram", histogram_faults(good, 100, 1, 1, True), False)
    expect("histogram rejects a (t, 1) key",
           histogram_faults({(0, 0): 50, (1, 0): 40, (0, 1): 10}, 100, 1, 1, True), True)
    expect("histogram rejects a skewed draw",
           histogram_faults({(0, 0): 95, (1, 0): 5}, 100, 1, 1, True), True)
    expect("histogram rejects a missing top type",
           histogram_faults({(0, 0): 100}, 100, 1, 1, True), True)
    expect("saturation rejects a new type",
           saturation_faults(good, {**good, (2, 0): 1}), True)

    d = 3
    B1 = np.zeros((d, d), complex)
    B2 = -1j * np.diag([1.0, 2.0, 1.0])
    expect("brackets accept right matrices", bracket_faults(B1, B2, True), False)
    expect("brackets reject B1 perturbed by 1e-6",
           bracket_faults(B1 + 1e-6, B2, False), True)
    expect("brackets reject indefinite i B2(z)",
           bracket_faults(B1, B2 @ np.diag([1.0, -1.0, 1.0]), True), True)
    expect("linearity rejects a shifted sum", linearity_faults(B2, B2, 2 * B2 + 1e-6), True)

    w = np.array([0.3 + 0.1j, -0.2j, 1.0])
    f = [(1.0, (0, d + 1)), (0.5, (1, 1))]
    g = [(1.0, (d + 0, 1)), (2.0, (2,))]
    L = np.block([[B1, B2], [-B2.T, np.conj(B1)]])
    right = np.array([poly_value(f, w, v) for v in range(2 * d)]) @ L @ \
        np.array([poly_value(g, w, v) for v in range(2 * d)])
    expect("Leibniz accepts the right value", leibniz_faults(right, f, g, w, B1, B2), False)
    expect("Leibniz rejects a wrong value", leibniz_faults(right + 1e-6, f, g, w, B1, B2), True)

    M = np.diag([1.0, 1.0, 0.0]).astype(complex)
    expect("Albert accepts right rank", complex_albert_faults(2, M, 2, 0.0), False)
    expect("Albert rejects rank off by one", complex_albert_faults(2, M, 3, 0.0), True)
    expect("Albert rejects a wrong norm", complex_albert_faults(2, M, 2, 1e-6), True)
    alpha, a = np.ones(3), np.zeros((3, 8))
    expect("adjoint identity rejects a wrong product",
           adjoint_identity_faults(alpha, a, 1.0, alpha + 1e-6, a), True)

    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    iso = np.array([[1.0], [0.0]])
    expect("sample accepts rank-1 zero level", sample_faults(iso, iso.T @ J, 1, 0, False), False)
    expect("sample rejects a wrong classified type",
           sample_faults(iso, iso.T @ J, 0, 0, False), True)
    return bad


if __name__ == "__main__":
    failed = selftest()
    for name in failed:
        print("FAILED:", name)
    print("self-tests:", "failed" if failed else "passed")
    raise SystemExit(1 if failed else 0)
