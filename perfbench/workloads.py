"""The four benchmark workloads: seeded inputs, set-up, one round, checks.

run.py drives a workload in this order:

    inputs = make_inputs(seed)       the benchmark's own input generation
    state = setup()                  \\ together with the import of orbitkit,
    warm(state, warm_inputs(inputs)) /  this is what setup_s times
    out = run_round(state, inputs)   timed; `items` items per round
    failed, faults = check(state, inputs, out, first)   not timed

Every call into orbitkit looks its function up on the module at call time
(`ok.classify.classify_nilpotent`, never a name bound at import), so the
wrappers that layertrace.py installs on those modules see every call.
"""

import numpy as np
from scipy.linalg import expm   # the benchmark's own group elements

import orbitkit as ok
import orbitkit.classify
import orbitkit.dualpair
import orbitkit.jordan
import orbitkit.liealg
import orbitkit.poisson

import checks


class Failed:
    """Output of an item whose call raised; every check counts it as wrong."""

    def __init__(self, exc):
        self.error = f"{type(exc).__name__}: {exc}"

    def __repr__(self):
        return f"Failed({self.error})"


def _guard(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:    # one failed operation; the run goes on
        return Failed(exc)


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _form_j(n, dtype=float):
    """[[0, -I], [I, 0]] of size 2n."""
    Z, I = np.zeros((n, n)), np.eye(n)
    return np.block([[Z, -I], [I, Z]]).astype(dtype)


def _basis_combination(basis, rng):
    return sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))


# --- reduction -------------------------------------------------------------

class Reduction:
    """One reduce_and_classify call per dual pair of the verify reduction
    suite, each with the pair's whole sample count."""

    name = "reduction"
    # (case, s', s'', target params); r is the target's split rank
    PAIRS = ([("o-sp", s, 0, (4,)) for s in range(1, 6)]
             + [("u-u", s, 0, (2, 2)) for s in range(1, 4)]
             + [("sp-sostar", s, 0, (3,)) for s in range(1, 3)]
             + [("o-sp", 1, 1, (1,))])
    SAMPLES = 100       # per pair; the top type then goes unseen with p < 1e-9
    SUBSET = 4          # samples per pair re-derived for the product checks
    items = len(PAIRS) * SAMPLES

    def make_inputs(self, seed):
        state = np.random.SeedSequence([seed, 1]).generate_state(len(self.PAIRS) + 1)
        return {"seeds": [int(s) for s in state[:-1]], "warm_seed": int(state[-1])}

    def warm_inputs(self, inputs):
        return inputs["warm_seed"]

    def setup(self):
        return [ok.dualpair.make_dual_pair(*p) for p in self.PAIRS]

    def warm(self, cfgs, warm_seed):
        ok.dualpair.reduce_and_classify(cfgs[0], 1, seed=warm_seed)

    def run_round(self, cfgs, inputs):
        return [_guard(ok.dualpair.reduce_and_classify, cfg, self.SAMPLES, seed)
                for cfg, seed in zip(cfgs, inputs["seeds"])]

    def check(self, cfgs, inputs, hists, first):
        bad = {}
        for i, (cfg, hist) in enumerate(zip(cfgs, hists)):
            if isinstance(hist, Failed):
                bad[i] = [repr(hist)]
                continue
            faults = checks.histogram_faults(hist, self.SAMPLES, cfg.target.r, cfg.s,
                                             compact=cfg.ssecond == 0)
            if faults:
                bad[i] = faults
        for i, (cfg, hist) in enumerate(zip(cfgs, hists)):
            # the pair one source size above the target rank, against the pair at r
            if cfg.ssecond or cfg.s != cfg.target.r + 1 or i in bad:
                continue
            j = next(j for j, c in enumerate(cfgs)
                     if c.case == cfg.case and c.params == cfg.params and c.s == cfg.target.r)
            if j not in bad:
                faults = checks.saturation_faults(hists[j], hist)
                if faults:
                    bad[i] = faults
        failed = self.SAMPLES * len(bad)
        faults = [f"{cfgs[i].name()}: {f}" for i, fs in bad.items() for f in fs]
        if first:
            for i, (cfg, seed) in enumerate(zip(cfgs, inputs["seeds"])):
                if i in bad:
                    continue
                for alpha in ok.dualpair.sample_zero_level(cfg, self.SUBSET, seed):
                    typ = ok.classify.classify_nilpotent(cfg.target, ok.dualpair.mu_g(cfg, alpha))
                    if isinstance(typ, tuple):
                        fs = checks.sample_faults(alpha, self._dagger(cfg, alpha), *typ,
                                                  quaternionic=cfg.case == "sp-sostar")
                    else:
                        fs = [f"sample classified as {typ!r}"]
                    if fs:
                        failed += 1
                        faults += [f"{cfg.name()} sample: {f}" for f in fs]
        return failed, faults

    @staticmethod
    def _dagger(cfg, alpha):
        """G_s alpha* J_V from the two forms, built here and not read from cfg."""
        g = np.diag([1.0] * cfg.sprime + [-1.0] * cfg.ssecond)
        if cfg.case == "o-sp":
            return g @ alpha.T @ _form_j(cfg.params[0])
        if cfg.case == "u-u":
            p, q = cfg.params
            return g @ alpha.conj().T @ (1j * np.diag([1.0] * p + [-1.0] * q))
        gs = np.kron(np.eye(2), g)      # the quaternionic representation
        return gs @ alpha.conj().T @ _form_j(cfg.params[0], complex)


# --- classification ----------------------------------------------------------

class Classification:
    """classify_nilpotent on conjugates g e_{t,u} g^-1 of every admissible type,
    plus the smallest closure stratum and the Jordan rank on holomorphic ones."""

    name = "classification"
    ALGEBRAS = (("sp", (4,)), ("u", (3, 3)), ("sostar", (4,)), ("so2q", (6,)))
    CONJUGATES = 20     # per type: 37 types in all, 740 items
    items = CONJUGATES * sum((r + 1) * (r + 2) // 2 for r in (4, 3, 2, 2))

    def make_inputs(self, seed):
        rng = _rng(seed, 2)
        items = []
        for fi, (family, params) in enumerate(self.ALGEBRAS):
            desc = ok.make_algebra(family, params)
            basis = ok.liealg.basis(desc)
            for t in range(desc.r + 1):
                for u in range(desc.r + 1 - t):
                    X = ok.orbit_rep(desc, t, u)
                    for _ in range(self.CONJUGATES):
                        g = np.eye(desc.N)
                        for _ in range(3):
                            xi = _basis_combination(basis, rng)
                            g = g @ expm(xi * min(1.0, 0.5 / np.linalg.norm(xi)))
                        items.append((fi, (t, u), g @ X @ np.linalg.inv(g)))
        items = [items[i] for i in rng.permutation(len(items))]
        assert len(items) == self.items
        return items

    def warm_inputs(self, items):
        # an so(2,q) item, which fills the discriminant table _SO2Q_TABLES; of
        # a fixed type, so that traced call counts do not depend on the seed
        return next(it for it in items if self.ALGEBRAS[it[0]][0] == "so2q" and it[1] == (1, 0))

    def setup(self):
        return [ok.make_algebra(f, p) for f, p in self.ALGEBRAS]

    def warm(self, descs, item):
        self._item(descs[item[0]], *item[1:])

    def run_round(self, descs, items):
        return [_guard(self._item, descs[fi], built, Y) for fi, built, Y in items]

    @staticmethod
    def _item(desc, built, Y):
        typ = ok.classify.classify_nilpotent(desc, Y)
        if built[1] != 0:
            return typ, None, None
        s_min = next((s for s in range(desc.r + 1) if ok.classify.in_closure(desc, Y, s)), None)
        w = ok.liealg.to_p_plus(desc, ok.liealg.proj_p(desc, Y, check=False))
        return typ, s_min, ok.jordan.jordan_rank_classical(w)

    def check(self, descs, items, outs, first):
        faults = []
        for (fi, built, _), out in zip(items, outs):
            fs = ([repr(out)] if isinstance(out, Failed)
                  else checks.classification_faults(built, *out))
            faults += [f"{descs[fi].name()} {built}: {f}" for f in fs[:1]]
        return len(faults), faults


# --- polarization ----------------------------------------------------------

class Polarization:
    """pplus_bracket_matrix at pre-generated points of five algebras, and
    poly_bracket of two fixed degree-2 polynomials on a quarter of them."""

    name = "polarization"
    ALGEBRAS = (("sp", (4,)), ("u", (3, 3)), ("sostar", (4,)), ("so2q", (6,)), ("sp", (6,)))
    # points per algebra: z, a, b, a + b, then four more random points
    POINTS = 8
    POLY_POINTS = (1, 5)
    items = POINTS * len(ALGEBRAS)

    @staticmethod
    def monomials(d):
        """f = zeta_0 conj(zeta_1) + zeta_1^2 / 2 and
        g = conj(zeta_0) zeta_1 + conj(zeta_1) + 2 zeta_0."""
        f = [(1.0, (0, d + 1)), (0.5, (1, 1))]
        g = [(1.0, (d, 1)), (1.0, (d + 1,)), (2.0, (0,))]
        return f, g

    def make_inputs(self, seed):
        rng = _rng(seed, 3)
        points = []
        for family, params in self.ALGEBRAS:
            desc = ok.make_algebra(family, params)
            basis = ok.liealg.basis(desc)
            a, b = _basis_combination(basis, rng), _basis_combination(basis, rng)
            rest = [_basis_combination(basis, rng) for _ in range(self.POINTS - 4)]
            points.append([desc.z, a, b, a + b] + rest)
        return points

    def warm_inputs(self, points):
        return [pts[0] for pts in points]     # one point per context fills pplus_duals

    def setup(self):
        state = []
        for family, params in self.ALGEBRAS:
            ctx = ok.poisson.PoissonContext(ok.make_algebra(family, params))
            d = ok.liealg.pplus_dim(ctx.desc)
            state.append((ctx, *(self._zeta_poly(d, m) for m in self.monomials(d))))
        return state

    @staticmethod
    def _zeta_poly(d, monomials):
        P = ok.poisson.ZetaPoly
        total = P(d)
        for coeff, vs in monomials:
            term = P.constant(d, coeff)
            for v in vs:
                term = term * (P.zeta(d, v) if v < d else P.zeta_bar(d, v - d))
            total = total + term
        return total

    def warm(self, state, points):
        for (ctx, _, _), xi in zip(state, points):
            ok.poisson.pplus_bracket_matrix(ctx, xi)

    def run_round(self, state, points):
        return [[_guard(self._item, ctx, f, g, xi, k in self.POLY_POINTS)
                 for k, xi in enumerate(pts)]
                for (ctx, f, g), pts in zip(state, points)]

    @staticmethod
    def _item(ctx, f, g, xi, with_poly):
        B1, B2 = ok.poisson.pplus_bracket_matrix(ctx, xi)
        return B1, B2, ok.poisson.poly_bracket(ctx, f, g, xi) if with_poly else None

    def check(self, state, points, outs, first):
        faults = []
        for (ctx, _, _), pts, row in zip(state, points, outs):
            d = ok.liealg.pplus_dim(ctx.desc)
            for k, (xi, out) in enumerate(zip(pts, row)):
                if isinstance(out, Failed):
                    fs = [repr(out)]
                else:
                    B1, B2, value = out
                    fs = checks.bracket_faults(B1, B2, at_z=k == 0)
                    if k == 3 and not any(isinstance(o, Failed) for o in row[1:3]):
                        fs += checks.linearity_faults(row[1][1], row[2][1], B2)
                    if value is not None:
                        fs += checks.leibniz_faults(value, *self.monomials(d),
                                                    ctx.zeta_values(xi), B1, B2)
                faults += [f"{ctx.desc.name()} point {k}: {f}" for f in fs[:1]]
        return len(faults), faults


# --- Albert algebra ----------------------------------------------------------

class Albert:
    """albert_rank and generic_norm on complex hermitian elements of known
    rank, freudenthal_adjoint and jordan_product on general elements."""

    name = "albert"
    PER_RANK = 8        # complex elements of each rank 0..3
    GENERAL = 8
    items = 4 * PER_RANK + GENERAL

    def make_inputs(self, seed):
        rng = _rng(seed, 4)
        complex_items = []
        for k in range(4):
            for _ in range(self.PER_RANK):
                # small integer entries keep V V* exact, so nu vanishes exactly below rank 3
                while True:
                    V = rng.integers(-2, 3, (3, k)) + 1j * rng.integers(-2, 3, (3, k))
                    if np.linalg.matrix_rank(V) == k:
                        break
                M = V @ V.conj().T
                a = np.zeros((3, 8), complex)
                for row, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
                    a[row, :2] = M[i, j].real, M[i, j].imag
                A = ok.jordan.AlbertElement("C", np.diag(M).real, a)
                complex_items.append((k, M, A))
        general = [ok.jordan.AlbertElement(
            "C", rng.standard_normal(3) + 1j * rng.standard_normal(3),
            rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
            for _ in range(self.GENERAL)]
        return {"complex": complex_items, "general": general}

    def warm_inputs(self, inputs):
        return inputs["complex"][-1][2]

    def setup(self):
        return None

    def warm(self, state, A):
        self._complex_item(A)

    def run_round(self, state, inputs):
        return ([_guard(self._complex_item, A) for _, _, A in inputs["complex"]],
                [_guard(self._general_item, A) for A in inputs["general"]])

    @staticmethod
    def _complex_item(A):
        return ok.jordan.albert_rank(A), ok.jordan.generic_norm(A)

    @staticmethod
    def _general_item(A):
        P = ok.jordan.jordan_product(A, ok.jordan.freudenthal_adjoint(A))
        return P.alpha, P.a

    def check(self, state, inputs, outs, first):
        faults = []
        for (k, M, _), out in zip(inputs["complex"], outs[0]):
            fs = ([repr(out)] if isinstance(out, Failed)
                  else checks.complex_albert_faults(k, M, *out))
            faults += [f"rank-{k} element: {f}" for f in fs[:1]]
        for A, out in zip(inputs["general"], outs[1]):
            fs = ([repr(out)] if isinstance(out, Failed)
                  else checks.adjoint_identity_faults(A.alpha, A.a, ok.jordan.generic_norm(A), *out))
            faults += [f"general element: {f}" for f in fs[:1]]
        return len(faults), faults


WORKLOADS = {w.name: w for w in (Reduction(), Classification(), Polarization(), Albert())}
