"""Command-line front end: classification, representative generation,
reduction experiments, bracket evaluation, Jordan invariants, and a `verify`
command running the property batteries behind the test suite.

Reports are plain JSON with sorted keys and no timestamps, so identical seeds
and flags give byte-identical output.  Every check carries a self-contained
"property" sentence stating what was verified.  Exit codes: 0 all checks
pass, 1 any failure or bad input, 2 usage errors.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import dualpair as dp
from . import jordan as jd
from .classify import (
    NOT_PSEUDOHOLOMORPHIC, OrbitType, admissible_types, classify_nilpotent,
    in_closure, random_conjugate,
)
from .divalg import DAMatrix
from .liealg import (
    DEFAULT_TOL, b_x_form, bracket, frobenius, make_algebra, proj_p,
    random_element, to_p_plus,
)
from .poisson import (
    ContractionModel, PoissonContext, contraction_bracket, disc_model_bracket,
    half_trace, lie_poisson_bracket, model_metric_and_curvature,
    pplus_bracket_matrix, stereographic_to_disc,
)
from .triples import check_triple, ks_element, orbit_rep, standard_triples

DEFAULT_SIZES = (("sp", (4,)), ("u", (3, 3)), ("sostar", (4,)), ("so2q", (6,)))
SUITES = ("triples", "classify", "closure", "reduction", "invariants",
          "poisson", "jordan", "contraction")


# --- JSON codecs -------------------------------------------------------------

def matrix_to_json(M):
    M = np.asarray(M)
    if np.iscomplexobj(M):
        return DAMatrix("C", np.stack([M.real, M.imag], axis=-1)).to_json()
    return DAMatrix("R", M[:, :, None]).to_json()


def matrix_from_json(obj):
    dm = DAMatrix.from_json(obj)
    if dm.tag == "R":
        return dm.data[:, :, 0]
    if dm.tag == "C":
        return dm.data[..., 0] + 1j * dm.data[..., 1]
    raise ValueError("quaternionic input must use the complex representation")


def element_to_json(desc, M):
    return {"family": desc.family, "params": list(desc.params),
            "matrix": matrix_to_json(M)}


def load_element(path, family=None, params=None):
    """(descriptor, matrix) from an element envelope or a bare matrix file."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "matrix" in obj:
        family = family or obj.get("family")
        params = params if params is not None else tuple(obj.get("params", ()))
        M = matrix_from_json(obj["matrix"])
    elif isinstance(obj, dict) and "entries" in obj:
        M = matrix_from_json(obj)
    else:
        M = np.asarray(obj, dtype=float)
    if family is None:
        raise ValueError("no family given on the command line or in the file")
    return make_algebra(family, params), M


def _parse_params(text):
    if text is None:
        return None
    return tuple(int(v) for v in str(text).replace(",", " ").split())


# --- output ------------------------------------------------------------------

def dump(obj, mode="json", stream=None):
    stream = stream or sys.stdout
    if mode == "json":
        json.dump(obj, stream, sort_keys=True, indent=2)
        stream.write("\n")
        return
    _table(obj, stream)


def _table(obj, stream, indent=""):
    if isinstance(obj, dict) and "checks" in obj:
        for c in obj["checks"]:
            mark = "PASS" if c.get("passed") else "FAIL"
            res = c.get("residual")
            extra = f"  residual={res:.3e}" if isinstance(res, float) else ""
            stream.write(f"{mark}  {c['name']}{extra}\n")
            stream.write(f"      {c['property']}\n")
        stream.write(f"suite {obj.get('suite')}: "
                     f"{'ok' if obj.get('passed') else 'FAILED'}\n")
        return
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)):
                stream.write(f"{indent}{k}:\n")
                _table(v, stream, indent + "  ")
            else:
                stream.write(f"{indent}{k}: {v}\n")
        return
    if isinstance(obj, list):
        for v in obj:
            _table(v, stream, indent)
        return
    stream.write(f"{indent}{obj}\n")


# --- verify suites -----------------------------------------------------------

def _check(name, prop, passed, residual=None, **extra):
    out = {"name": name, "property": prop, "passed": bool(passed)}
    if residual is not None:
        out["residual"] = float(residual)
    out.update(sorted(extra.items()))
    return out


def suite_triples(seed, tol, samples):
    checks = []
    for family, params in DEFAULT_SIZES:
        desc = make_algebra(family, params)
        trips = standard_triples(desc)
        worst = 0.0
        ok = len(trips) == desc.r
        for e, f, h in trips:
            flags = check_triple(desc, e, f, h, tol=0.0)
            ok = ok and flags.sl2 and flags.invariant and flags.h1
            worst = max(worst,
                        frobenius(bracket(h, e) - 2 * e),
                        frobenius(bracket(h, f) + 2 * f),
                        frobenius(bracket(e, f) - h))
        for i in range(len(trips)):
            for j in range(i + 1, len(trips)):
                for A in trips[i]:
                    for B in trips[j]:
                        worst = max(worst, frobenius(bracket(A, B)))
        ok = ok and worst == 0.0
        checks.append(_check(
            f"triples-{desc.name()}",
            "all r standard triples satisfy [h,e]=2e, [h,f]=-2f, [e,f]=h and "
            "the compatibility relations [z,e+f]=h, [z,h]=-(e+f) with residual "
            "exactly zero, and triples with distinct indices commute entrywise",
            ok, worst))
    return checks


def suite_classify(seed, tol, samples):
    n = samples or 100
    checks = []
    for family, params in DEFAULT_SIZES:
        desc = make_algebra(family, params)
        rng = np.random.default_rng(seed)
        types = admissible_types(desc)
        count_ok = len(types) == (desc.r + 1) * (desc.r + 2) // 2
        mismatches = 0
        eig_floor = 0.0
        signs_ok = True
        for t, u in types:
            X = orbit_rep(desc, t, u)
            for _ in range(n):
                Y = random_conjugate(desc, X, rng=rng)
                if classify_nilpotent(desc, Y, tol=1e-8) != (t, u):
                    mismatches += 1
                if desc.family == "so2q" or frobenius(Y) == 0.0:
                    continue
                M, _, _ = b_x_form(desc, Y)
                ev = np.linalg.eigvalsh(M)
                scale = float(np.abs(ev).max())
                if u == 0:
                    eig_floor = min(eig_floor, float(ev.min() / max(scale, 1e-30)))
                if (t, u) == (1, 1) and not (ev.min() < -1e-8 * scale
                                             and ev.max() > 1e-8 * scale):
                    signs_ok = False
        checks.append(_check(
            f"classification-invariance-{desc.name()}",
            f"{n} random conjugates of each of the (r+1)(r+2)/2 square-zero "
            "representatives classify back to their (t,u) type",
            count_ok and mismatches == 0, float(mismatches)))
        if desc.family != "so2q":
            checks.append(_check(
                f"nonnegative-form-{desc.name()}",
                "conjugates of holomorphic representatives keep the hermitian "
                "form -J_V X positive semidefinite (min eigenvalue >= -1e-8 "
                "relative); mixed-type conjugates show both signs",
                eig_floor >= -1e-8 and signs_ok, -eig_floor))
    return checks


def suite_closure(seed, tol, samples):
    n = samples or 100
    checks = []
    for family, params in DEFAULT_SIZES:
        desc = make_algebra(family, params)
        ok = True
        for s in range(desc.r + 1):
            X = orbit_rep(desc, s, 0)
            for sp in range(desc.r + 1):
                if bool(in_closure(desc, X, sp)) != (sp >= s):
                    ok = False
        rank_ok = all(
            jd.jordan_rank_classical(ks_element(desc, s)) == s
            for s in range(desc.r + 1))
        checks.append(_check(
            f"closure-order-{desc.name()}",
            "e_{s,0} lies in the closure of the rank-s' holomorphic stratum "
            "exactly when s' >= s, and the model-space matrix ranks match the "
            "stratum labels",
            ok and rank_ok))
    desc = make_algebra("so2q", DEFAULT_SIZES[3][1])
    rng = np.random.default_rng(seed)
    X = orbit_rep(desc, 1, 0)
    worst = 0.0
    for _ in range(n):
        Y = random_conjugate(desc, X, rng=rng)
        w = to_p_plus(desc, proj_p(desc, Y, check=False)).value
        worst = max(worst, float(abs(np.sum(w * w))))
    checks.append(_check(
        "quadric-membership-so2q",
        "model coordinates of conjugates of the rank-1 representative satisfy "
        "sum(w_j^2) = 0 within 1e-9",
        worst <= 1e-9, worst))
    return checks


def _histogram_checks(case, params, r, smax, n, seed, checks):
    supports = {}
    ok = True
    for s in range(1, smax + 1):
        cfg = dp.make_dual_pair(case, s, 0, params)
        hist = dp.reduce_and_classify(cfg, n, seed=seed)
        supports[s] = set(hist)
        ok = ok and all(u == 0 for (_, u) in hist)
        ok = ok and all(t <= min(r, s) for (t, _) in hist)
        ok = ok and (min(r, s), 0) in hist
    ok = ok and supports[smax] == supports[smax - 1]
    checks.append(_check(
        f"reduction-histogram-{case}-{'x'.join(map(str, params))}",
        f"{n} zero-level samples per compact source size s = 1..r+1: the "
        "reduced points classify to types (t,0) with t <= min(r,s), the top "
        "type is attained, and source sizes beyond r add no new types",
        ok))


def suite_reduction(seed, tol, samples):
    checks = []
    n = samples or 500
    _histogram_checks("o-sp", (4,), 4, 5, n, seed, checks)
    _histogram_checks("u-u", (2, 2), 2, 3, n, seed, checks)
    _histogram_checks("sp-sostar", (3,), 1, 2, n, seed, checks)

    m = samples or 200
    cfg = dp.make_dual_pair("o-sp", 1, 1, (1,))
    hist = dp.reduce_and_classify(cfg, m, seed=seed)
    checks.append(_check(
        "indefinite-source-nilcone",
        "the zero level of the split rank-1 source maps onto the whole "
        "nilpotent cone of sp(1,R): both the positive and the negative "
        "square-zero types occur",
        (1, 0) in hist and (0, 1) in hist))

    cfg = dp.make_dual_pair("sp-so2q", 1, 0, DEFAULT_SIZES[3][1])
    worst = 0.0
    for alpha in dp.sample_sp1_nilcone(cfg, m, seed=seed):
        mg = dp.mu_g(cfg, alpha)
        worst = max(worst, frobenius(mg @ mg @ mg) / max(frobenius(mg) ** 3, 1e-30))
    a1, a2 = dp.canonical_alphas(cfg)
    trips = standard_triples(cfg.target)
    exact = (np.array_equal(dp.mu_g(cfg, a1), trips[0][0])
             and np.array_equal(dp.mu_g(cfg, a2), trips[1][0]))
    checks.append(_check(
        "nilcone-cubes-so2q",
        f"{m} samples with source momentum in the sp(1,R) nilpotent cone give "
        "cube-zero target momenta (relative residual <= 1e-9), and the two "
        "canonical maps hit the standard generators entrywise",
        worst <= 1e-9 and exact, worst))
    return checks


def suite_invariants(seed, tol, samples):
    checks = []
    for case, sig, params, expect in (
            ("o-sp", (2, 0), (2,), 10),
            ("u-u", (1, 0), (2, 1), 9)):
        cfg = dp.make_dual_pair(case, *sig, params)
        dim = dp.invariant_quadratics_dim(cfg)
        rank = int(np.linalg.matrix_rank(dp.moment_quadratic_forms(cfg), tol=1e-8))
        checks.append(_check(
            f"invariant-quadratics-{cfg.name()}",
            f"the space of source-invariant quadratics has dimension {expect} "
            "= dim of the target algebra, and the target momentum components "
            "span it",
            dim == expect == cfg.target.dim and rank == expect,
            float(dim - expect)))
    return checks


def suite_poisson(seed, tol, samples):
    n = samples or 200
    checks = []
    for family, params in DEFAULT_SIZES:
        ctx = PoissonContext(make_algebra(family, params))
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(n):
            xi = random_element(ctx.desc, rng)
            B1, _ = pplus_bracket_matrix(ctx, xi)
            worst = max(worst, float(np.abs(B1).max()))
        checks.append(_check(
            f"polarization-{ctx.desc.name()}",
            "all pairwise Poisson brackets of the holomorphic model "
            "coordinates vanish (<= 1e-12) at sampled points",
            worst <= 1e-12, worst))
    return checks


def suite_jordan(seed, tol, samples):
    n = samples or 200
    checks = []
    for family, params in DEFAULT_SIZES:
        desc = make_algebra(family, params)
        rng = np.random.default_rng(seed)
        mism = 0
        for s in range(desc.r + 1):
            X = orbit_rep(desc, s, 0)
            for _ in range(n):
                Y = random_conjugate(desc, X, rng=rng)
                w = to_p_plus(desc, proj_p(desc, Y, check=False))
                if jd.jordan_rank_classical(w) != s:
                    mism += 1
        checks.append(_check(
            f"rank-stratum-{desc.name()}",
            f"{n} conjugates per stratum project to model elements whose "
            "Jordan rank equals the stratum label",
            mism == 0, float(mism)))

    rng = np.random.default_rng(seed)
    A = jd.AlbertElement("C", rng.integers(-5, 6, 3).astype(float),
                         rng.integers(-5, 6, (3, 8)).astype(float))
    homog = (jd.generic_norm(A.scale(2.0)) == 8 * jd.generic_norm(A)
             and jd.generic_norm(A.scale(3.0)) == 27 * jd.generic_norm(A))
    checks.append(_check(
        "generic-norm-albert",
        "the cubic norm takes the value 1 on the identity and scales exactly "
        "by lambda^3 under rational rescaling",
        jd.generic_norm(jd.AlbertElement.identity()) == 1.0 and homog))

    exact = jd.generic_norm(jd.AlbertElement.diagonal("C", 1, 1, 0)) == 0.0
    for family, params in DEFAULT_SIZES:
        desc = make_algebra(family, params)
        for s in range(desc.r):
            if jd.fundamental_invariant(family, ks_element(desc, s)) != 0.0:
                exact = False
        if abs(jd.fundamental_invariant(family, ks_element(desc, desc.r))) <= 1e-9:
            exact = False
    checks.append(_check(
        "relative-invariant-vanishing",
        "the relative invariant is exactly zero on every sub-maximal model "
        "representative and nonzero on the top one, in all regular families "
        "and on the Albert algebra",
        exact))
    return checks


def suite_contraction(seed, tol, samples):
    n = samples or 100
    checks = []
    ctx = PoissonContext(make_algebra("sp", 1))
    E = np.array([[0.0, 1.0], [0.0, 0.0]])
    F = np.array([[0.0, 0.0], [1.0, 0.0]])
    duals = [-(E - F), E + F, np.diag([1.0, -1.0])]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(25):
        xi = random_element(ctx.desc, rng)
        x = [half_trace(d, xi) for d in duals]
        worst = max(
            worst,
            abs(lie_poisson_bracket(ctx, duals[1], duals[2], xi) - 2 * x[0]),
            abs(lie_poisson_bracket(ctx, duals[0], duals[2], xi) - 2 * x[1]),
            abs(lie_poisson_bracket(ctx, duals[0], duals[1], xi) + 2 * x[2]))
    checks.append(_check(
        "three-bracket-table",
        "the rank-one coordinate brackets come out as {x1,x2}=2x0, "
        "{x0,x2}=2x1, {x0,x1}=-2x2: the classical table at twice the scale "
        "fixed by the half-trace pairing",
        worst <= 1e-12, worst))

    curv = model_metric_and_curvature(ContractionModel(1.0), 0.0)[1]
    flat = max(abs(model_metric_and_curvature(ContractionModel(0.0), z)[1])
               for z in (0.3, 1.0, 2.5))
    checks.append(_check(
        "curvature-values",
        "the deformed model has curvature -1 at the base point for eps = 1 "
        "and is flat for eps = 0",
        curv == -1.0 and flat == 0.0, abs(curv + 1.0)))

    h = 1e-20
    m = ContractionModel(1.0)
    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x1, x2 = rng.uniform(-3, 3, size=2)
        y1, y2 = stereographic_to_disc(m, x1, x2)
        d11 = stereographic_to_disc(m, x1 + 1j * h, x2)[0].imag / h
        d12 = stereographic_to_disc(m, x1, x2 + 1j * h)[0].imag / h
        d21 = stereographic_to_disc(m, x1 + 1j * h, x2)[1].imag / h
        d22 = stereographic_to_disc(m, x1, x2 + 1j * h)[1].imag / h
        det = d11 * d22 - d12 * d21
        pulled = det * contraction_bracket(m, x1, x2)
        worst = max(worst, abs(pulled - disc_model_bracket(1.0, y1, y2)))
    checks.append(_check(
        "stereographic-change-of-variables",
        "pushing the sheet bracket through the stereographic chart "
        "reproduces the disc bracket to 1e-9 at sampled points",
        worst <= 1e-9, worst))
    return checks


SUITE_FUNCS = {
    "triples": suite_triples,
    "classify": suite_classify,
    "closure": suite_closure,
    "reduction": suite_reduction,
    "invariants": suite_invariants,
    "poisson": suite_poisson,
    "jordan": suite_jordan,
    "contraction": suite_contraction,
}


def run_verify_suite(suite, seed=1, tolerance=None, samples=None):
    """(exit_code, report) for one suite or 'all'."""
    tol = tolerance if tolerance is not None else _default_tol()
    names = SUITES if suite == "all" else (suite,)
    if any(s not in SUITE_FUNCS for s in names):
        raise ValueError(f"unknown suite {suite!r}")
    checks = []
    for s in names:
        checks.extend(SUITE_FUNCS[s](seed, tol, samples))
    passed = all(c["passed"] for c in checks)
    report = {
        "suite": suite,
        "seed": seed,
        "samples": samples,
        "tolerance": tol,
        "checks": checks,
        "passed": passed,
    }
    return (0 if passed else 1), report


def _default_tol():
    env = os.environ.get("ORBITKIT_TOL")
    if env:
        return float(env)
    return DEFAULT_TOL


# --- subcommands ---------------------------------------------------------------

def cmd_classify(args):
    desc, M = load_element(args.input, args.family, _parse_params(args.params))
    # rank/signature thresholds default to 1e-8 of the largest magnitude
    tol = args.tolerance if args.tolerance is not None else 1e-8
    res = classify_nilpotent(desc, M, tol=tol)
    if not isinstance(res, OrbitType):
        out = {"type": None, "holomorphic": False, "closure_max_s": None}
    else:
        closure = None
        for s in range(desc.r + 1):
            if in_closure(desc, M, s, tol=tol):
                closure = s
                break
        out = {"type": [res.t, res.u],
               "holomorphic": bool(res.u == 0),
               "closure_max_s": closure}
    dump(out, args.output)
    return 0


def cmd_rep(args):
    desc = make_algebra(args.family, _parse_params(args.params))
    t, u = (int(v) for v in args.type.split(","))
    X = orbit_rep(desc, t, u)
    dump(element_to_json(desc, X), args.output)
    return 0


def cmd_ks(args):
    desc = make_algebra(args.family, _parse_params(args.params))
    w = ks_element(desc, args.s)
    val = np.atleast_2d(np.asarray(w.value, dtype=complex))
    if w.family == "so2q":
        val = val.reshape(-1, 1)
    out = {"family": desc.family, "params": list(desc.params), "s": args.s,
           "pplus": matrix_to_json(val)}
    dump(out, args.output)
    return 0


def cmd_reduce(args):
    params = _parse_params(args.target)
    cfg = dp.make_dual_pair(args.case, args.sprime, args.ssecond, params)
    n = args.samples or 500
    hist = dp.reduce_and_classify(cfg, n, seed=args.seed)
    unclassified = hist.pop(NOT_PSEUDOHOLOMORPHIC, 0)
    out = {
        "case": cfg.case,
        "sprime": cfg.sprime,
        "ssecond": cfg.ssecond,
        "target": cfg.target.name(),
        "samples": n,
        "seed": args.seed,
        "histogram": {f"{t},{u}": c for (t, u), c in sorted(hist.items())},
    }
    if unclassified:
        out["unclassified"] = unclassified
    dump(out, args.output)
    return 0


def cmd_bracket(args):
    desc, xi = load_element(args.at, args.family, _parse_params(args.params))
    if args.pairs != "pplus":
        raise ValueError(f"unsupported pair set {args.pairs!r}")
    ctx = PoissonContext(desc)
    B1, B2 = pplus_bracket_matrix(ctx, xi)
    out = {"family": desc.family, "params": list(desc.params),
           "zeta_zeta": matrix_to_json(B1),
           "zeta_zetabar": matrix_to_json(B2)}
    dump(out, args.output)
    return 0


def cmd_jordan(args):
    path = args.norm or args.rank
    with open(path) as fh:
        A = jd.AlbertElement.from_json(json.load(fh))
    if args.norm:
        v = jd.generic_norm(A)
        value = [v.real, v.imag] if A.field == "C" else v
        dump({"norm": value}, args.output)
    else:
        dump({"rank": jd.albert_rank(A)}, args.output)
    return 0


def cmd_verify(args):
    code, report = run_verify_suite(
        args.suite, seed=args.seed, tolerance=args.tolerance,
        samples=args.samples)
    dump(report, args.output)
    return code


def _positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return n


def _add_common(p):
    p.add_argument("--family", choices=("sp", "u", "sostar", "so2q"))
    p.add_argument("--params", help="size parameters, e.g. 3 or 2,1")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--input", help="input JSON file")
    p.add_argument("--output", choices=("json", "table"), default="json")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="orbitkit",
        description="holomorphic nilpotent orbits: classification, reduction, "
                    "brackets, and Jordan invariants")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="orbit type of a square-zero element")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rep", help="standard representative e_{t,u}")
    _add_common(p)
    p.add_argument("--type", required=True, help="t,u")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("ks", help="model-space image of the rank-s element")
    _add_common(p)
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("reduce", help="sample the zero level and classify")
    _add_common(p)
    p.add_argument("--case", required=True, choices=dp.CASES)
    p.add_argument("--sprime", type=int, required=True)
    p.add_argument("--ssecond", type=int, default=0)
    p.add_argument("--target", required=True,
                   help="target size parameters, e.g. 3 or 2,1")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bracket", help="bracket matrices of model coordinates")
    _add_common(p)
    p.add_argument("--at", required=True, help="evaluation point JSON file")
    p.add_argument("--pairs", default="pplus", choices=("pplus",))
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("jordan", help="generic norm / rank of an element")
    _add_common(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--norm", help="element JSON file")
    g.add_argument("--rank", help="element JSON file")
    p.set_defaults(func=cmd_jordan)

    p = sub.add_parser("verify", help="run a property battery")
    _add_common(p)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"orbitkit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
