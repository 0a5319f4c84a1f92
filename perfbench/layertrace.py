"""Per-layer call counts and self time, recorded from outside orbitkit.

`Tracer.install()` replaces each wrapped function on every orbitkit module
that holds it, so a call is seen wherever the name is looked up: the
package namespace, the defining module (which also catches recursion, as
in divalg.cd_mul) and every module that imported it.  `PoissonContext`
construction and `pplus_duals` are wrapped on the class.  Self time is a
call's wall time minus the time spent in wrapped calls made inside it.
"""

import functools
import sys
import time

# (layer, functions); a layer is an orbitkit module, except `expm`, the
# scipy.linalg.expm that classify and dualpair import
LAYERS = (
    ("liealg", ("basis", "random_element", "membership_residual", "cartan_split",
                "b_x_form", "to_p_plus")),
    ("expm", ("expm",)),
    ("triples", ("orbit_rep", "standard_triples")),
    ("classify", ("classify_nilpotent", "in_closure", "k_rank")),
    ("dualpair", ("reduce_and_classify", "sample_zero_level", "random_g_isometry",
                  "random_h_isometry", "h_basis", "mu_g")),
    ("poisson", ("PoissonContext", "pplus_duals", "pplus_bracket_matrix", "poly_bracket")),
    ("jordan", ("albert_rank", "generic_norm", "freudenthal_adjoint", "jordan_product",
                "jordan_rank_classical")),
    ("divalg", ("cd_mul",)),
)
METHODS = {"PoissonContext": "__init__", "pplus_duals": "pplus_duals"}


def metric_names():
    """Every per-layer metric with its unit, in a fixed order."""
    out = [("import.orbitkit_s", "s")]
    for layer, fns in LAYERS:
        for fn in fns:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.stats = {}         # "layer.fn" -> [calls, self seconds]
        self._children = []     # wrapped time inside each open call
        self._undo = []

    def _wrap(self, key, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stat[0] += 1
                stat[1] += dt - children.pop()
                if children:
                    children[-1] += dt
        return wrapper

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "orbitkit" or name.startswith("orbitkit."))]
        cls = sys.modules["orbitkit.poisson"].PoissonContext
        for layer, fns in LAYERS:
            home = sys.modules["orbitkit.classify" if layer == "expm" else f"orbitkit.{layer}"]
            for fn in fns:
                key = f"{layer}.{fn}"
                self.stats.setdefault(key, [0, 0.0])
                if fn in METHODS:
                    attr = METHODS[fn]
                    self._patch(cls, attr, self._wrap(key, cls.__dict__[attr]))
                    continue
                orig = getattr(home, fn, None)
                if orig is None:
                    continue    # gone from the program: the metric stays at 0
                wrapped = self._wrap(key, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, import_s):
        values = {"import.orbitkit_s": import_s}
        for key, (calls, self_s) in self.stats.items():
            values[f"{key}.calls"] = calls
            values[f"{key}.s"] = self_s
        return {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
