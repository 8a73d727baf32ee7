"""Span tracing for the traced benchmark run, installed from outside the
library.

`Tracer.install` replaces each public function of each `cstorus` module with
a wrapper that records a span (name, start, end, parent, case id). It does so
under every module-level name bound to the function, in `cstorus` modules and
in the benchmark's own, so a call from one module into another becomes a child
span of the caller.

Functions called once per matrix entry or grid point (everything in
`cstorus.exact`, `wgz.multiplier_eval`) get a call counter instead of a span.
`finrep.unit_phase`, private helpers and methods other than those in
`SPANNED_METHODS` are left alone, so their time lands in the self time of
their public caller.

Spans stay in memory until the run ends. Untraced runs never import this
module, so they run the library unmodified.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("roots", "exact", "lattice", "finrep", "compactcheck", "wgz",
          "heatkernel", "cli")
COUNTED = {"exact": None, "wgz": ("multiplier_eval",)}   # None: every public function
UNWRAPPED = {("finrep", "unit_phase")}
SPANNED_METHODS = {"roots": {"RootSystem": ("weyl_group", "summary")}}


def _public_functions(mod):
    return {name: obj for name, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not name.startswith("_")}


class Tracer:
    """In-memory span recorder with per-pass span lists."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, case, error]
        self.stack = []
        self.case_id = None
        self.counts = defaultdict(int)
        self.observed = defaultdict(int)

    # -- installation -----------------------------------------------------
    def install(self):
        for layer in LAYERS:
            importlib.import_module(f"cstorus.{layer}")
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"cstorus.{layer}"]
            counted = COUNTED.get(layer, ())
            for name, fn in _public_functions(mod).items():
                if (layer, name) in UNWRAPPED:
                    continue
                if counted is None or name in counted:
                    replace[fn] = self._counter(f"{layer}.{name}", fn)
                else:
                    replace[fn] = self._spanner(f"{layer}.{name}", fn)
            for cls_name, methods in SPANNED_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = vars(cls).get(meth)
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._spanner(f"{layer}.{meth}", fn))
        # rebind every module-level name of a wrapped function, in cstorus
        # and in the benchmark's own modules alike
        for mod in list(sys.modules.values()):
            for attr, obj in list(getattr(mod, "__dict__", {}).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _spanner(self, name, fn):
        observe = _OBSERVERS.get(name)

        def spanned(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.observed, result)
            return result
        spanned.__wrapped__ = fn
        return spanned

    @contextlib.contextmanager
    def span(self, name, case_id=None):
        """Record one span; a case id, if given, tags it and its children."""
        prev = self.case_id
        if case_id is not None:
            self.case_id = case_id
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else None,
               self.case_id, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
            self.case_id = prev

    def take(self):
        """Hand over the spans, counts and observations recorded so far and
        start afresh (one call per traced pass)."""
        out = (self.spans, dict(self.counts), dict(self.observed))
        self.spans = []
        self.counts.clear()      # cleared in place: the counters hold this dict
        self.observed.clear()
        return out


# -- size observers: computed from a call's result --------------------------

def _weyl_order(observed, result):
    observed["roots.weyl_order_sum"] += result.order


def _quotient_order(observed, result):
    observed["lattice.quotient_order_sum"] += result.order


def _weyl_pairings(observed, result):
    # one exact pairing per (row, column, Weyl element)
    weyl_group = type(result.rs).weyl_group
    order = getattr(weyl_group, "__wrapped__", weyl_group)(result.rs).order
    observed["finrep.weyl_pairings"] += result.dim ** 2 * order


def _em_matrix(observed, result):
    # wgz_inverse forms a (cells x box points) complex128 matrix
    spec = result.spec
    mb = spec.divisions ** spec.n * spec.box_points_per_axis ** spec.n * 16 / 1e6
    observed["wgz.inverse_em_mb"] = max(observed["wgz.inverse_em_mb"], mb)


_OBSERVERS = {
    "roots.generate_weyl_group": _weyl_order,
    "lattice.quotient_group": _quotient_order,
    "finrep.rep_matrices": _weyl_pairings,
    "wgz.wgz_inverse": _em_matrix,
}


# -- aggregation ------------------------------------------------------------

def _layer(name):
    return name.split(".", 1)[0]


def span_metrics(spans, counts, observed):
    """Per-layer metrics of one traced pass: self times, entries into each
    layer, inclusive times of named entry points, counts and sizes."""
    n = len(spans)
    dur = [sp[2] - sp[1] for sp in spans]
    covered = [0.0] * n
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            covered[sp[3]] += dur[i]
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for i, sp in enumerate(spans):
        layer = _layer(sp[0])
        self_s[layer] += dur[i] - covered[i]
        parent = sp[3]
        if layer != "bench" and (parent is None or _layer(spans[parent][0]) != layer):
            calls[layer] += 1

    def inclusive(*names):
        """Time inside the named functions, not double-counting nesting."""
        names = set(names)
        total = 0.0
        for i, sp in enumerate(spans):
            if sp[0] not in names:
                continue
            p = sp[3]
            while p is not None and spans[p][0] not in names:
                p = spans[p][3]
            if p is None:
                total += dur[i]
        return total

    def count(name):
        return sum(1 for sp in spans if sp[0] == name)

    top = [i for i, sp in enumerate(spans) if sp[3] is None]
    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS if layer != "exact"}
    out.update({f"{layer}.calls": calls[layer] for layer in LAYERS if layer != "exact"})
    out.update({
        "exact.calls": sum(v for k, v in counts.items() if _layer(k) == "exact"),
        "roots.weyl_group_s": inclusive("roots.weyl_group", "roots.generate_weyl_group"),
        "roots.weyl_order_sum": observed.get("roots.weyl_order_sum", 0),
        "lattice.alcove_points_s": inclusive("lattice.alcove_points"),
        "lattice.quotient_order_sum": observed.get("lattice.quotient_order_sum", 0),
        "finrep.rep_matrices_s": inclusive("finrep.rep_matrices"),
        "finrep.verify_sl2z_s": inclusive("finrep.verify_sl2z"),
        "finrep.weyl_pairings": observed.get("finrep.weyl_pairings", 0),
        "compactcheck.kac_peterson_sum_s": inclusive("compactcheck.kac_peterson_sum"),
        "wgz.forward_s": inclusive("wgz.wgz_forward"),
        "wgz.inverse_s": inclusive("wgz.wgz_inverse"),
        "wgz.quasi_periodicity_s": inclusive("wgz.quasi_periodicity_residual"),
        "wgz.operators_s": inclusive("wgz.prequantum_S", "wgz.prequantum_T",
                                     "wgz.section_S", "wgz.section_T",
                                     "wgz.apply_finite_fourier", "wgz.weyl_action"),
        "wgz.multiplier_calls": counts.get("wgz.multiplier_eval", 0),
        "wgz.inverse_em_mb": observed.get("wgz.inverse_em_mb", 0.0),
        "heatkernel.verify_conjugation_s": inclusive("heatkernel.verify_conjugation"),
        "heatkernel.mehler_kernel_s": inclusive("heatkernel.mehler_kernel",
                                                "heatkernel.mehler_closed_kernel"),
        "heatkernel.mehler_kernel_calls": count("heatkernel.mehler_kernel"),
        "heatkernel.heat_apply_s": inclusive("heatkernel.heat_apply"),
        "heatkernel.eta_apply_s": inclusive("heatkernel.eta_apply"),
        "bench.self_s": self_s["bench"],
        "trace.wall_s": sum(dur[i] for i in top),
    })
    return out


def spans_json(spans):
    return [{"name": sp[0], "start": sp[1], "end": sp[2], "parent": sp[3],
             "case": sp[4], "error": sp[5]} for sp in spans]
