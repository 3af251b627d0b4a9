"""Spans around calls into the refltower modules, for the traced run.

The tracer wraps each traced function at every place it is bound: the
module that defines it, every refltower module that imported the name,
and, for methods, the class.  A wrapper records one span per call (name,
start, end, parent span, job id) and folds the call into per-function
totals: calls, wall time and self time, which is the span's time minus
the time covered by its child spans.  Calls of the hottest functions are
aggregated per parent span instead of being recorded one by one.

``uninstall`` puts every original object back, so a process that traced
some jobs runs the unmodified program afterwards.
"""

import functools
import os
import sys
import time

# (metric prefix, module, attribute) -- attribute "Class.method" wraps a
# method on the class; the functions are looked up again in every loaded
# refltower module so re-imported names are wrapped too.
TARGETS = (
    ("series.slice_mul", "refltower.series", "_slice_mul_into"),
    ("series.packed_reduce", "refltower.series", "_packed_reduce"),
    ("series.mul", "refltower.series", "FourierSeries.mul"),
    ("series.div", "refltower.series", "FourierSeries.div"),
    ("series.first_difference", "refltower.series", "FourierSeries.first_difference"),
    ("series.to_json", "refltower.series", "FourierSeries.to_json"),
    ("series.from_json", "refltower.series", "FourierSeries.from_json"),
    ("jacobi.member_slice", "refltower.jacobi", "member_slice"),
    ("jacobi.member_hecke_slice", "refltower.jacobi", "member_hecke_slice"),
    ("jacobi.divide_by_member", "refltower.jacobi", "divide_by_member"),
    ("jacobi.phi0_by_division", "refltower.jacobi", "phi0_by_division"),
    ("jacobi.weak_weight0", "refltower.jacobi", "weak_weight0"),
    ("jacobi.theta_A2", "refltower.jacobi", "theta_A2"),
    ("borcherds.exp_layers", "refltower.borcherds", "exp_layers"),
    ("borcherds.hecke_v0", "refltower.borcherds", "hecke_v0"),
    ("borcherds.borcherds_exp", "refltower.borcherds", "borcherds_exp"),
    ("borcherds.borcherds_product_form", "refltower.borcherds", "borcherds_product_form"),
    ("borcherds.compare_lift_product", "refltower.borcherds", "compare_lift_product"),
    ("borcherds.reflective_divisor_scan", "refltower.borcherds", "reflective_divisor_scan"),
    ("lattices.in_dual", "refltower.lattices", "Lattice.in_dual"),
    ("lattices.eichler_invariant", "refltower.lattices", "Lattice.eichler_invariant"),
    ("lattices.disc_reduce", "refltower.lattices", "Lattice.disc_reduce"),
    ("lifting.gritsenko_lift", "refltower.lifting", "gritsenko_lift"),
    ("lifting.closed_form_slice", "refltower.lifting", "closed_form_slice"),
    ("verification.run", "refltower.verification", "run"),
    ("cli.expand_descriptor", "refltower.cli", "expand_descriptor"),
    ("cli.cache", "refltower.cli", "_cached_expand"),
)

# Called often enough that a span per call would cost more than the call.
HOT = {
    "series.slice_mul", "series.packed_reduce", "jacobi.member_slice",
    "jacobi.member_hecke_slice", "lattices.in_dual", "lattices.disc_reduce",
    "lattices.eichler_invariant", "lifting.closed_form_slice",
    "borcherds.hecke_v0",
}


def _cache_bytes(args, kwargs, result):
    from refltower import cli
    desc, window, cache_dir = args
    return os.path.getsize(cli._cache_path(cache_dir, desc, window)) if cache_dir else 0


# Work counts per call: metric suffix -> f(args, kwargs, result).
COUNTERS = {
    "series.slice_mul": {"pairs": lambda a, k, r: len(a[1]) * len(a[2])},
    "series.packed_reduce": {"keys": lambda a, k, r: len(a[0])},
    "series.to_json": {"bytes": lambda a, k, r: len(r)},
    "series.from_json": {"bytes": lambda a, k, r: len(a[1])},
    "jacobi.member_hecke_slice": {"terms": lambda a, k, r: len(r)},
    "borcherds.compare_lift_product": {"terms": lambda a, k, r: r["checked_terms"]},
    "borcherds.reflective_divisor_scan": {"walls": lambda a, k, r: r["wall_count"]},
    "lifting.closed_form_slice": {"terms": lambda a, k, r: len(r)},
    "cli.cache": {"lookups": lambda a, k, r: 1, "hits": lambda a, k, r: int(r[2]),
                  "bytes": _cache_bytes},
}

# Counts taken before the call, because the call consumes its input.
PRE_COUNTERS = {
    "jacobi.divide_by_member": {"terms_in": lambda a, k: sum(len(s) for s in a[0])},
}


def _resolve(module, attr):
    """(owner, name, raw object as stored on the owner)."""
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def bindings():
    """Every (owner, name, raw object, metric) the tracer patches."""
    out = []
    loaded = [m for n, m in sorted(sys.modules.items())
              if n == "refltower" or n.startswith("refltower.")]
    for metric, module, attr in TARGETS:
        owner, name, raw = _resolve(module, attr)
        out.append((owner, name, raw, metric))
        if owner is not sys.modules[module]:
            continue  # a method: bound on its class only
        for mod in loaded:
            for other, val in sorted(vars(mod).items()):
                if val is raw and not (mod is owner and other == name):
                    out.append((mod, other, raw, metric))
    return out


def binding_name(owner, name):
    return "%s.%s" % (owner.__name__.replace("refltower.", ""), name)


class Tracer:
    def __init__(self):
        self.stats = {}  # metric -> {"calls", "total_s", "self_s", counters...}
        self.binding_calls = {}  # "module.name" -> calls through that binding
        self.spans = []  # [id, name, start, end, parent, job]
        self.hot = {}  # (parent span id, name) -> [calls, total_s]
        self.job = None
        self._stack = []  # [span id, child time] per open span
        self._next_id = 1
        self._patched = []

    # -- patching -------------------------------------------------------

    def install(self):
        for owner, name, raw, metric in bindings():
            self.stats.setdefault(metric, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            key = binding_name(owner, name)
            self.binding_calls.setdefault(key, 0)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, metric, key))
            else:
                new = self._wrap(raw, metric, key)
            setattr(owner, name, new)
            self._patched.append((owner, name, raw))

    def uninstall(self):
        for owner, name, raw in reversed(self._patched):
            setattr(owner, name, raw)
        self._patched = []

    def _wrap(self, fn, metric, key):
        stats = self.stats[metric]
        pre = PRE_COUNTERS.get(metric, {})
        post = COUNTERS.get(metric, {})
        for n in list(pre) + list(post):
            stats.setdefault(n, 0)
        hot = metric in HOT
        stack = self._stack
        clock = time.perf_counter
        binding_calls = self.binding_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for n, f in pre.items():
                stats[n] += f(args, kwargs)
            parent = stack[-1][0] if stack else 0
            if hot:
                sid = parent  # children of a hot call fold into its parent span
            else:
                sid = self._next_id
                self._next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                stats["calls"] += 1
                stats["total_s"] += dt
                stats["self_s"] += dt - frame[1]
                binding_calls[key] += 1
                if hot:
                    agg = self.hot.setdefault((parent, metric), [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                else:
                    self.spans.append([sid, metric, t0, t1, parent, self.job])
            for n, f in post.items():
                stats[n] += f(args, kwargs, result)
            return result

        return traced

    # -- output ---------------------------------------------------------

    def dump(self):
        return {
            "stats": self.stats,
            "bindings": self.binding_calls,
            "spans": self.spans,
            "hot": [[p, n, c, t] for (p, n), (c, t) in sorted(self.hot.items())],
        }
