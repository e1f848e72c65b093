"""Span tracer for the traced benchmark run.

The library is not modified: the tracer replaces public library functions,
in every ``latticeval`` module namespace that holds them, with wrappers that
record a span per call (name, start, end, parent span, operation id).  Spans
are kept in memory (up to ``MAX_KEPT_SPANS``) and written out when the run
ends; per-layer self time and per-name call counts are accumulated online, so
the metrics cover every span even when the kept list is capped.

Only calls made while an operation is open are recorded; the benchmark's own
input generation and oracle checks run between operations.
"""

from __future__ import annotations

import json
import sys
import time

MAX_KEPT_SPANS = 50_000

# (layer, module, attribute) of every wrapped callable.  The scalar layer is
# reached through operators from every other layer, so only poly_gcd gets a
# span; other scalar arithmetic is charged to the calling layer's self time
# and LaurentPoly multiplications are counted without spans.
WRAPPED = (
    ("scalars", "scalars", "poly_gcd"),
    ("lattices", "lattices", "Lattice.from_generators"),
    ("lattices", "lattices", "Lattice.sum"),
    ("lattices", "lattices", "Lattice.intersect"),
    ("lattices", "lattices", "Lattice.dual"),
    ("lattices", "lattices", "Lattice.contains_lattice"),
    ("lattices", "lattices", "Lattice.transform"),
    ("lattices", "lattices", "Lattice.basis_inverse"),
    ("lattices", "lattices", "matmul"),
    ("metric", "metric", "smith_form"),
    ("metric", "metric", "relative_invariants"),
    ("metric", "metric", "binary_f"),
    ("detval", "detval", "det_poly"),
    ("detval", "detval", "det_scalar"),
    ("detval", "detval", "multi_f"),
    ("detval", "detval", "multi_f_detail"),
    ("detval", "detval", "star_cost"),
    ("closecase", "closecase", "close_witness"),
    ("closecase", "closecase", "close_candidates"),
    ("closecase", "closecase", "extract_triple"),
    ("closecase", "closecase", "decompose"),
    ("closecase", "closecase", "min_formula"),
    ("closecase", "closecase", "max_flow"),
    ("apartment", "apartment", "common_apartment"),
    ("apartment", "apartment", "invert_matrix"),
    ("apartment", "apartment", "kuhn_munkres"),
    ("apartment", "apartment", "apartment_witness"),
    ("apartment", "apartment", "apartment_multi_f"),
    ("subspaces", "subspaces", "rref"),
    ("subspaces", "subspaces", "Subspace.sum"),
    ("subspaces", "subspaces", "Subspace.intersect"),
    ("representatives", "representatives", "multiset_g"),
    ("harness", "harness", "verify_star"),
    ("serialize", "serialize", "instance_from_json"),
    ("serialize", "serialize", "report_to_json"),
    ("cli", "cli", "main"),
)

# lru caches whose hit ratio is reported: metric name -> (module, attribute).
CACHES = {
    "metric.relinv_hit_ratio": ("metric", "relative_invariants"),
    "closecase.candidates_hit_ratio": ("closecase", "close_candidates"),
    "closecase.extract_hit_ratio": ("closecase", "extract_triple"),
    "subspaces.sum_hit_ratio": ("subspaces", "Subspace.sum"),
    "subspaces.intersect_hit_ratio": ("subspaces", "Subspace.intersect"),
}

LAYERS = ("scalars", "lattices", "metric", "detval", "closecase", "apartment",
          "subspaces", "representatives", "harness", "serialize", "cli")

# Per-layer metrics, in the order they are reported, with their units.
# Times and counts are means per operation of the traced run.
PER_LAYER_UNITS = {
    "scalars.gcd_calls": "1/op",
    "scalars.gcd_s": "s/op",
    "scalars.mul_calls": "1/op",
    "lattices.canon_calls": "1/op",
    "lattices.canon_s": "s/op",
    "lattices.intersect_calls": "1/op",
    "lattices.intersect_s": "s/op",
    "lattices.sum_calls": "1/op",
    "lattices.contains_calls": "1/op",
    "lattices.self_s": "s/op",
    "metric.smith_calls": "1/op",
    "metric.smith_s": "s/op",
    "metric.relinv_hit_ratio": "ratio",
    "metric.self_s": "s/op",
    "detval.det_calls": "1/op",
    "detval.multi_f_s": "s/op",
    "detval.multi_f_hit_ratio": "ratio",
    "detval.self_s": "s/op",
    "closecase.witness_s": "s/op",
    "closecase.candidates_hit_ratio": "ratio",
    "closecase.extract_hit_ratio": "ratio",
    "closecase.self_s": "s/op",
    "apartment.common_s": "s/op",
    "apartment.frames_tried": "1/op",
    "apartment.recovered_ratio": "ratio",
    "apartment.km_calls": "1/op",
    "apartment.self_s": "s/op",
    "subspaces.rref_calls": "1/op",
    "subspaces.sum_hit_ratio": "ratio",
    "subspaces.intersect_hit_ratio": "ratio",
    "subspaces.self_s": "s/op",
    "representatives.konig_s": "s/op",
    "representatives.self_s": "s/op",
    "harness.verify_s": "s/op",
    "harness.candidates_examined": "1/op",
    "harness.self_s": "s/op",
    "serialize.load_s": "s/op",
    "serialize.self_s": "s/op",
    "cli.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module, path):
    owner = module
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and counters for calls made inside open operations."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.layer_self = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.kept: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [span id, time covered by children]
        self.next_id = 0
        self.op = None
        self.mul_calls = 0
        self.common_calls = 0
        self.common_found = 0
        self.candidates_examined = 0
        self.cache_start: dict = {}
        self.multi_f_start = 0
        self.ops = 0
        self._caches = {}
        self._multi_f_cache = None

    # -- installation -----------------------------------------------------

    def install(self):
        import latticeval  # noqa: F401  (loads every submodule)

        mods = {m: sys.modules[f"latticeval.{m}"] for m in LAYERS}
        namespaces = [vars(mod) for name, mod in sorted(sys.modules.items())
                      if name == "latticeval" or name.startswith("latticeval.")]
        for metric, (mod, path) in CACHES.items():
            owner, attr = _resolve(mods[mod], path)
            self._caches[metric] = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._multi_f_cache = mods["detval"]._MULTI_F_CACHE
        for layer, mod, path in WRAPPED:
            owner, attr = _resolve(mods[mod], path)
            name = f"{mod}.{path.split('.')[-1]}"
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self._wrap(raw.__func__, layer, name)))
                else:
                    setattr(owner, attr, self._wrap(raw, layer, name))
            else:
                orig = getattr(owner, attr)
                wrapper = self._wrap(orig, layer, name)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            ns[key] = wrapper
        poly = mods["scalars"].LaurentPoly
        mul = poly.__mul__

        def counted_mul(a, b):
            if self.op is not None:
                self.mul_calls += 1
            return mul(a, b)

        poly.__mul__ = counted_mul

    def _wrap(self, func, layer, name):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total_s.append(0.0)
        tracer = self
        clock = time.perf_counter
        special = name in ("apartment.common_apartment", "harness.verify_star")

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return func(*args, **kwargs)
            tracer._enter(idx)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._leave(idx, layer, start, clock())
            if special:
                tracer._inspect(name, result)
            return result

        return wrapper

    def _inspect(self, name, result):
        if name == "apartment.common_apartment":
            self.common_calls += 1
            self.common_found += result is not None
        else:
            self.candidates_examined += result.candidates_examined

    # -- spans ------------------------------------------------------------

    def _enter(self, idx):
        self.calls[idx] += 1
        self.stack.append([self.next_id, 0.0])
        self.next_id += 1

    def _leave(self, idx, layer, start, end):
        sid, covered = self.stack.pop()
        dur = end - start
        self.layer_self[layer] += dur - covered
        self.total_s[idx] += dur
        parent = self.stack[-1]
        parent[1] += dur
        self._keep(sid, parent[0], idx, start, end)

    def _keep(self, sid, parent, idx, start, end):
        if len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append((sid, parent, self.op, idx, start, end))
        else:
            self.dropped += 1

    def begin_op(self, op_id):
        """Open an operation; its root span is the benchmark's own."""
        if not self.cache_start:
            self.cache_start = {k: c.cache_info() for k, c in self._caches.items()}
            self.multi_f_start = len(self._multi_f_cache)
        self.op = op_id
        self.stack.append([self.next_id, 0.0])
        self.next_id += 1
        return time.perf_counter()

    def end_op(self, start):
        end = time.perf_counter()
        sid, covered = self.stack.pop()
        self.layer_self["bench"] += end - start - covered
        self._keep(sid, None, -1, start, end)
        self.op = None
        self.ops += 1

    # -- results ----------------------------------------------------------

    def _calls(self, name):
        return self.calls[self.names.index(name)]

    def _total(self, name):
        return self.total_s[self.names.index(name)]

    def metrics(self):
        """Per-layer metrics as means per operation (ratios as ratios)."""
        ops = max(self.ops, 1)
        hit = {}
        for key, cache in self._caches.items():
            now, then = cache.cache_info(), self.cache_start.get(key)
            hits = now.hits - (then.hits if then else 0)
            misses = now.misses - (then.misses if then else 0)
            hit[key] = hits / (hits + misses) if hits + misses else 0.0
        mf_calls = self._calls("detval.multi_f")
        mf_new = len(self._multi_f_cache) - self.multi_f_start
        per_op = {
            "scalars.gcd_calls": self._calls("scalars.poly_gcd"),
            "scalars.gcd_s": self._total("scalars.poly_gcd"),
            "scalars.mul_calls": self.mul_calls,
            "lattices.canon_calls": self._calls("lattices.from_generators"),
            "lattices.canon_s": self._total("lattices.from_generators"),
            "lattices.intersect_calls": self._calls("lattices.intersect"),
            "lattices.intersect_s": self._total("lattices.intersect"),
            "lattices.sum_calls": self._calls("lattices.sum"),
            "lattices.contains_calls": self._calls("lattices.contains_lattice"),
            "metric.smith_calls": self._calls("metric.smith_form"),
            "metric.smith_s": self._total("metric.smith_form"),
            "detval.det_calls": self._calls("detval.det_poly") + self._calls("detval.det_scalar"),
            "detval.multi_f_s": self._total("detval.multi_f"),
            "closecase.witness_s": self._total("closecase.close_witness"),
            "apartment.common_s": self._total("apartment.common_apartment"),
            "apartment.frames_tried": self._calls("apartment.invert_matrix"),
            "apartment.km_calls": self._calls("apartment.kuhn_munkres"),
            "subspaces.rref_calls": self._calls("subspaces.rref"),
            "representatives.konig_s": self._total("representatives.multiset_g"),
            "harness.verify_s": self._total("harness.verify_star"),
            "harness.candidates_examined": self.candidates_examined,
            "serialize.load_s": self._total("serialize.instance_from_json"),
        }
        for layer in LAYERS:
            per_op[f"{layer}.self_s"] = self.layer_self[layer]
        out = {k: v / ops for k, v in per_op.items()}
        out.update(hit)
        out["detval.multi_f_hit_ratio"] = (mf_calls - mf_new) / mf_calls if mf_calls else 0.0
        out["apartment.recovered_ratio"] = (
            self.common_found / self.common_calls if self.common_calls else 0.0)
        return {k: out[k] for k in PER_LAYER_UNITS if k in out}

    def shares(self, op_time):
        """Each layer's self time, and the benchmark's, as a share of op time."""
        total = op_time or 1.0
        return {k: v / total for k, v in self.layer_self.items()}

    def write(self, path):
        data = {
            "fields": ["span", "parent", "op", "name", "start", "end"],
            "names": self.names + ["bench.op"],
            "layers": self.layer_of + ["bench"],
            "dropped": self.dropped,
            "spans": [
                [s, p, op, idx if idx >= 0 else len(self.names), round(a, 9), round(b, 9)]
                for s, p, op, idx, a, b in self.kept
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
