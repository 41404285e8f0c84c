"""Per-layer tracing of starring, installed from outside the package.

The tracer wraps functions and methods of the seven layer modules and
records one span per wrapped call: name, parent span, start and end.  Spans
stay in memory (four flat arrays) until the run ends; `write` dumps them and
`metrics` turns them into the per-layer figures.

Wrappers replace every binding that callers resolve, not only the one in
the defining module: `harness` and `theorems` import functions by name, so a
wrapper installed only in `geninv` or `classify` would record nothing.
Methods are wrapped on their class, which every caller resolves.

Layers and how they are wrapped:

* starfield: the scalar operations are counted only (no per-call timing,
  which would dominate the run); `FieldDescriptor.parse` is a span.
* matrix: product, adjoint, elimination, token output and parsing are
  spans; equality is counted.
* geninv, classify, theorems, harness, cli: every public function and
  method is a span.  `InverseBundle.cached` counts hits and times each
  miss as a `geninv.memo_build` span; `theorems.evaluate` wraps the entry's
  condition so that each registry entry gets its own span; `harness.generate`
  records one span per element drawn from the stream.

Self time of a span is its duration minus the time its child spans cover.
The two kernel layers (starfield and matrix) are timed inclusively and are
not subtracted from their callers: an entry's self time includes the matrix
products it asks for, but not the shared builds (derived elements, memoized
products, MP inverses of members, projection tests) that other layers own.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "starring"
LAYERS = ("starfield", "matrix", "geninv", "classify", "theorems", "harness", "cli")
KERNEL_LAYERS = ("starfield", "matrix")

# The kernel layers are wrapped selectively: wrapping every scalar helper
# would multiply the traced run time without adding a metric.
KERNEL_TARGETS = {
    "starfield": {
        "Scalar.__mul__": "scalar",
        "Scalar.__add__": "scalar",
        "Scalar.__sub__": "scalar",
        "Scalar.inv": "scalar",
        "Scalar.star": "scalar",
        "FieldDescriptor.parse": "span",
    },
    "matrix": {
        "Matrix.__mul__": "span",
        "Matrix.__eq__": "count",
        "Matrix.star": "span",
        "Matrix.rref": "span",
        "Matrix.try_invert": "span",
        "Matrix.to_tokens": "span",
        "parse_inline": "span",
        "parse_matrix": "span",
    },
}

MEMO_BUILD = "geninv.memo_build"
ENTRY_PREFIX = "theorems.entry."


def package_modules():
    """The loaded modules of the package, itself included."""
    return [m for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")]


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._scalar_busy = [False]
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, name: str, fn):
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _generator_span(self, name: str, fn):
        # One span per element drawn: generating happens lazily inside next().
        traced_next = self._span(name, next)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = traced_next(it)
                except StopIteration:
                    return
                yield item

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_scalar(self, name: str, fn):
        # Scalar subtraction is implemented with addition and negation; only
        # the outermost scalar operation of a nest is counted.
        counts, busy = self.counts, self._scalar_busy

        @functools.wraps(fn)
        def counted(*args):
            if busy[0]:
                return fn(*args)
            counts[name] += 1
            busy[0] = True
            try:
                return fn(*args)
            finally:
                busy[0] = False

        return counted

    def _memo(self, name: str, fn):
        counts = self.counts
        traced_build = self._span(MEMO_BUILD, lambda factory: factory())

        @functools.wraps(fn)
        def cached(bundle, key, factory):
            counts[name] += 1
            return fn(bundle, key, lambda: traced_build(factory))

        return cached

    def _evaluate(self, name: str, fn):
        entries = {}

        def with_traced_condition(entry, bundle):
            known = entries.get(entry.id)
            if known is None or known[0] is not entry:
                condition = self._span(ENTRY_PREFIX + entry.id, entry.condition)
                known = entries[entry.id] = (
                    entry, dataclasses.replace(entry, condition=condition))
            return fn(known[1], bundle)

        return self._span(name, functools.wraps(fn)(with_traced_condition))

    def _sandwich(self, name: str, fn, vacuous):
        counts = self.counts

        def counted_verdict(a, x):
            verdict = fn(a, x)
            if verdict is not vacuous:
                counts["theorems.l28_nonvacuous"] += 1
            return verdict

        return self._span(name, functools.wraps(fn)(counted_verdict))

    # -- installation ------------------------------------------------------

    def _wrapper_for(self, layer: str, qualname: str, fn, kind: str):
        name = f"{layer}.{qualname}"
        if kind == "scalar":
            return self._count_scalar(name, fn)
        if kind == "count":
            return self._count(name, fn)
        if name == "geninv.InverseBundle.cached":
            return self._memo(name, fn)
        if name == "theorems.evaluate":
            return self._evaluate(name, fn)
        if name == "theorems.check_projection_sandwich":
            verdict = sys.modules[PACKAGE + ".theorems"].Verdict
            return self._sandwich(name, fn, verdict.VACUOUS)
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)
        return self._span(name, fn)

    def _targets(self, layer: str, module):
        """(owner, attribute, qualname, kind) for each callable to wrap."""
        if layer in KERNEL_TARGETS:
            for qualname, kind in KERNEL_TARGETS[layer].items():
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                yield owner, attr, qualname, kind
            return
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, name, "span"
            elif inspect.isclass(obj) and not issubclass(obj, (enum.Enum, BaseException)):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if inspect.isfunction(member) or isinstance(member, (classmethod, staticmethod)):
                        yield obj, attr, f"{name}.{attr}", "span"

    def install(self) -> None:
        """Wrap the layer modules of the imported package."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            # not getattr(pkg, layer): the package rebinds `classify` to a function
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for owner, attr, qualname, kind in list(self._targets(layer, module)):
                member = vars(owner)[attr]
                if isinstance(member, (classmethod, staticmethod)):
                    fn = member.__func__
                    wrapped = type(member)(self._wrapper_for(layer, qualname, fn, kind))
                else:
                    fn = member
                    wrapped = self._wrapper_for(layer, qualname, fn, kind)
                self._originals[id(fn)] = fn
                if owner is module:
                    wrappers[id(fn)] = wrapped
                else:
                    self._set(owner, attr, wrapped)
        # Rebind every module-level name that resolves to a wrapped function,
        # wherever it was imported to.
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None and self._originals[id(value)] is value:
                    self._set(module, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrapped_bindings(self) -> list[str]:
        """Names in the package that still resolve to an original function."""
        missed = []
        for module in package_modules():
            owners = [module] + [v for v in vars(module).values()
                                 if inspect.isclass(v) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in vars(owner).items():
                    fn = getattr(value, "__func__", value)
                    if id(fn) in self._originals and self._originals[id(fn)] is fn:
                        missed.append(f"{module.__name__}:{owner.__name__}.{attr}")
        return missed

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def span_tables(self):
        """Per span name: call count, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name in a nest,
        so recursion is not counted twice.  Self time subtracts non-kernel
        children only (see the module docstring).
        """
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        kernel = [n.split(".", 1)[0] in KERNEL_LAYERS for n in self.names]
        n_spans = len(ends)
        dur = [ends[i] - starts[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        builds_under = [0] * n_spans
        memo_build = self._name_ids.get(MEMO_BUILD, -1)
        for i in range(n_spans):
            p = parents[i]
            if p >= 0 and not kernel[names[i]]:
                child[p] += dur[i]
                if names[i] == memo_build:
                    builds_under[p] += 1
        calls, incl, self_s, with_build = Counter(), Counter(), Counter(), Counter()
        for i in range(n_spans):
            key = self.names[names[i]]
            calls[key] += 1
            self_s[key] += dur[i] - child[i]
            if builds_under[i]:
                with_build[key] += 1
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                incl[key] += dur[i]
        return calls, incl, self_s, with_build

    def metrics(self, entry_ids, sep_elements: int, both_invertible: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over everything traced so far: name -> (value, unit)."""
        calls, incl, self_s, with_build = self.span_tables()
        counts = self.counts
        memo_calls = counts["geninv.InverseBundle.cached"]
        l28_calls = calls["theorems.check_projection_sandwich"]
        l28_nonvacuous = counts["theorems.l28_nonvacuous"]
        cli_self = sum(v for k, v in self_s.items() if k.startswith("cli."))
        out = {
            "starfield.scalar_mul_calls": (counts["starfield.Scalar.__mul__"], "count"),
            "starfield.scalar_add_calls": (counts["starfield.Scalar.__add__"]
                                           + counts["starfield.Scalar.__sub__"], "count"),
            "starfield.scalar_inv_calls": (counts["starfield.Scalar.inv"], "count"),
            "starfield.scalar_star_calls": (counts["starfield.Scalar.star"], "count"),
            "starfield.parse_calls": (calls["starfield.FieldDescriptor.parse"], "count"),
            "starfield.parse_s": (incl["starfield.FieldDescriptor.parse"], "s"),
            "matrix.mul_calls": (calls["matrix.Matrix.__mul__"], "count"),
            "matrix.mul_s": (incl["matrix.Matrix.__mul__"], "s"),
            "matrix.star_s": (incl["matrix.Matrix.star"], "s"),
            "matrix.eq_calls": (counts["matrix.Matrix.__eq__"], "count"),
            "matrix.rref_calls": (calls["matrix.Matrix.rref"], "count"),
            "matrix.rref_s": (incl["matrix.Matrix.rref"], "s"),
            "matrix.try_invert_calls": (calls["matrix.Matrix.try_invert"], "count"),
            "matrix.try_invert_s": (incl["matrix.Matrix.try_invert"], "s"),
            "matrix.parse_s": (incl["matrix.parse_inline"] + incl["matrix.parse_matrix"], "s"),
            "matrix.to_tokens_s": (incl["matrix.Matrix.to_tokens"], "s"),
            "geninv.bundle_calls": (calls["geninv.InverseBundle.compute"], "count"),
            "geninv.bundle_s": (incl["geninv.InverseBundle.compute"], "s"),
            "geninv.bundle_self_s": (self_s["geninv.InverseBundle.compute"], "s"),
            "geninv.mp_inverse_s": (incl["geninv.mp_inverse"], "s"),
            "geninv.group_inverse_s": (incl["geninv.group_inverse"], "s"),
            "geninv.verify_s": (incl["geninv.verify_penrose"] + incl["geninv.verify_group"], "s"),
            "geninv.derived_builds": (with_build["geninv.derived_elements"], "count"),
            "geninv.derived_s": (incl["geninv.derived_elements"], "s"),
            "geninv.memo_build_s": (incl[MEMO_BUILD], "s"),
            "geninv.memo_hit_ratio": (
                (memo_calls - calls[MEMO_BUILD]) / memo_calls if memo_calls else 0.0, "ratio"),
            "classify.is_projection_calls": (calls["classify.is_projection"], "count"),
            "classify.is_projection_s": (incl["classify.is_projection"], "s"),
            "theorems.evaluate_calls": (calls["theorems.evaluate"], "count"),
            "theorems.evaluate_self_s": (self_s["theorems.evaluate"], "s"),
        }
        for entry_id in entry_ids:
            out[f"{ENTRY_PREFIX}{entry_id}.self_s"] = (self_s[ENTRY_PREFIX + entry_id], "s")
        out.update({
            "theorems.l31_calls": (calls["theorems.check_left_right_duality"], "count"),
            "theorems.l31_s": (incl["theorems.check_left_right_duality"], "s"),
            "theorems.l28_calls": (l28_calls, "count"),
            "theorems.l28_s": (incl["theorems.check_projection_sandwich"], "s"),
            "theorems.l28_nonvacuous": (l28_nonvacuous, "count"),
            "theorems.l28_useful_ratio": (
                l28_nonvacuous / l28_calls if l28_calls else 0.0, "ratio"),
            "harness.generate_s": (incl["harness.generate"], "s"),
            "harness.sweep_s": (incl["harness.sweep"], "s"),
            "harness.sweep_self_s": (self_s["harness.sweep"], "s"),
            "harness.report_json_s": (incl["harness.VerificationReport.to_json"], "s"),
            "harness.sep_elements": (sep_elements, "count"),
            "harness.both_invertible": (both_invertible, "count"),
            "cli.main_calls": (calls["cli.main"], "count"),
            "cli.main_s": (incl["cli.main"], "s"),
            "cli.self_s": (cli_self, "s"),
        })
        return out

    def write(self, path: str, header: str) -> None:
        """Dump every span as gzip-compressed tab-separated text."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.span_start[0] if self.span_start else 0.0
            for i in range(len(self.span_end)):
                fh.write(f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t{self.span_end[i] - t0:.9f}\n")
