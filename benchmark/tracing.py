"""Per-layer tracing of wittzeta, installed from outside the library.

The layers are the modules of ``wittzeta``.  ``Tracer.install`` replaces
every binding site of each function in ``TARGETS``: the module globals
that import it and the class attributes that hold it, so calls made
inside the library are timed too.  Spans are aggregated by (span, parent)
into calls, total time and self time, which keeps memory bounded however
deep the recursion through nested Witt rings goes.  Nothing is wrapped
per ring element.  ``Tracer.remove`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter_ns

# (layer, span name, defining module, qualified name of the public callable)
TARGETS = (
    ("rings", "series_mul", "wittzeta.rings", "TruncatedSeries.__mul__"),
    ("rings", "series_inverse", "wittzeta.rings", "TruncatedSeries.inverse"),
    ("rings", "series_pow", "wittzeta.rings", "TruncatedSeries.pow_int"),
    ("rings", "series_nth_root", "wittzeta.rings", "TruncatedSeries.nth_root"),
    ("witt", "ghost", "wittzeta.witt", "ghost"),
    ("witt", "ghost_inverse", "wittzeta.witt", "ghost_inverse"),
    ("witt", "witt_mul", "wittzeta.witt", "witt_mul"),
    ("witt", "frobenius", "wittzeta.witt", "frobenius"),
    ("witt", "divide_exact", "wittzeta.witt", "WittRing.divide_exact"),
    ("sigma", "sigma_witt", "wittzeta.sigma", "sigma_witt"),
    ("sigma", "sigma_poly", "wittzeta.sigma", "sigma_poly"),
    ("finitefield", "field_init", "wittzeta.finitefield", "FiniteField.__init__"),
    ("finitefield", "enumerate", "wittzeta.finitefield", "iter_affine_solutions"),
    ("finitefield", "poly_eval", "wittzeta.finitefield", "MultiPoly.evaluate"),
    ("varieties", "point_counts", "wittzeta.varieties", "point_counts"),
    ("varieties", "point_count_by_enumeration", "wittzeta.varieties", "point_count_by_enumeration"),
    ("varieties", "closed_point_counts", "wittzeta.varieties", "closed_point_counts"),
    ("varieties", "brute_sym_count", "wittzeta.varieties", "brute_sym_count"),
    ("zeta", "zeta_from_counts", "wittzeta.zeta", "zeta_from_counts"),
    ("zeta", "sym_zeta", "wittzeta.zeta", "sym_zeta"),
    ("zeta", "zeta_generating_series", "wittzeta.zeta", "zeta_generating_series"),
    ("zeta", "euler_product_zeta", "wittzeta.zeta", "euler_product_zeta"),
    ("zeta", "rational_reconstruct", "wittzeta.zeta", "rational_reconstruct"),
    ("cli", "main", "wittzeta.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS))

# Counts that must repeat exactly when the same problems run again.
EXACT_COUNTS = (
    "rings.coeff_products",
    "witt.newton_steps",
    "witt.max_coeff_bits",
    "finitefield.enumerate.tuples",
    "finitefield.enumerate.solutions",
    "cli.stdout_bytes",
)


def _library_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "wittzeta" or name.startswith("wittzeta."))]


def _binding_sites(objects: set[int]) -> list[tuple[object, str, object]]:
    """Every (owner, attribute, value) in the library whose value is in objects."""
    sites = []
    seen_classes = set()
    for module in _library_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in objects:
                sites.append((module, attr, value))
            if inspect.isclass(value) and value.__module__.startswith("wittzeta") \
                    and id(value) not in seen_classes:
                seen_classes.add(id(value))
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in objects:
                        sites.append((value, cattr, cvalue))
    return sites


def _resolve(module: str, qualname: str):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return obj


def _max_bits(x) -> int:
    """Largest coefficient bit length inside an int, polynomial or Witt value."""
    if isinstance(x, int):
        return abs(x).bit_length()
    inner = getattr(x, "coeffs", None)
    if inner is None:
        inner = x.coords
    return max((_max_bits(c) for c in inner), default=0)


class _CountingStdout:
    """Forwards writes to the real stream and counts the bytes written."""

    def __init__(self, stream, tracer: "Tracer"):
        self._stream = stream
        self._tracer = tracer

    def write(self, text: str) -> int:
        self._tracer.counts["cli.stdout_bytes"] += len(text.encode("utf-8"))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


class Tracer:
    """Span timer and exact counters for one traced pass."""

    def __init__(self):
        self.root = "<root>"
        self._stack: list[list] = []
        self._sites: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self.faults: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[tuple[str, str], list[int]] = {}
        self.shapes: dict[tuple[str, str], list[int]] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.counts = {name: 0 for name in EXACT_COUNTS}
        self.fields: set[tuple] = set()

    # --- spans ---

    def _enter(self, name: str) -> list:
        frame = [name, perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, calls: int) -> int:
        now = perf_counter_ns()
        self._stack.pop()
        duration = now - frame[1]
        parent = self._stack[-1][0] if self._stack else self.root
        record = self.spans.setdefault((frame[0], parent), [0, 0, 0])
        record[0] += calls
        record[1] += duration
        record[2] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _exclude(self, start: int) -> None:
        """Keep bookkeeping that ran since start out of the parent's self time."""
        if self._stack:
            self._stack[-1][2] += perf_counter_ns() - start

    # --- wrappers ---

    def _wrap(self, layer: str, name: str, fn):
        span = f"{layer}.{name}"
        after = _AFTER.get(span)
        shape = _SHAPES.get(span)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                calls, yielded = 1, 0
                while True:
                    frame = tracer._enter(span)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._leave(frame, calls)
                        break
                    except Exception:
                        tracer._leave(frame, calls)
                        tracer.errors[layer] += 1
                        raise
                    tracer._leave(frame, calls)
                    calls = 0
                    yielded += 1
                    yield item
                start = perf_counter_ns()
                after(tracer, args, yielded)
                tracer._exclude(start)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer._leave(frame, 1)
                tracer.errors[layer] += 1
                raise
            duration = tracer._leave(frame, 1)
            if after is not None or shape is not None:
                start = perf_counter_ns()
                if after is not None:
                    after(tracer, args, out)
                if shape is not None:
                    record = tracer.shapes.setdefault((span, shape(args)), [0, 0])
                    record[0] += 1
                    record[1] += duration
                tracer._exclude(start)
            return out
        return wrapper

    def install(self) -> None:
        """Wrap every binding site of every target.

        A target that no longer exists or has no binding site, and a binding
        left unwrapped, is recorded in ``faults`` rather than raised, so the
        run can still report the rest.
        """
        originals = {}
        for layer, name, module, qualname in TARGETS:
            try:
                fn = _resolve(module, qualname)
            except KeyError:
                self._fault(f"{layer}.{name}: {module}.{qualname} not found")
                continue
            originals[id(fn)] = (layer, name, fn)
        sites = _binding_sites(set(originals))
        found = {id(value) for _, _, value in sites}
        for i, (layer, name, _) in originals.items():
            if i not in found:
                self._fault(f"{layer}.{name}: no binding site found")
        wrappers = {}
        for i, (layer, name, fn) in originals.items():
            wrapper = self._wrap(layer, name, fn)
            wrappers[i] = self._count_stdout(wrapper) if layer == "cli" else wrapper
        for owner, attr, value in sites:
            setattr(owner, attr, wrappers[id(value)])
        self._sites = sites
        self._wrappers = list(wrappers.values())
        for owner, attr, _ in _binding_sites(set(originals)):
            self._fault(f"stale binding left unwrapped: {owner!r}.{attr}")

    def _fault(self, text: str) -> None:
        if text not in self.faults:
            self.faults.append(text)

    def _count_stdout(self, wrapped):
        tracer = self

        @functools.wraps(wrapped)
        def main(*args, **kwargs):
            real = sys.stdout
            sys.stdout = _CountingStdout(real, tracer)
            try:
                return wrapped(*args, **kwargs)
            finally:
                sys.stdout = real
        return main

    def remove(self) -> None:
        """Restore every original and check that no wrapper is left."""
        for owner, attr, value in self._sites:
            setattr(owner, attr, value)
        for owner, attr, value in self._sites:
            if vars(owner)[attr] is not value:
                self._fault(f"original not restored: {owner!r}.{attr}")
        for owner, attr, _ in _binding_sites({id(w) for w in self._wrappers}):
            self._fault(f"wrapper left after restore: {owner!r}.{attr}")
        self._sites, self._wrappers = [], []

    # --- results ---

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls and self time per function, errors, counts."""
        out: dict[str, tuple[float, str]] = {}
        for layer, name, _, _ in TARGETS:
            span = f"{layer}.{name}"
            calls = sum(r[0] for (s, _), r in self.spans.items() if s == span)
            self_ns = sum(r[2] for (s, _), r in self.spans.items() if s == span)
            out[f"{span}.calls"] = (calls, "count")
            out[f"{span}.self_s"] = (self_ns / 1e9, "s")
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        c = self.counts
        out["rings.coeff_products"] = (c["rings.coeff_products"], "count")
        out["witt.newton_steps"] = (c["witt.newton_steps"], "count")
        out["witt.max_coeff_bits"] = (c["witt.max_coeff_bits"], "bits")
        tuples, solutions = c["finitefield.enumerate.tuples"], c["finitefield.enumerate.solutions"]
        out["finitefield.enumerate.tuples"] = (tuples, "count")
        out["finitefield.enumerate.solutions"] = (solutions, "count")
        out["finitefield.enumerate.hit_ratio"] = (solutions / tuples if tuples else 0.0, "ratio")
        inits = out["finitefield.field_init.calls"][0]
        out["finitefield.field_init.distinct"] = (len(self.fields), "count")
        out["finitefield.field_init.useful_ratio"] = (len(self.fields) / inits if inits else 0.0, "ratio")
        out["cli.stdout_bytes"] = (c["cli.stdout_bytes"], "bytes")
        return out


def _coeff_products(tracer: Tracer, args, out) -> None:
    n = out.prec
    tracer.counts["rings.coeff_products"] += (n + 1) * (n + 2) // 2


def _coeff_bits(tracer: Tracer, args, out) -> None:
    bits = _max_bits(out)
    if bits > tracer.counts["witt.max_coeff_bits"]:
        tracer.counts["witt.max_coeff_bits"] = bits


def _newton(tracer: Tracer, args, out) -> None:
    tracer.counts["witt.newton_steps"] += len(args[0].coords)
    _coeff_bits(tracer, args, out)


def _field(tracer: Tracer, args, out) -> None:
    field = args[0]
    tracer.fields.add((field.p, field.k, field.modulus.coeffs))


def _enumerated(tracer: Tracer, args, yielded: int) -> None:
    polys, nvars, field = args[:3]
    tracer.counts["finitefield.enumerate.tuples"] += field.size**nvars
    tracer.counts["finitefield.enumerate.solutions"] += yielded


_AFTER = {
    "rings.series_mul": _coeff_products,
    "rings.series_inverse": _coeff_products,
    "witt.ghost": _coeff_bits,
    "witt.ghost_inverse": _newton,
    "witt.witt_mul": _coeff_bits,
    "witt.frobenius": _coeff_bits,
    "witt.divide_exact": _coeff_bits,
    "finitefield.field_init": _field,
    "finitefield.enumerate": _enumerated,
}

# Input shapes for the per-call means printed beside the ROADMAP baseline.
_SHAPES = {
    "witt.witt_mul": lambda args: f"W_{args[0].prec}({args[0].ring!r})",
    "sigma.sigma_witt": lambda args: f"M={args[1]} N={args[0].prec // args[1]}",
    "zeta.rational_reconstruct": lambda args: f"prec={args[0].prec} dmax={args[1]}",
    "varieties.point_counts": lambda args: f"{type(args[0]).__name__} q={args[0].q} R={args[1]}",
}
