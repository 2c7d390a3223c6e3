"""Spans around the program's public functions, installed from outside.

``Tracer.install()`` replaces each function named in ``TIMED`` by a wrapper
that records a span (name, start, end, parent span, operation index, work
count, flags), and each name in ``COUNTED`` by a wrapper that only counts
calls (those are too hot to time).  A module-level function is patched
wherever it is looked up: in its defining module and at every
``from ... import`` site that holds the same object.  Methods are patched on
their class.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics and ``write_spans`` saves them when the pass ends.

A span's self time is its duration minus the part of it that its child
spans cover.  Children in one thread never overlap; children started by the
CLI's thread pool do, so coverage is the length of the union of intervals.
A span opened in a pool thread with nothing open in that thread gets the
innermost span of the main thread as its parent.
"""
from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from array import array
from dataclasses import dataclass

#: Timed functions and methods, by module of definition.
TIMED = {
    "algebra": ["parse_poly", "irreducibles", "is_irreducible", "roots_mod",
                "poly_gcd", "poly_xgcd", "poly_crt", "Field.parse"],
    "kinfty": ["kadd", "kmul_scalar", "kmul_poly", "kmul", "truncate", "tmap",
               "kernel_element", "parse_kelem", "frac_ord_vs", "ord_norm",
               "RationalK.digits"],
    "expsum": ["weyl_residues", "weyl_sum", "twisted_sum",
               "fractional_digit_rows", "orthogonality", "ExpPoly.evaluate",
               "ExpPoly.from_json", "ExpPoly.scale_poly"],
    "exponents": ["lucas_binom", "shadow", "kstar", "sprime", "cal_i",
                  "maximal_elements", "ktilde", "derived_sets"],
    "contfrac": ["cf_expand", "convergents", "cf_value", "quality_bound",
                 "approx_quality", "legendre_recover", "dirichlet_approx",
                 "rationality_probe"],
    "weylmachinery": ["weyl_shift_check", "shift_expand", "spacing_check",
                      "space_family", "large_sieve_check", "split_by_kth_power",
                      "kth_power_classes", "minor_arc_probe"],
    "meanvalue": ["profile", "js_naive", "js_histogram", "growth_table"],
    "equidist": ["allowed_depth", "cylinder_counts", "refine_to_parent",
                 "discrepancy", "weyl_scan", "reduce_qp", "cor53_probe"],
    "sieve": ["density", "gm_build", "t_mn", "difference_search"],
    "cli": ["main", "build_parser", "parse_upoly"],
}

#: Count-only wrappers: attribute path -> metric name stem.
COUNTED = {
    "algebra.poly_from_index": "algebra.poly_from_index",
    "algebra.Poly.__mul__": "algebra.Poly.mul",
    "algebra.Poly.__divmod__": "algebra.Poly.divmod",
    "kinfty.RationalK.digit": "kinfty.RationalK.digit",
}

MODULES = tuple(TIMED)

EXT = 1      # flag: the call ran over an extension field (m > 1)
NESTED = 2   # flag: a span of the same name was already open in this thread


def _points_range(f, N, lo=0, hi=None, *_, **__):
    total = f.field.q ** N
    return (total if hi is None else hi) - lo, EXT if f.field.m > 1 else 0


def _rows_range(f, N, depth, lo=0, hi=None, *_, **__):
    return (f.field.q ** N if hi is None else hi) - lo, 0


def _points_tmn(phi, alpha, M, N, field, *_, **__):
    return field.q ** N, 0


def _tuples_js(K, s, N, field, *_, **__):
    return field.q ** (s * N), 0


#: Work counted per call (points, rows, tuples) for a few timed functions.
WORK = {
    "expsum.weyl_sum": _points_range,
    "expsum.fractional_digit_rows": _rows_range,
    "sieve.t_mn": _points_tmn,
    "meanvalue.js_histogram": _tuples_js,
}


@dataclass
class Spans:
    names: list          # name id -> dotted name
    name: array          # per span: name id
    start: array
    end: array
    parent: array        # span index, -1 for a root
    op: array            # index of the operation in the pass
    work: array
    flags: array

    def __len__(self):
        return len(self.start)


def _resolve(path):
    """'expsum.ExpPoly.evaluate' -> (owner object, attribute name)."""
    parts = path.split(".")
    owner = importlib.import_module("ffweyl." + parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.op = -1
        self.counts = {}
        self._names, self._ids = [], {}
        self._cols = Spans([], array("H"), array("d"), array("d"), array("q"),
                           array("q"), array("d"), array("B"))
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._counters = {}
        self._undo = []

    # -- recording --------------------------------------------------------

    def _stack(self):
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = ([], [])
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
            return stack

    def timed(self, name, fn):
        nid = self._ids.setdefault(name, len(self._names))
        if nid == len(self._names):
            self._names.append(name)
        work = WORK.get(name)
        cols, lock, clock = self._cols, self._lock, time.perf_counter

        def wrapper(*args, **kwargs):
            idxs, nids = stack = self._stack()
            if idxs:
                parent = idxs[-1]
                flags = NESTED if nid in nids else 0
            else:
                main = self._main_stack
                parent = main[0][-1] if main is not None and main is not stack \
                    and main[0] else -1
                flags = 0
            w = 0
            if work is not None:
                w, extra = work(*args, **kwargs)
                flags |= extra
            with lock:
                idx = len(cols.start)
                cols.name.append(nid)
                cols.parent.append(parent)
                cols.op.append(self.op)
                cols.work.append(w)
                cols.flags.append(flags)
                cols.end.append(0.0)
                cols.start.append(clock())
            idxs.append(idx)
            nids.append(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                cols.end[idx] = clock()
                idxs.pop()
                nids.pop()

        return wrapper

    def counted(self, name, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()  # count.__next__ is atomic, so pool threads lose no update
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_class_attr(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))

    def install(self):
        makers = {f"{mod}.{path}": lambda fn, n=f"{mod}.{path}": self.timed(n, fn)
                  for mod, paths in TIMED.items() for path in paths}
        makers.update({path: lambda fn, n=stem: self.counted(n, fn)
                       for path, stem in COUNTED.items()})
        originals = {}  # id(module-level function) -> (function, wrapper)
        for full, make in makers.items():
            owner, attr = _resolve(full)
            if isinstance(owner, type):
                self._patch_class_attr(owner, attr, make)
            else:
                fn = getattr(owner, attr)
                originals[id(fn)] = (fn, make(fn))
        # patch every module that holds one of the originals
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        self.counts = {name: next(c) for name, c in self._counters.items()}

    def spans(self):
        cols = self._cols
        cols.names = list(self._names)
        return cols


# ---------------------------------------------------------------------------
# Arithmetic on spans.

def self_times(spans):
    """Duration of each span minus the union of its children's intervals.

    Span indices are allocated in start order, so each parent's children
    arrive sorted by start and one sweep merges their intervals.
    """
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * len(start)
    reach = {}  # parent -> right end of its children's union so far
    for i in range(len(start)):
        p = parent[i]
        if p < 0:
            continue
        s, e = max(start[i], start[p]), min(end[i], end[p])
        lo = max(s, reach.get(p, s))
        if e > lo:
            covered[p] += e - lo
            reach[p] = e
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


#: Per-layer metrics: (name, unit, better).
PER_LAYER = [
    ("expsum.weyl_sum.calls", "count", "lower"),
    ("expsum.weyl_sum.points", "count", "lower"),
    ("expsum.weyl_sum.prime_s", "s", "lower"),
    ("expsum.weyl_sum.ext_s", "s", "lower"),
    ("expsum.weyl_sum.points_per_s", "1/s", "higher"),
    ("expsum.twisted_sum.calls", "count", "lower"),
    ("expsum.twisted_sum.s", "s", "lower"),
    ("expsum.fractional_digit_rows.s", "s", "lower"),
    ("expsum.fractional_digit_rows.rows", "count", "lower"),
    ("expsum.ExpPoly.evaluate.calls", "count", "lower"),
    ("expsum.ExpPoly.evaluate.s", "s", "lower"),
    ("expsum.ExpPoly.from_json.s", "s", "lower"),
    ("expsum.ExpPoly.scale_poly.s", "s", "lower"),
    ("algebra.Field.parse.calls", "count", "lower"),
    ("algebra.Field.parse.s", "s", "lower"),
    ("algebra.poly_gcd.calls", "count", "lower"),
    ("algebra.poly_gcd.s", "s", "lower"),
    ("algebra.Poly.mul.calls", "count", "lower"),
    ("algebra.Poly.divmod.calls", "count", "lower"),
    ("algebra.poly_from_index.calls", "count", "lower"),
    ("algebra.irreducibles.s", "s", "lower"),
    ("algebra.roots_mod.s", "s", "lower"),
    ("kinfty.kadd.calls", "count", "lower"),
    ("kinfty.kadd.s", "s", "lower"),
    ("kinfty.kmul_poly.calls", "count", "lower"),
    ("kinfty.kmul_poly.s", "s", "lower"),
    ("kinfty.RationalK.digit.calls", "count", "lower"),
    ("kinfty.RationalK.digits.s", "s", "lower"),
    ("kinfty.tmap.s", "s", "lower"),
    ("kinfty.kernel_element.s", "s", "lower"),
    ("sieve.gm_build.s", "s", "lower"),
    ("sieve.t_mn.s", "s", "lower"),
    ("sieve.t_mn.points", "count", "lower"),
    ("sieve.difference_search.s", "s", "lower"),
    ("weylmachinery.weyl_shift_check.s", "s", "lower"),
    ("weylmachinery.shift_expand.s", "s", "lower"),
    ("weylmachinery.large_sieve_check.s", "s", "lower"),
    ("weylmachinery.minor_arc_probe.s", "s", "lower"),
    ("contfrac.cf_expand.s", "s", "lower"),
    ("contfrac.approx_quality.s", "s", "lower"),
    ("contfrac.dirichlet_approx.s", "s", "lower"),
    ("contfrac.rationality_probe.s", "s", "lower"),
    ("equidist.weyl_scan.s", "s", "lower"),
    ("equidist.weyl_scan.self_s", "s", "lower"),
    ("equidist.weyl_scan.twists", "count", "lower"),
    ("equidist.cylinder_counts.self_s", "s", "lower"),
    ("equidist.discrepancy.s", "s", "lower"),
    ("equidist.reduce_qp.s", "s", "lower"),
    ("equidist.cor53_probe.s", "s", "lower"),
    ("meanvalue.js_histogram.s", "s", "lower"),
    ("meanvalue.js_histogram.tuples", "count", "lower"),
    ("exponents.derived_sets.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.equidist.threads1_s", "s", "lower"),
    ("cli.equidist.threads2_s", "s", "lower"),
] + [(f"{m}.self_s", "s", "lower") for m in MODULES] + [
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]


def layer_metrics(spans, counts, ops, run_s):
    """Every per-layer metric except trace.overhead_frac, as {name: value}.

    ``<name>.s`` is inclusive time summed over outermost calls (a recursive
    call inside a same-name span is not counted twice); ``<name>.self_s``
    is self time; ``<name>.calls`` counts every call.
    """
    selfs = self_times(spans)
    names = spans.names
    calls, incl, own, work = {}, {}, {}, {}
    weyl_prime = weyl_ext = 0.0
    twists = 0
    module_self = dict.fromkeys(MODULES, 0.0)
    tagged = {op["tag"]: i for i, op in enumerate(ops) if op.get("tag")}
    threads = dict.fromkeys(tagged, 0.0)
    for i in range(len(spans)):
        name = names[spans.name[i]]
        dur = spans.end[i] - spans.start[i]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + selfs[i]
        work[name] = work.get(name, 0) + spans.work[i]
        module_self[name.split(".", 1)[0]] += selfs[i]
        if not spans.flags[i] & NESTED:
            incl[name] = incl.get(name, 0.0) + dur
        if name == "expsum.weyl_sum":
            if spans.flags[i] & EXT:
                weyl_ext += dur
            else:
                weyl_prime += dur
        elif name == "expsum.twisted_sum":
            p = spans.parent[i]
            if p >= 0 and names[spans.name[p]] == "equidist.weyl_scan":
                twists += 1
        elif name == "cli.main":
            for tag, op_index in tagged.items():
                if spans.op[i] == op_index:
                    threads[tag] += dur
    weyl_s = weyl_prime + weyl_ext
    out = {
        "expsum.weyl_sum.prime_s": weyl_prime,
        "expsum.weyl_sum.ext_s": weyl_ext,
        "expsum.weyl_sum.points": work.get("expsum.weyl_sum", 0),
        "expsum.weyl_sum.points_per_s":
            work.get("expsum.weyl_sum", 0) / weyl_s if weyl_s else 0.0,
        "expsum.fractional_digit_rows.rows": work.get("expsum.fractional_digit_rows", 0),
        "sieve.t_mn.points": work.get("sieve.t_mn", 0),
        "meanvalue.js_histogram.tuples": work.get("meanvalue.js_histogram", 0),
        "equidist.weyl_scan.twists": twists,
        "cli.equidist.threads1_s": threads.get("threads1", 0.0),
        "cli.equidist.threads2_s": threads.get("threads2", 0.0),
        "trace.unattributed_s": run_s - sum(
            spans.end[i] - spans.start[i] for i in range(len(spans))
            if spans.parent[i] < 0),
    }
    out.update({f"{m}.self_s": v for m, v in module_self.items()})
    out.update({f"{name}.calls": n for name, n in counts.items()})
    for metric, _, _ in PER_LAYER:
        if metric in out or metric == "trace.overhead_frac":
            continue
        stem, kind = metric.rsplit(".", 1)
        table = {"calls": calls, "s": incl, "self_s": own}[kind]
        out[metric] = table.get(stem, 0)
    return out


def write_spans(spans, path):
    """Save the spans as a compressed NumPy archive."""
    import numpy as np
    np.savez_compressed(
        path, names=np.array(spans.names),
        **{col: np.frombuffer(getattr(spans, col), dtype=getattr(spans, col).typecode)
           for col in ("name", "start", "end", "parent", "op", "work", "flags")})
