"""Timing wrappers around the public functions of each sparselab layer.

The benchmark may not edit the package, so a traced run installs these
wrappers from outside: every module attribute that holds a wrapped function
is replaced (``sparselab.verify.convolve`` as well as
``sparselab.conv.convolve``), and methods are replaced on every
``SequenceSystem`` subclass that defines them.  ``Tracer.restore`` puts the
originals back.  A name the code no longer has is reported as absent.

Each call records a span (name, start, end, parent).  Statistics are kept
online, so they are exact however many calls a run makes; span records are
kept in memory up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _rows(result):
    return result.shape[0]


def _bulk_rows(result):
    return result[0].shape[0]


def _points(result):
    return result.values.size


def _support_size(args, kwargs):
    f = args[1] if len(args) > 1 else kwargs["f"]
    return f.support_indices().size


def _members(result):
    return len(result)


def _lp_iterations(result):
    return result.iterations


def _optimal(result):
    return float(result.status == "optimal")


def _lemma_ok(result):
    return float(bool(result["ok"]))


# (layer, function, is a SequenceSystem method, report "errors",
#  {stat: function of the result}, {stat: function of the arguments},
#  {stat: unit of a mean over calls instead of a per-trial total})
LAYERS = [
    ("sample", "sample_subset", False, False, {}, {}, {}),
    ("sample", "sample_ensemble", False, False, {}, {}, {}),
    ("core", "make_measure", False, False, {}, {}, {}),
    ("systems", "build_system", False, False, {}, {}, {}),
    ("systems", "fiber_matrix", True, False, {"rows": _rows}, {}, {}),
    ("systems", "complete_pair", True, False, {}, {}, {}),
    ("systems", "complete_pairs_bulk", True, False,
     {"rows": _bulk_rows}, {}, {}),
    ("conv", "convolve", False, True, {"points": _points}, {}, {}),
    ("conv", "capped_convolve", False, False, {}, {}, {}),
    ("conv", "count_functional", False, True, {},
     {"support_size": _support_size}, {}),
    ("conv", "split_capped_count", False, True, {}, {}, {}),
    ("verify", "check_properties", False, False, {}, {}, {}),
    ("verify", "sample_anti_uniform", False, False, {}, {}, {}),
    ("transfer", "build_family", False, False, {"members": _members}, {}, {}),
    ("transfer", "solve_dense_model", False, False,
     {"lp_iterations": _lp_iterations, "optimal_frac": _optimal}, {},
     {"optimal_frac": "fraction"}),
    ("transfer", "verify_counting_lemma", False, False,
     {"ok_frac": _lemma_ok}, {}, {"ok_frac": "fraction"}),
    ("oracles", "tuples_within", False, True, {"tuples": _members}, {}, {}),
    ("oracles", "adversary_free_subset", False, False, {}, {}, {}),
    ("oracles", "adversary_colouring", False, False, {}, {}, {}),
    ("cli", "run_sweep", False, False, {}, {}, {}),
]

# span records kept in memory per run; statistics cover every call
SPAN_CAP = 50_000

class _Stat:
    __slots__ = ("calls", "total", "child", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.errors = 0
        self.extra = {}


class Tracer:
    """Installs wrappers, collects spans and per-function statistics."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []          # (span id, name id, start, end, parent id)
        self.span_count = 0
        self.stats = {}
        self.absent = []
        self._stack = []         # [span id, child time] per open call
        self._patched = []       # (owner, attribute, original)
        self.t0 = time.perf_counter()

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every function in LAYERS; returns the names found absent.

        Statistics accumulate across install/restore cycles."""
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package.__name__ or
                                         name.startswith(package.__name__ + "."))]
        for layer, fn, is_method, _, res_x, arg_x, _ in LAYERS:
            qual = f"{layer}.{fn}"
            module = getattr(package, layer, None)
            if module is None:
                self.absent.append(qual)
                continue
            if is_method:
                base = getattr(module, "SequenceSystem", None)
                owners = [c for c in vars(module).values()
                          if isinstance(c, type) and base is not None
                          and issubclass(c, base) and fn in vars(c)]
                if not owners:
                    self.absent.append(qual)
                for cls in owners:
                    original = vars(cls)[fn]
                    self._patch(cls, fn, original,
                                self._wrap(qual, original, res_x, arg_x))
                continue
            original = vars(module).get(fn)
            if not callable(original):
                self.absent.append(qual)
                continue
            wrapper = self._wrap(qual, original, res_x, arg_x)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        return self.absent

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, qual, fn, res_x, arg_x):
        stat = self.stats.setdefault(qual, _Stat())
        name_id = self._name_ids.setdefault(qual, len(self.names))
        if name_id == len(self.names):
            self.names.append(qual)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def _extras(args, kwargs, result):
            for key, get in arg_x.items():
                try:
                    val = get(args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError):
                    continue
                stat.extra[key] = stat.extra.get(key, 0) + val
            if result is None:
                return
            for key, get in res_x.items():
                try:
                    val = get(result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    continue
                stat.extra[key] = stat.extra.get(key, 0) + val

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.child += frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, name_id, start, end, parent))
                _extras(args, kwargs, result)

        return traced

    # -- reporting ----------------------------------------------------------

    def metrics(self, trials):
        """Per-trial per-layer metrics as {name: (value, unit)}."""
        per = 1.0 / max(trials, 1)
        out = {}
        for layer, fn, _, errors, res_x, arg_x, means in LAYERS:
            qual = f"{layer}.{fn}"
            st = self.stats.get(qual) or _Stat()
            out[f"{qual}.calls"] = (st.calls * per, "count/trial")
            out[f"{qual}.self_s"] = ((st.total - st.child) * per, "s/trial")
            out[f"{qual}.total_s"] = (st.total * per, "s/trial")
            if errors:
                out[f"{qual}.errors"] = (st.errors * per, "count/trial")
            for key in list(res_x) + list(arg_x):
                val = st.extra.get(key, 0)
                if key in means:
                    out[f"{qual}.{key}"] = (val / st.calls if st.calls else 0.0,
                                            means[key])
                else:
                    out[f"{qual}.{key}"] = (val * per, "count/trial")
        return out

    def write(self, path):
        """Spans as JSON: times in seconds from the start of tracing."""
        rows = [[i, n, round(s - self.t0, 7), round(e - self.t0, 7), p]
                for i, n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "span_count": self.span_count,
                       "kept": len(rows), "columns": ["id", "name", "start",
                                                      "end", "parent"],
                       "spans": rows}, fh)
