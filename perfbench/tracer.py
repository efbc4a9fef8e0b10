"""Outside-in tracer for conekit.

`Tracer.install` wraps every public function of every conekit module in each
module namespace that binds it (modules import each other's functions by
name, so patching only the home module would miss most calls), plus
numpy.linalg.{eigh,eigvalsh,svd,qr}.  While an op is open, each wrapped call
records a span (name, start, end, parent, op id) in memory; `end_op` folds the
op's spans into per-name counters and self times and drops them.

Hook points that no longer exist (a deleted module or function, or an
observer that no longer understands a function's arguments) are reported as
absent instead of failing the run.
"""

import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

from stats import ratio, self_times

MODULES = ("bipartite", "kraus", "sampling", "membership", "_kernels", "matio", "suites", "cli")
LINALG = ("eigh", "eigvalsh", "svd", "qr")

# Relative tolerance under which a see-saw restart counts as agreeing with
# the best restart of its level.
AGREE_RTOL = 1e-8


def _dims_label(dims):
    return f"{dims.m}x{dims.n}"


# Observers turn a call into a small payload kept with its span.  Those
# keyed "args" read only the arguments, so they also cover calls that raise
# (an 8x8 ppt-stability trial that gives up still costs its time).
OBSERVERS = {
    "suites.rerun_trial": ("args", lambda a, kw, r: (a[0], _dims_label(a[1]), 1)),
    "suites.run_suite": ("result", lambda a, kw, r: (r.suite_id, _dims_label(r.dims), r.trials)),
    "_kernels.seesaw_minimize": ("result", lambda a, kw, r: (int(a[2]), float(r[0]))),
    "matio.atomic_write_text": ("args", lambda a, kw, r: len(a[1].encode())),
    "matio.load_array": ("args", lambda a, kw, r: os.path.getsize(a[0])),
}

_OBSERVER_FAILED = object()


def _observe(observer, args, kwargs, result):
    try:
        return observer(args, kwargs, result)
    except Exception:
        return _OBSERVER_FAILED


class Tracer:
    """Span recorder; disabled until `install` and outside open ops."""

    def __init__(self):
        self.op = None
        self.hooked = set()
        self.modules = set()
        self.broken = set()  # hooks whose observer failed
        self._spans = []
        self._stack = []
        self._patched = []
        self.calls = Counter()
        self.ms = Counter()
        self.self_ms = Counter()
        self.pair_calls = Counter()
        self.raised = Counter()
        self.bytes = Counter()
        self.trial_ms = Counter()
        self.trials = Counter()
        self.restarts = 0
        self.agreeing = 0

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap conekit's public functions and the numpy eigen/SVD/QR solvers."""
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{package.__name__}.{short}")
            except ModuleNotFoundError:
                continue
        self.modules = set(modules)
        names = {}
        for short, mod in modules.items():
            for attr in sorted(vars(mod)):
                fn = getattr(mod, attr)
                if attr.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) == mod.__name__:
                    names.setdefault(fn, f"{short}.{attr}")
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for mod in (package, *modules.values()):
            for attr, fn in list(vars(mod).items()):
                if callable(fn) and not isinstance(fn, type) and fn in wrappers:
                    self._patch(mod, attr, wrappers[fn])
        self.hooked = set(names.values())
        for attr in LINALG:
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                self._patch(np.linalg, attr, self._wrap(f"linalg.{attr}", fn))
                self.hooked.add(f"linalg.{attr}")

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _patch(self, mod, attr, wrapper):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        when, observer = OBSERVERS.get(name, (None, None))
        spans = self._spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Direct recursion (matio.jsonable walks nested lists) is folded
            # into the outermost call's span.
            if self.op is None or (stack and spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, True]
            if when == "args":
                span[5] = _observe(observer, args, kwargs, None)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[6] = False
            if when == "result":
                span[5] = _observe(observer, args, kwargs, result)
            return result

        return traced

    # -- per-op folding -------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        """Close the open op and fold its spans into the counters."""
        self.op = None
        spans = self._spans
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        groups = defaultdict(list)
        for idx, (name, start, end, parent, _, payload, raised) in enumerate(spans):
            dur_ms = (end - start) * 1e3
            self.calls[name] += 1
            self.ms[name] += dur_ms
            self.self_ms[name] += selfs[idx] * 1e3
            parent_name = spans[parent][0] if parent >= 0 else None
            self.pair_calls[(name, parent_name)] += 1
            self.raised[name] += raised
            if payload is _OBSERVER_FAILED:
                self.broken.add(name)
            elif payload is not None:
                if name in ("suites.rerun_trial", "suites.run_suite"):
                    suite, dims, trials = payload
                    self.trial_ms[(suite, dims)] += dur_ms
                    self.trials[(suite, dims)] += trials
                elif name == "_kernels.seesaw_minimize":
                    level, value = payload
                    groups[(parent, level)].append(value)
                else:
                    self.bytes[name] += payload
        for values in groups.values():
            best = min(values)
            slack = AGREE_RTOL * max(1.0, abs(best))
            self.restarts += len(values)
            self.agreeing += sum(1 for v in values if v <= best + slack)
        spans.clear()


# -- per-layer metrics ------------------------------------------------------

CALLS_AND_MS = (
    "bipartite.lift_product_to_target",
    "bipartite.complete_orthonormal_basis",
    "bipartite.osr",
    "bipartite.sr",
    "kraus.validate",
    "kraus.apply",
    "kraus.complete_to_identity",
    "sampling.random_ppt",
    "membership.is_ppt",
    "membership.is_separable_decidable",
    "_kernels.seesaw_minimize",
    "linalg.eigh",
    "linalg.eigvalsh",
    "linalg.svd",
    "linalg.qr",
    "matio.canonical_dumps",
    "matio.load_array",
)
CALLS_ONLY = ("bipartite.partial_transpose", "membership.hermitian_part", "cli.main")
MS_ONLY = (
    "kraus.random_family",
    "kraus.conic_scale",
    "membership.min_sr_k_expectation",
    "membership.is_block_positive_heuristic",
)
# _kernels.restarts_per_call counts kernel calls per call into these; a
# min_sr_k_expectation call at k optimizes k levels, each with its restarts.
MINIMIZERS = ("membership.min_sr_k_expectation", "membership.min_product_expectation")


def metric_names(suite_pairs):
    """Every per-layer metric name, in output order, with its unit."""
    out = [(f"{m}.self_ms", "ms/round") for m in MODULES]
    for hook in CALLS_AND_MS:
        out += [(f"{hook}.calls", "calls/round"), (f"{hook}.ms", "ms/round")]
    out += [(f"{hook}.calls", "calls/round") for hook in CALLS_ONLY]
    out += [(f"{hook}.ms", "ms/round") for hook in MS_ONLY]
    out += [
        ("bipartite.osr.per_trial", "calls/trial"),
        ("kraus.validate.per_apply", "ratio"),
        ("sampling.random_ppt.accept_ratio", "ratio"),
        ("_kernels.restarts_per_call", "ratio"),
        ("_kernels.eigh_per_restart", "ratio"),
        ("_kernels.restart_agree_ratio", "ratio"),
        ("matio.bytes_written", "B/round"),
        ("matio.bytes_read", "B/round"),
    ]
    out += [(f"suites.{suite}.{dims}.ms_per_trial", "ms") for suite, dims in suite_pairs]
    out.append(("trace.overhead", "ratio"))
    return out


def layer_metrics(tracer, rounds, suite_pairs, overhead):
    """Per-round per-layer values; returns (values, absent_names).

    Totals are divided by the number of traced rounds.  A ratio whose base
    is zero in this workload reads 0.  A metric whose hook point is missing
    reads 0 and is listed as absent.
    """
    t = tracer
    values, absent = {}, []

    def need(*hooks):
        return all(h in t.hooked and h not in t.broken for h in hooks)

    def put(name, value, *hooks):
        if hooks and not need(*hooks):
            absent.append(name)
            value = 0.0
        values[name] = 0.0 if value is None else float(value)

    split = module_split(t)
    for mod in MODULES:
        if mod in t.modules:
            put(f"{mod}.self_ms", split.get(mod, 0.0) / rounds)
        else:
            put(f"{mod}.self_ms", 0.0, f"{mod}.<module>")
    for hook in CALLS_AND_MS:
        put(f"{hook}.calls", t.calls[hook] / rounds, hook)
        put(f"{hook}.ms", t.ms[hook] / rounds, hook)
    for hook in CALLS_ONLY:
        put(f"{hook}.calls", t.calls[hook] / rounds, hook)
    for hook in MS_ONLY:
        put(f"{hook}.ms", t.ms[hook] / rounds, hook)

    suite_trials = sum(t.trials.values())
    put("bipartite.osr.per_trial", ratio(t.calls["bipartite.osr"], suite_trials),
        "bipartite.osr", "suites.rerun_trial")
    put("kraus.validate.per_apply", ratio(t.calls["kraus.validate"], t.calls["kraus.apply"]),
        "kraus.validate", "kraus.apply")
    ppt_returns = t.calls["sampling.random_ppt"] - t.raised["sampling.random_ppt"]
    draws = t.pair_calls[("sampling.ginibre", "sampling.random_ppt")]
    put("sampling.random_ppt.accept_ratio", ratio(ppt_returns, draws),
        "sampling.random_ppt", "sampling.ginibre")
    kernel = t.calls["_kernels.seesaw_minimize"]
    minimizer_calls = sum(t.calls[h] for h in MINIMIZERS)
    put("_kernels.restarts_per_call", ratio(kernel, minimizer_calls),
        "_kernels.seesaw_minimize", *MINIMIZERS)
    put("_kernels.eigh_per_restart",
        ratio(t.pair_calls[("linalg.eigh", "_kernels.seesaw_minimize")], kernel),
        "_kernels.seesaw_minimize", "linalg.eigh")
    put("_kernels.restart_agree_ratio", ratio(t.agreeing, t.restarts),
        "_kernels.seesaw_minimize")
    put("matio.bytes_written", t.bytes["matio.atomic_write_text"] / rounds,
        "matio.atomic_write_text")
    put("matio.bytes_read", t.bytes["matio.load_array"] / rounds, "matio.load_array")
    for pair in suite_pairs:
        suite, dims = pair
        put(f"suites.{suite}.{dims}.ms_per_trial", ratio(t.trial_ms[pair], t.trials[pair]),
            "suites.rerun_trial", "suites.run_suite")
    put("trace.overhead", overhead)
    return values, absent


def module_split(tracer):
    """Self milliseconds per conekit module and for numpy.linalg, largest first."""
    totals = Counter()
    for name, ms in tracer.self_ms.items():
        totals[name.split(".")[0]] += ms
    return dict(totals.most_common())
