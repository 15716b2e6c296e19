"""Span tracer for the traced pass.

The tracer wraps, from outside the program, the public module-level
functions of the six layer modules plus the rank-oracle boundary
(`RankOracle.rank` and every evaluator's `_rank`). Each wrapped call
records one span: name, start, end, parent span and run id (the index of
the benchmark operation it belongs to). Spans are kept in flat in-memory
arrays and written out only when the run ends. `restore()` puts every
original object back.

A call made through a reference the program stored before installation
(such as `sim._RUNNERS`, which holds `run_exp1` and the other runners) is
not wrapped; its time is self time of the nearest wrapped caller.
"""

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("polymatroid", "mechanisms", "adversary", "credibility", "metrics", "sim")

#: public functions left unwrapped: `polymatroid.rank` only forwards to the
#: `RankOracle.rank` span of the same name, and `sp_rank` is the recursive
#: body of the SP evaluator, whose time belongs to `polymatroid.eval.sp`
UNWRAPPED = {("polymatroid", "rank"), ("polymatroid", "sp_rank")}

#: evaluator span names for the rank oracles the benchmark reports by name;
#: any other subclass with its own `_rank` gets its lower-cased class name
EVALUATOR_NAMES = {
    "LaminarOracle": "laminar",
    "SubstituteCloneOracle": "clone",
    "TreeCutOracle": "tree_cut",
    "SPOracle": "sp",
    "MaxflowOracle": "maxflow",
    "TableOracle": "table",
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _count_price_steps(counters, result, args, kwargs):
    transcript = kwargs.get("transcript", args[3] if len(args) > 3 else None)
    if transcript is not None:
        counters["clinching_auction.price_steps"] += sum(
            1 for e in transcript.events if e["event"] == "price_step"
        )


def _count_events(counters, result, args, kwargs):
    transcript = args[0] if args else kwargs["transcript"]
    counters["verify_transcript.events"] += len(getattr(transcript, "events", ()))


def _count_candidates(counters, result, args, kwargs):
    counters["ghost_candidates.candidates"] += len(result)
    counters["ghost_candidates.picked"] += bool(result)


def _count_certified(counters, result, args, kwargs):
    counters["apply_deviation.agents"] += len(result.undetectable)
    counters["apply_deviation.certified"] += sum(map(bool, result.undetectable.values()))


#: per-span result observers: counts measured where the work happens
OBSERVERS = {
    "mechanisms.clinching_auction": _count_price_steps,
    "credibility.verify_transcript": _count_events,
    "sim.ghost_candidates": _count_candidates,
    "adversary.apply_deviation": _count_certified,
}


class Tracer:
    """Install wrappers, collect spans, restore the program as it was."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self.run_id = 0
        self.on = False
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self, package):
        """Wrap the layer functions of an imported `credmarket` package."""
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        owners = [package, *modules]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or (layer, attr) in UNWRAPPED
                ):
                    continue
                wrapped = self._wrap(fn, f"{layer}.{attr}")
                # rebind every from-import of the same function as well
                for owner in owners:
                    if vars(owner).get(attr) is fn:
                        self._patch(owner, attr, wrapped)
        base = modules[0].RankOracle
        self._patch(base, "rank", self._wrap(base.rank, "polymatroid.rank"))
        for cls in _subclasses(base):
            if "_rank" in vars(cls):
                label = EVALUATOR_NAMES.get(cls.__name__, cls.__name__.lower())
                self._patch(cls, "_rank", self._wrap(cls._rank, f"polymatroid.eval.{label}"))
        self.on = True
        return self

    def restore(self):
        self.on = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording their program calls."""
        on, self.on = self.on, False
        try:
            yield
        finally:
            self.on = on

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        counters = self.counters
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, result, args, kwargs)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def span_arrays(self):
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int32),
            "run": np.array(self.span_run, dtype=np.int32),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
        }

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so that is the part of the
        interval no child span covers.
        """
        spans = self.span_arrays()
        if len(spans["name"]) == 0:
            return {}
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(spans["name"], minlength=k)
        total = np.bincount(spans["name"], weights=dur, minlength=k)
        own = np.bincount(spans["name"], weights=self_time, minlength=k)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.span_arrays())

