"""In-memory span tracer for the benchmark's traced run.

The tracer wraps callables of the uqwb modules from outside the library:
every call of a wrapped callable becomes one span (name, start, end,
parent span), and per-name call counts and self times (span time minus
the time of its child spans) are accumulated as the spans close.  Spans
are kept in flat arrays and written out once, after the run.

Hooks attached to a wrapped callable update integer counters from the
call's arguments; their own time is charged to no span.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.self_s = []
        self.counters = {}
        self.results = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, hook=None, keep_result=False):
        """A wrapper of fn that records one span per call."""
        nid = self._name_id(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        kept = self.results.setdefault(name, []) if keep_result else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                h0 = clock()
                hook(self, args, kwargs)
                if stack:
                    stack[-1][1] += clock() - h0
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if kept is not None:
                kept.append(result)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installing wrappers ------------------------------------------

    def install(self, modules, methods, hooks, keep):
        """Wrap the public functions of `modules` and the listed methods.

        Each module-level function is replaced under every name that
        binds it in any of `modules` or their package, since functions
        imported by name are looked up where they are bound.  `methods`
        is a list of (module, class name, attribute); static methods stay
        static.  `hooks` maps span names to counter hooks, `keep` lists
        span names whose return values are kept.
        """
        package = sys.modules[modules[0].__name__.rpartition(".")[0]]
        namespaces = list(modules) + [package]
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (short, attr)
                wrapped = self.wrap(name, fn, hooks.get(name), name in keep)
                for ns in namespaces:
                    for a, v in list(vars(ns).items()):
                        if v is fn:
                            self._patch(ns, a, wrapped)
        for mod, cls_name, attr in methods:
            short = mod.__name__.rpartition(".")[2]
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            name = "%s.%s.%s" % (short, cls_name, attr)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = self.wrap(name, fn, hooks.get(name), name in keep)
            self._patch(cls, attr,
                        staticmethod(wrapped) if is_static else wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------

    def totals(self, name):
        """(calls, self seconds) of one span name (0, 0.0 if never seen)."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    def module_self_s(self, prefix):
        return sum(s for n, s in zip(self.names, self.self_s)
                   if n.startswith(prefix + "."))

    def write(self, path):
        """The spans as gzipped column-wise JSON."""
        data = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "counters": self.counters,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)
