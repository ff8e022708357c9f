"""Span recorder for the traced benchmark run.

``Tracer.install`` rebinds every public function of the listed ``homharm``
modules, in every ``homharm`` module namespace that holds it (so names a
module imported from another, such as ``transforms.wigner_d_stack``, are
covered too), to a wrapper that records one span per call: name, start,
end, parent span and op id.  Spans stay in memory until ``save``.
``uninstall`` puts the original functions back, so untraced ops run the
library untouched.

Self time is a span's duration minus the time covered by its direct child
spans.  For the functions in ``KEYED`` the wrapper also hashes the
arguments, so ``repeat_frac`` can count calls that repeat an earlier call of
the same op.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = ("groups", "harmonics", "transforms", "fields", "spectral_conv",
           "nonlin", "se_kernels", "checks")

# functions whose argument repeats are counted, and whose output bytes are
# summed (the Wigner tables)
KEYED = ("harmonics.wigner_d_stack", "harmonics.clebsch_gordan")
TABLE_BYTES = ("harmonics.wigner_d_stack",)


def _freeze(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        arr = np.asarray(value)
        return (arr.dtype.str, arr.shape, arr.tobytes())
    return value


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "repeats", "out_bytes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.repeats = 0
        self.out_bytes = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: list[_Stat] = []
        self._rebound: list[tuple] = []
        self._stack: list[list] = []      # [child_s, span_index] per open call
        self._seen: dict[int, set] = {}
        self._next_span = 0
        self.op = -1
        self.top_s = 0.0
        # span columns
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("i")
        self._targets: dict[int, tuple] = {}   # id(fn) -> (fn, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"homharm.{short}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    self._targets[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))

    # -- installation ---------------------------------------------------

    def install(self):
        if self._rebound:
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "homharm" or name.startswith("homharm.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self._targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in self._rebound:
            setattr(mod, attr, value)
        self._rebound = []

    # -- ops --------------------------------------------------------------

    def begin_op(self, op: int):
        self.op = op
        self.top_s = 0.0
        self._seen = {}

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stat = _Stat()
        self.stats.append(stat)
        keyed = name in KEYED
        sizes = name in TABLE_BYTES
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keyed:
                key = (tuple(_freeze(a) for a in args)
                       + tuple((k, _freeze(v)) for k, v in sorted(kwargs.items())))
                seen = self._seen.setdefault(nid, set())
                if key in seen:
                    stat.repeats += 1
                else:
                    seen.add(key)
            parent = stack[-1] if stack else None
            frame = [0.0, self._next_span]
            self._next_span += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if parent is None:
                    self.top_s += dur
                else:
                    parent[0] += dur
                self.span_id.append(frame[1])
                self.span_name.append(nid)
                self.span_start.append(t0)
                self.span_end.append(t1)
                self.span_parent.append(-1 if parent is None else parent[1])
                self.span_op.append(self.op)
            if sizes:
                stat.out_bytes += sum(a.nbytes for a in result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- results ----------------------------------------------------------

    def function_stats(self) -> dict:
        """Totals over every traced op, per recorded function."""
        return {name: {"calls": s.calls, "total_s": s.total_s,
                       "self_s": s.self_s, "repeats": s.repeats,
                       "out_bytes": s.out_bytes}
                for name, s in zip(self.names, self.stats)}

    def save(self, path: str):
        np.savez(path, names=np.array(self.names),
                 id=np.frombuffer(self.span_id, dtype=np.int64),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 op=np.frombuffer(self.span_op, dtype=np.int32))
