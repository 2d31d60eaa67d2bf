"""In-memory span tracer that wraps functions from outside the program.

A wrapped function records a span per call: its duration, and its self time,
which is the duration minus the time covered by wrapped calls made inside it.
Spans are aggregated by name as they close and kept in memory; nothing is
written until the caller asks for ``stats_dict()``.

Wrapping rebinds every module attribute and class attribute that refers to
the original object, so calls made through a ``from module import name``
binding are traced as well as calls through the defining module.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


class Stat:
    __slots__ = ("calls", "items", "self_s", "total_s", "active")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = 0  # open spans of this name; total_s counts the outermost only


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # One [child_seconds] cell per open span, innermost last.
        self._stack: list[list[float]] = []

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    # -- spans -----------------------------------------------------------

    def _run(self, stat: Stat, fn, args, kwargs):
        """Call fn inside a span accounted to stat."""
        frame = [0.0]
        self._stack.append(frame)
        stat.active += 1
        clock = self.clock
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stat.active -= 1
            self._stack.pop()
            stat.self_s += elapsed - frame[0]
            if not stat.active:
                stat.total_s += elapsed
            if self._stack:
                self._stack[-1][0] += elapsed

    def _iterate(self, stat: Stat, gen):
        """Re-yield gen, timing every resumption and counting the items.

        The span covers the whole iteration: each step until exhaustion runs
        inside it, while the consumer's work between steps does not.
        """
        try:
            while True:
                try:
                    item = self._run(stat, next, (gen,), {})
                except StopIteration:
                    return
                stat.items += 1
                yield item
        finally:
            gen.close()

    def span_wrapper(self, name, fn, name_of=None):
        """A wrapper that records a span per call of fn.

        name_of(args) may give a per-call span name instead of name.  A
        returned generator is re-yielded so its iteration is traced too.
        """
        tracer = self
        fixed = tracer._stat(name) if name_of is None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat = fixed if fixed is not None else tracer._stat(name_of(args))
            stat.calls += 1
            result = tracer._run(stat, fn, args, kwargs)
            if inspect.isgenerator(result):
                return tracer._iterate(stat, result)
            return result

        return wrapper

    def count_wrapper(self, name, fn):
        """A wrapper that only counts calls, for functions too cheap to time."""
        stat = self._stat(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr, name, *, count_only=False, name_of=None):
        """Wrap owner.attr and rebind every reference to it.

        owner is a module or a class.  For a module, every loaded module of
        owner's top-level package that bound the same object is rebound.
        For a class, every class attribute that is the same object (such as
        ``__rmul__ = __mul__``) is rebound.  A wrapped ``lru_cache`` function
        keeps answering ``cache_info()`` from the original.
        """
        original = inspect.getattr_static(owner, attr)
        if count_only:
            wrapper = self.count_wrapper(name, original)
        else:
            wrapper = self.span_wrapper(name, original, name_of)
        for method in ("cache_info", "cache_clear"):
            if hasattr(original, method):
                setattr(wrapper, method, getattr(original, method))
        if inspect.isclass(owner):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
            return wrapper
        prefix = owner.__name__.split(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
        return wrapper

    # -- results ---------------------------------------------------------

    def stats_dict(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "items": s.items,
                "self_s": s.self_s,
                "total_s": s.total_s,
            }
            for name, s in sorted(self.stats.items())
        }
