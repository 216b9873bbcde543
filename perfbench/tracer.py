"""Span tracer that wraps coexsim's public functions from the outside.

Each target is named by its defining module and qualified name, e.g.
``coexsim.ranlink.UplinkSimulator.step``.  The tracer resolves the original
function object, then finds every ``coexsim.*`` module attribute and every
class attribute in those modules that is bound to that very object, and
rebinds each one to a timing wrapper.  Matching by identity means a change
of import style (``from .x import f`` versus ``x.f``) cannot bypass a
wrapper.  A target that resolves to nothing, or that no attribute is bound
to, raises ``TracerError``.

Spans live in memory as tuples ``(name_index, start_ns, end_ns, parent,
run_id)``; ``parent`` is the index of the enclosing span or -1.  The tracer
is single-threaded: the scenario loop and the dataset pipeline run in one
thread with one caller.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
import time


PACKAGE = "coexsim"


class TracerError(RuntimeError):
    pass


def _resolve(target: str):
    """The function object a dotted target names."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                raise TracerError(f"{target}: {attr!r} not found")
        # Class attributes are read from __dict__ so a plain function comes
        # back unbound and can be compared by identity.
        space = vars(owner)
        if parts[-1] not in space:
            raise TracerError(f"{target}: {parts[-1]!r} not found")
        func = space[parts[-1]]
        if not inspect.isfunction(func):
            raise TracerError(f"{target}: not a plain function")
        return func
    raise TracerError(f"{target}: no importable module")


def _bindings(func) -> list[tuple[object, str]]:
    """Every (module or class, attribute) in the package bound to ``func``."""
    found = []
    seen_classes = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                found.append((module, attr))
            elif (inspect.isclass(value) and id(value) not in seen_classes
                  and value.__module__.startswith(PACKAGE)):
                seen_classes.add(id(value))
                for cattr, cvalue in vars(value).items():
                    if cvalue is func:
                        found.append((value, cattr))
    return found


class Tracer:
    """Context manager: wraps targets on enter, restores them on exit.

    ``targets`` maps a dotted function name to an optional counter
    ``f(args, kwargs, result) -> dict[str, float]`` whose values are summed
    per function (for example rows per call or bytes written).
    """

    def __init__(self, targets: dict):
        self.targets = dict(targets)
        self.names = list(self.targets)
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counts: dict[str, dict[str, float]] = {n: {} for n in self.names}
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, index: int, func, counter):
        spans = self.spans
        stack = self._stack
        counts = self.counts[self.names[index]]
        clock = time.perf_counter_ns

        def open_span() -> int:
            spans.append((index, clock(), 0, stack[-1] if stack else -1,
                          self.run_id))
            slot = len(spans) - 1
            stack.append(slot)
            return slot

        def close_span(slot: int) -> None:
            stack.pop()
            s = spans[slot]
            spans[slot] = (s[0], s[1], clock(), s[3], s[4])

        def record(args, kwargs, result) -> None:
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0.0) + value

        if inspect.isgeneratorfunction(func):
            # A generator's work happens on each resume, so each resume is
            # a span; the consumer's span is its parent.
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    slot = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(slot)
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            slot = open_span()
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(slot)
            record(args, kwargs, result)
            return result
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for index, name in enumerate(self.names):
                func = _resolve(name)
                sites = _bindings(func)
                if not sites:
                    raise TracerError(f"{name}: no {PACKAGE} attribute is bound to it")
                wrapper = self._wrap(index, func, self.targets[name])
                for owner, attr in sites:
                    self._patched.append((owner, attr, func))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            owner, attr, func = self._patched.pop()
            setattr(owner, attr, func)

    # -- analysis -----------------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per span: duration minus the durations of its direct children.

        Spans nest strictly in one thread, so the children of a span cover
        disjoint parts of its interval and their durations can be summed.
        """
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write_csv(self, path) -> None:
        own = self.self_times_ns()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "name", "start_ns", "end_ns", "self_ns",
                             "parent", "run_id"])
            for i, (idx, start, end, parent, run_id) in enumerate(self.spans):
                writer.writerow([i, self.names[idx], start, end, own[i], parent, run_id])
