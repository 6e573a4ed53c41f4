"""Span tracing of a package from the outside, for the benchmark's traced runs.

Every public function of each module of the package, and every public method
of the classes those modules define, is replaced by a wrapper that records a
span: name, start, end, parent span and the benchmark phase it ran in. A
function is patched under its defining module's attribute and under every
name another module of the package bound to it with ``from .x import f``
(``studies`` calls ``bridge.transfer`` through its own name ``transfer``), so
calls made inside the package reach the wrapper too. Nothing in the package
itself is changed; leaving ``Tracer.active`` restores every attribute.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from dataclasses import dataclass, field

# span fields
NAME, START, END, PARENT, PHASE, INFO = range(6)


def package_modules(package) -> list:
    """Every module of ``package``, imported."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def _bindings(modules, original) -> list[tuple[object, str]]:
    """Every (module, attribute) of ``modules`` that holds ``original``."""
    return [
        (mod, attr)
        for mod in modules
        for attr, value in vars(mod).items()
        if value is original
    ]


@contextlib.contextmanager
def swapped(sites):
    """Set each ``(owner, attr, replacement)`` while the block runs, then restore."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in sites]
    for owner, attr, replacement in sites:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def patched(modules, module_name: str, attr: str, make_wrapper):
    """Temporarily replace function ``module_name.attr`` everywhere it is bound.

    ``make_wrapper(current)`` gets the function as currently bound (possibly
    already wrapped) and returns its replacement.
    """
    owner = next(m for m in modules if m.__name__.rsplit(".", 1)[-1] == module_name)
    current = getattr(owner, attr)
    wrapper = make_wrapper(current)
    return swapped([(mod, name, wrapper) for mod, name in _bindings(modules, current)])


class Tracer:
    """Records spans of every public function and method of a package.

    ``probes`` maps a span name to ``probe(args, kwargs, result) -> dict``,
    whose numbers are stored with the span (work counts such as FLOPs).
    """

    def __init__(self, package, probes: dict | None = None):
        self.spans: list[list] = []
        self.phase = None
        self._stack: list[int] = []
        self._probes = probes or {}
        self._sites: list[tuple[object, str, object]] = []  # (owner, attr, wrapper)
        self._plan(package_modules(package))

    def _plan(self, modules) -> None:
        targets = []  # (owner, attr, function, span name)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    targets.append((mod, attr, value, f"{short}.{attr}"))
                elif inspect.isclass(value):
                    for meth, fn in vars(value).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            targets.append((value, meth, fn, f"{short}.{attr}.{meth}"))
        for owner, attr, fn, name in targets:
            wrapper = self._wrap(name, fn)
            sites = [(owner, attr)]
            if not inspect.isclass(owner):
                sites = _bindings(modules, fn)
            self._sites.extend((o, a, wrapper) for o, a in sites)

    def _wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, self._probes.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.phase, None]
            spans.append(span)
            stack.append(idx)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
            return result

        return wrapper

    def call_cost(self, calls: int = 20_000, repeats: int = 5) -> float:
        """Seconds the wrapper adds to one call, measured on a function that
        does nothing (best of ``repeats``); the spans it makes are dropped."""

        def nothing():
            return None

        wrapped = self._wrap("trace.call_cost", nothing)
        first = len(self.spans)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                nothing()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[first:]
        return max(best, 0.0)

    @contextlib.contextmanager
    def active(self, phase):
        """Record spans, tagged with ``phase``, while the block runs."""
        self.phase = phase
        with swapped(self._sites):
            yield


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    info: dict = field(default_factory=lambda: defaultdict(float))


def summarize(spans: list[list], phases) -> dict:
    """Per-name call counts, inclusive and self time, and summed probe numbers.

    Only spans whose phase is in ``phases`` count. A span's self time is its
    duration minus the durations of its direct children.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out: dict[str, NameStats] = defaultdict(NameStats)
    for i, s in enumerate(spans):
        if s[PHASE] not in phases:
            continue
        st = out[s[NAME]]
        dur = s[END] - s[START]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - child_s[i]
        if s[INFO]:
            for k, v in s[INFO].items():
                if isinstance(v, (int, float)):
                    st.info[k] += v
    return out


def ancestor_info(spans: list[list], index: int, key: str):
    """``key`` of the nearest enclosing span whose probe recorded it, else None."""
    p = spans[index][PARENT]
    while p >= 0:
        info = spans[p][INFO]
        if info and key in info:
            return info[key]
        p = spans[p][PARENT]
    return None
