"""Span tracing by rebinding intraport's entry-point names at run time.

Caller modules import layer functions by name (`from .qsim import
_apply_gates`), so a span around every call into a layer needs the name
rebound in each caller module, not only in the defining one.  Nothing in
the program is edited: `Tracer.attached()` swaps wrappers in and restores
every original on exit, and a name a later version renames or removes is
reported as absent instead of failing the run.

A span is (id, name, site, parent id, operation id, start ns, end ns,
attrs); spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """Rebind `module`.`attr` (a dotted attr reaches a class method)."""

    module: str
    attr: str
    span: str
    attrs: Optional[Callable] = None  # (args, kwargs, result) -> dict

    @property
    def site(self) -> str:
        return self.module.rsplit(".", 1)[-1]


def _kernel_attrs(args, kwargs, result):
    return {"n": args[1], "gates": len(args[2])}


def _first_arg_n(args, kwargs, result):
    return {"n": args[0]}


def _solve_attrs(args, kwargs, result):
    max_gates = args[3] if len(args) > 3 else kwargs.get("max_gates", 10)
    return {"n": args[0], "max_gates": max_gates,
            "found": None if result is None else len(result)}


_KERNEL = "qsim._apply_gates"

TARGETS = (
    Target("intraport.cli", "main", "cli.main"),
    Target("intraport.eavesdrop", "run_experiment", "eavesdrop.run_experiment"),
    Target("intraport.cli", "run_experiment", "eavesdrop.run_experiment"),
    Target("intraport.eavesdrop", "run_trial", "eavesdrop.run_trial", _first_arg_n),
    Target("intraport.eavesdrop", "relocated_case", "protocol.relocated_case"),
    Target("intraport.eavesdrop", "post_swap_plan", "protocol.post_swap_plan"),
    Target("intraport.cli", "post_swap_plan", "protocol.post_swap_plan"),
    Target("intraport.cli", "run_scenario", "protocol.run_scenario"),
    Target("intraport.search", "solve_bob_program", "search.solve_bob_program", _solve_attrs),
    Target("intraport.cli", "solve_bob_program", "search.solve_bob_program", _solve_attrs),
    Target("intraport.search", "_Task.verify", "search.verify"),
    Target("intraport.protocol", "parse_circuit", "circuit.parse_circuit"),
    Target("intraport.cli", "parse_circuit", "circuit.parse_circuit"),
    Target("intraport.qsim", "_apply_gates", _KERNEL, _kernel_attrs),
    Target("intraport.protocol", "_apply_gates", _KERNEL, _kernel_attrs),
    Target("intraport.search", "_apply_gates", _KERNEL, _kernel_attrs),
    Target("intraport.eavesdrop", "_apply_gates", _KERNEL, _kernel_attrs),
    Target("intraport.eavesdrop", "random_qubit", "qsim.random_qubit"),
    Target("intraport.cli", "random_qubit", "qsim.random_qubit"),
    Target("intraport.eavesdrop", "make_state", "qsim.make_state"),
    Target("intraport.protocol", "make_state", "qsim.make_state"),
    Target("intraport.cli", "make_state", "qsim.make_state"),
    Target("intraport.eavesdrop", "channel_fidelity", "qsim.channel_fidelity"),
    Target("intraport.protocol", "channel_fidelity", "qsim.channel_fidelity"),
    Target("intraport.cli", "channel_fidelity", "qsim.channel_fidelity"),
    Target("intraport.protocol", "factor_all", "qsim.factor_all"),
    Target("intraport.cli", "factor_all", "qsim.factor_all"),
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if not callable(getattr(owner, leaf)):
        raise AttributeError(f"{target.module}.{target.attr} is not callable")
    return owner, leaf


class Tracer:
    """Collects spans while attached; `op_id` tags spans with the operation."""

    ROOT = "bench.op"

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.op_id: object = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def _record(self, name, site, fn, args, kwargs, attrs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        result = None
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs, result)
                except (TypeError, IndexError, AttributeError, KeyError):
                    extra = None
            self.spans.append((sid, name, site, parent, self.op_id, t0, t1, extra))

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(target.span, target.site, fn, args, kwargs, target.attrs)
        return traced

    def op(self, op_id, fn: Callable[[], object]):
        """Run one benchmark operation under a root span."""
        self.op_id = op_id
        return self._record(self.ROOT, "perfbench", fn, (), {}, None)

    @contextmanager
    def attached(self):
        saved = []
        self.absent = []
        try:
            for target in self.targets:
                try:
                    owner, leaf = _resolve(target)
                except (ImportError, AttributeError):
                    self.absent.append(f"{target.module}.{target.attr}")
                    continue
                saved.append((owner, leaf, leaf in vars(owner), getattr(owner, leaf)))
                setattr(owner, leaf, self._wrap(getattr(owner, leaf), target))
            yield self
        finally:
            for owner, leaf, own, original in reversed(saved):
                if own:
                    setattr(owner, leaf, original)
                else:
                    delattr(owner, leaf)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s[3], []).append((s[5], s[6]))
    out = {}
    for s in spans:
        start, end = s[5], s[6]
        covered = 0
        cursor = start
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s[0]] = (end - start) - covered
    return out
