"""In-memory span tracer that wraps genquot's public functions from outside.

Spans are recorded at the module boundaries of the package: each wrapped
function records (id, name, start, end, parent, run id) when it returns.
Nothing inside `src/` is changed; `Tracer.install` rebinds every reference
to a wrapped function in every loaded `genquot` module (the defining module
and each module that imported it by name), and `Tracer.uninstall` restores
the originals.

Worker threads of the suite pool start with an empty span stack; their top
spans take the active `experiments.run_suite` span as parent, so self times
stay attributed to the layer that caused the work.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

# (module, function) pairs wrapped in a traced run; the span name is
# "<layer>.<function>" with the layer being the module's last component.
TRACED = (
    ("genquot.experiments", "run_suite"),
    ("genquot.experiments", "write_report"),
    ("genquot.snumbers", "gelfand_bracket"),
    ("genquot.snumbers", "min_over_shifts"),
    ("genquot.snumbers", "gelfand_sum_bracket"),
    ("genquot.snumbers", "hs_of_normalized"),
    ("genquot.constructions", "find_l1_subspace"),
    ("genquot.constructions", "find_l2_subspace"),
    ("genquot.constructions", "verify_witness"),
    ("genquot.constructions", "complementation_norm"),
    ("genquot.body", "operator_norm"),
    ("genquot.body", "body_norm"),
    ("genquot.body", "body_norm_many"),
    ("genquot.body", "radii"),
    ("genquot.body", "volume_ratio"),
    ("genquot.body", "mean_width"),
    ("genquot.body", "make_body"),
    ("genquot.linprog", "solve_lp"),
    ("genquot.sampler", "gaussian_matrix"),
    ("genquot.sampler", "haar_subspace"),
    ("genquot.linalg", "svd"),
    ("genquot.linalg", "orthonormalize"),
)

SUITE_SPAN = "experiments.run_suite"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    work: int = 0  # pivots for solve_lp, points for body_norm_many
    cpu: float = 0.0  # process CPU seconds, run_suite only


def _work_of(name: str, args: tuple, result) -> int:
    if name == "linprog.solve_lp":
        return int(result.iterations)
    if name == "body.body_norm_many":
        return len(args[1])
    return 0


class Tracer:
    """Collects spans in memory; one instance per traced benchmark run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._suite_span: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        parent = stack[-1] if stack else self._suite_span
        sid = next(self._ids)
        is_suite = name == SUITE_SPAN
        if is_suite:
            outer_suite, self._suite_span = self._suite_span, sid
            cpu0 = time.process_time()
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            # a span whose call raised is kept, with no work counted
            span = Span(sid, name, start, end, parent, self.run,
                        0 if result is None else _work_of(name, args, result))
            if is_suite:
                self._suite_span = outer_suite
                span.cpu = time.process_time() - cpu0
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "genquot" or k.startswith("genquot."))]
        for modname, attr in TRACED:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(f"{modname.rsplit('.', 1)[1]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                             for c in children.get(s.id, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
