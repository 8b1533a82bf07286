"""Span tracing around the package's layer boundaries, from outside the package.

Tracer.install() replaces each traced name at the place the calling code
looks it up (for example hypobgk.cli.certify, because cli binds certify
at import), records one span per call, and uninstall() puts every
original back.  Spans stay in memory and are written once by dump().

A span is (id, name, start, end, parent, command, value).  Parents are
kept per thread; a span opened on a thread with no open span (a sweep
worker) gets the current command's root span as parent.  value carries a
per-call quantity computed from array sizes, such as the cube of an
augmented generator's dimension.

summarize() turns spans into per-name call counts, summed values and
self times: a span's duration minus the part of it that its children
cover, summed over threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

ROOT = "cli.main"
COMPLEX_BYTES = 16


def _grid_points(args, kwargs, result) -> int:
    k_values = args[1] if len(args) > 1 else kwargs["k_values"]
    sigma_values = args[2] if len(args) > 2 else kwargs["sigma_values"]
    return len(k_values) * len(sigma_values)


def _generator_dim3(args, kwargs, result) -> int:
    """dim**3 of one augmented generator, the scale of its expm cost."""
    return int(result.shape[0]) ** 3


def _step_bytes(args, kwargs, result) -> int:
    """Bytes of step matrices one evolve call reads (computed, not measured)."""
    prop = args[0]
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    if dt == 0.0:
        return 0
    dim = (prop.levels + 1) * prop.lattice.M
    return (prop.lattice.K + 1) * dim * dim * COMPLEX_BYTES


def targets():
    """(owner, attribute, span name, value function) for every traced name."""
    import hypobgk.cli as cli
    import hypobgk.lyapunov as lyapunov
    import hypobgk.propagation as propagation
    from hypobgk.models import CollisionFrequencyModel
    from hypobgk.state import StateStack

    return [
        (cli, "load_config", "cli.load_config", None),
        (cli, "_write_csv", "cli.write_csv", None),
        (cli, "certify", "lyapunov.certify", None),
        (cli, "verify_grid", "lyapunov.verify_grid", _grid_points),
        (cli, "project_initial", "models.project_initial", None),
        (cli, "entropy_series", "analysis.entropy_series", None),
        (cli, "check_envelope", "analysis.check_envelope", None),
        (cli, "entropy_envelope", "analysis.envelope", None),
        (cli, "affine_derivative_envelope", "analysis.envelope", None),
        (cli, "affine_uniform_envelope", "analysis.envelope", None),
        (cli, "taylor_derivative_envelope", "analysis.envelope", None),
        (lyapunov, "rate_block", "lyapunov.rate_block", None),
        (lyapunov, "alpha_limit", "lyapunov.alpha_limit", None),
        (lyapunov, "build_operators", "spectral.build_operators", None),
        (propagation, "build_operators", "spectral.build_operators", None),
        (propagation, "augmented_generator", "propagation.augmented_generator",
         _generator_dim3),
        (propagation.ExactPropagator, "step_matrix", "propagation.step_matrix",
         None),
        (propagation.ExactPropagator, "evolve", "propagation.evolve", _step_bytes),
        (StateStack, "__post_init__", "state.stack_init", None),
        (CollisionFrequencyModel, "__post_init__", "models.model_init", None),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple] = []
        self._command = -1
        self._root = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, value=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            amount = 0
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if value is not None:
                    amount = value(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent,
                                   self._command, amount))
        return traced

    def install(self) -> None:
        for owner, attr, name, value in targets():
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._span(name, original, value))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def run_command(self, command: int, fn, *args):
        """Call fn(*args) as the root span of one CLI command."""
        self._command = command
        self._root = next(self._ids)
        stack = self._stack()
        stack.append(self._root)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((self._root, ROOT, start, end, 0, command, 0))
            self._root = 0

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed value and self time in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, name, start, end, _, _, value in spans:
        kids = children.get(sid)
        covered = 0.0
        if kids:
            covered = _covered([(max(lo, start), min(hi, end))
                                for lo, hi in kids if hi > start and lo < end])
        row = out.setdefault(name, {"calls": 0, "value": 0, "self_s": 0.0})
        row["calls"] += 1
        row["value"] += value
        row["self_s"] += (end - start) - covered
    return out
