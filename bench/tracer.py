"""Per-layer tracing by wrapping module attributes of parabolic_lab.

A traced function is replaced, in every parabolic_lab module that holds
it, by a wrapper; callers inside the library look the name up in their
module globals at call time, so calls between layers are seen too.
Hot inner calls are not stored one by one: each (name, parent) pair
accumulates a call count, inclusive seconds (outermost activation only,
so recursion is not double counted) and self seconds.  Each job is one
root span.  Functions whose only metric is a call count get a cheaper
counting wrapper that keeps no time and opens no span.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, timed): the layer boundaries the per-layer metrics read
TARGETS = (
    ("polynomials", "charpoly", True),
    ("polynomials", "minimal_polynomial", True),
    ("polynomials", "isolate_largest_root_above", True),
    ("polynomials", "strip_cyclotomic_factors", True),
    ("linalg_exact", "kernel_basis", True),
    ("linalg_exact", "det_exact", True),
    ("linalg_exact", "rank_exact", True),
    ("linalg_exact", "solve_exact", True),
    ("linalg_exact", "mat_mul", True),
    ("linalg_exact", "lll_reduce", True),
    ("linalg_exact", "hnf", True),
    ("torus", "rational_hull", True),
    ("exact", "parse_real", True),
    ("hodge", "hafnian", True),
    ("hodge", "amgm_rigidity_check", True),
    ("isometry", "classify", True),
    ("isometry", "limit_nef_class", True),
    ("lattice", "scan_orthogonal_negatives", True),
    ("surface222", "fiber_cells", True),
    ("surface222", "axis_quadratic", False),
    ("surface222", "involution", True),
    ("surface222", "parabolic_map", True),
    ("surface222", "pair_cell", True),
    ("surface222", "fiber_orbit", True),
    ("surface222", "birkhoff_ergodicity_test", True),
    ("surface222", "sample_point", True),
    ("surface222", "sample_fiber_point", True),
    ("surface222", "eval_test_function", True),
    ("surface222", "ergodicity_contrast", True),
    ("surface222", "_fs_pair", False),
)

PACKAGE = "parabolic_lab"


class Tracer:
    """Aggregated spans keyed by (name, parent name); a context manager."""

    def __init__(self):
        self.stats: dict[tuple[str, str], list] = {}  # -> [calls, inclusive_s, self_s]
        self._stack: list[list] = []  # frames [name, child_seconds]
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _stat(self, name: str, parent: str) -> list:
        key = (name, parent)
        s = self.stats.get(key)
        if s is None:
            s = self.stats[key] = [0, 0.0, 0.0]
        return s

    def _close(self, frame: list, parent: list | None, seconds: float) -> None:
        name = frame[0]
        s = self._stat(name, parent[0] if parent else "-")
        s[0] += 1
        if self._depth[name] == 0:
            s[1] += seconds
        s[2] += seconds - frame[1]
        if parent is not None:
            parent[1] += seconds

    def _timed(self, name: str, fn):
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - t0
                stack.pop()
                depth[name] -= 1
                self._close(frame, parent, seconds)

        return wrapper

    def _counted(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._stat(name, stack[-1][0] if stack else "-")[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def job(self, kind: str, call):
        """Run one job as a root span; returns its result."""
        name = f"job.{kind}"
        self._depth.setdefault(name, 0)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            seconds = time.perf_counter() - t0
            self._stack.pop()
            self._close(frame, None, seconds)

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, timed in TARGETS:
            fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            wrapper = self._timed(name, fn) if timed else self._counted(name, fn)
            for mod in modules:
                if getattr(mod, fn_name, None) is fn:
                    self._patched.append((mod, fn_name, fn))
                    setattr(mod, fn_name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, fn_name, fn in reversed(self._patched):
            setattr(mod, fn_name, fn)
        self._patched.clear()
        return False

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of `name` over all parents."""
        calls = incl = own = 0
        for (n, _), (c, i, s) in self.stats.items():
            if n == name:
                calls += c
                incl += i
                own += s
        return calls, incl, own

    def calls_by_parent(self, name: str) -> dict[str, int]:
        return {p: s[0] for (n, p), s in self.stats.items() if n == name}
