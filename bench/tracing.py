"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each module in
`src/fano22/` by timing wrappers.  A wrapper has to sit where callers look
the name up: `suites` imports its helpers by name from `actions`, `maps`
and `sections`, and `constants` imports `parse`, so every binding of a
wrapped function in every `fano22` module, and in every class namespace,
is replaced.

A span is (op id, span id, parent span id, layer, start, end).  A layer's
self time is its span's duration minus the part its child spans cover.
Counts and self times are summed per op in memory; the full spans of the
first `KEEP_OPS` ops are kept too and written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from fano22 import actions, constants, linalg, maps, parsing, poly, sections, suites

#: ops whose individual spans are kept for the trace file
KEEP_OPS = 1


def _nterms(p) -> int:
    return len(p.terms) if isinstance(p, poly.Polynomial) else 1


def _mul_pairs(args, result, seconds) -> dict:
    return {"poly.mul.term_pairs": _nterms(args[0]) * _nterms(args[1])}


def _suite_times(args, result, seconds) -> dict:
    wall = seconds * 1000.0
    checked = sum(c.ms for c in result.checks)
    return {f"suites.{result.suite}.ms": wall, "suites.setup_ms": wall - checked}


def layer_targets() -> list[tuple[str, object, object]]:
    """(layer name, function object, per-call counter hook) for every layer."""
    P = poly.Polynomial
    derived = [name for name, fn in vars(constants.PaperConstants).items()
               if callable(fn) and not name.startswith("_") and name != "o11_space"]
    out = [
        ("parsing.parse", parsing.parse, None),
        ("constants.PaperConstants", constants.PaperConstants.__post_init__, None),
        ("constants.o11_space", constants.PaperConstants.o11_space, None),
        ("poly.mul", P.__mul__, _mul_pairs),
        ("poly.add", P.__add__, None),
        ("poly.substitute", P.substitute, None),
        ("poly.exact_divide", P.exact_divide, None),
        ("poly.derivation", poly.Derivation.__call__, None),
        ("linalg.rank", linalg.ExactMatrix.rank, None),
        ("linalg.kernel", linalg.ExactMatrix.kernel, None),
        ("linalg.det", linalg.ExactMatrix.det, None),
        ("sections.monomial_basis", sections.monomial_basis, None),
        ("sections.section_space", sections.SectionSpace.__init__, None),
        ("sections.coords_in_space", sections.coords_in_space, None),
        ("sections.restricted_order_subspace", sections.restricted_order_subspace, None),
    ]
    out += [(f"actions.{n}", getattr(actions, n), None) for n in (
        "verify_group_law", "lie_derivation", "semi_invariant_lines",
        "stabilizer_conditions", "action_preserves_space")]
    out += [(f"maps.{n}", getattr(maps, n), None) for n in (
        "compose", "proportional_mod", "image_in_hypersurface",
        "equivariance_up_to_scalar", "is_rational_normal_curve", "tangent_parameter")]
    out += [("constants.derived", getattr(constants.PaperConstants, n), None) for n in derived]
    out.append(("suites.run_suite", suites.run_suite, _suite_times))
    return out


#: layer metrics of the `calls` / `self_ms` form
LAYERS = tuple(dict.fromkeys(name for name, _, _ in layer_targets() if name != "suites.run_suite"))


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list[list] = []
        self.next_id = 0
        self.per_op: list[dict] = []   # layer -> [calls, self seconds]
        self.extra: list[dict] = []    # counter -> value (names ending in "ms" are times)
        self.spans: list[tuple] = []
        self._undo: list[tuple] = []

    def begin_op(self) -> None:
        self.op += 1
        self.per_op.append(defaultdict(lambda: [0, 0.0]))
        self.extra.append(defaultdict(float))
        self.stack = [[-1, 0.0]]
        self.next_id = 0
        self.active = True

    def end_op(self) -> None:
        self.active = False

    def _wrap(self, layer, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1]
            frame = [tracer.next_id, 0.0]
            tracer.next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                parent[1] += duration
                acc = tracer.per_op[-1][layer]
                acc[0] += 1
                acc[1] += duration - frame[1]
                if tracer.op < KEEP_OPS:
                    tracer.spans.append((tracer.op, frame[0], parent[0], layer, start, end))
            if hook is not None:
                extra = tracer.extra[-1]
                for name, value in hook(args, result, duration).items():
                    extra[name] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fano22" or name.startswith("fano22."))]
        namespaces = []
        for m in modules:
            namespaces.append(m)
            namespaces += [v for v in vars(m).values()
                           if isinstance(v, type) and v.__module__.startswith("fano22")]
        for layer, fn, hook in layer_targets():
            wrapper = self._wrap(layer, fn, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._undo.append((ns, attr, fn))
                        setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._undo):
            setattr(ns, attr, fn)
        self._undo.clear()

