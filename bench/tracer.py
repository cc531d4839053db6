"""Span tracer for the traced benchmark run.

The tracer wraps zxcalc's public functions and methods from outside the
package: every module attribute that holds a wrapped function is replaced
(``protocols``, ``cli``, ``rewrite.simplify`` and friends bind ``evaluate``,
``serialize_zxg`` ... by name at import time, so the wrapper has to sit where
each caller looks the name up), and methods are replaced on the class that
defines them.  ``uninstall`` puts every original back.

Per layer it keeps:

* ``calls`` and ``s``: outermost calls only, so a layer calling itself
  (``compose`` calling ``copy``) is not counted twice; ``s`` is inclusive of
  child spans of other layers;
* ``self_s``: span time minus the time of child spans, over all spans;
* layer-specific counters (see ``_EXTRAS``).

Spans (layer, function, start, end, parent index) stay in memory, up to
``MAX_SPANS``; later spans only update the counters.  ``phase`` is not
wrapped: its calls are too fine-grained, so its time shows in its callers'
self time.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

MAX_SPANS = 50_000

# layer -> (module, function names); every zxcalc module attribute bound to
# one of these functions is wrapped
FUNCTIONS = {
    "graph.parse": ("zxcalc.graph", ("parse_zxg",)),
    "graph.serialize": ("zxcalc.graph", ("serialize_zxg", "to_dot")),
    "semantics.evaluate": ("zxcalc.semantics", ("evaluate",)),
    "semantics.spider_tensor": ("zxcalc.semantics", ("spider_tensor",)),
    "semantics.equal": ("zxcalc.semantics", ("equal_up_to_scalar",)),
    "semantics.born": ("zxcalc.semantics", ("born_probability",)),
    "rewrite.simplify": ("zxcalc.rewrite.simplify", ("simplify",)),
    "rewrite.soundness": ("zxcalc.rewrite.soundness", ("check_soundness",)),
    "rewrite.random_diagram": ("zxcalc.rewrite.soundness", ("random_diagram",)),
    "rewrite.replay": ("zxcalc.rewrite.derivations", ("replay_derivation",)),
    "protocols.verify": (
        "zxcalc.protocols",
        ("sdc_verify_all", "sdc_n_ghz_verify", "qkd_check_lemmas"),
    ),
    "protocols.qkd_simulate": ("zxcalc.protocols", ("qkd_simulate",)),
    "cli.main": ("zxcalc.cli", ("main",)),
}

# layer -> Diagram method names
DIAGRAM_METHODS = {
    "graph.query": ("degree", "incident", "neighbors", "edge_count", "self_loops"),
    "graph.validate": ("validate",),
    "graph.build": ("compose", "tensor", "plugged", "copy"),
}

# layer -> RewriteRule method name, wrapped on every rule class defining it
RULE_METHODS = {"rewrite.match": "find_matches", "rewrite.apply": "apply"}


class LayerStats:
    __slots__ = ("calls", "s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra: dict[str, float] = {}

    def bump(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _evaluate_extra(st, args, kwargs, result):
    st.peak("vertices_max", _arg(args, kwargs, 0, "d").num_vertices())


def _spider_extra(st, args, kwargs, result):
    st.peak("legs_max", _arg(args, kwargs, 2, "degree"))


def _match_extra(st, args, kwargs, result):
    st.bump("found", len(result))
    st.bump("hits", 1 if result else 0)
    st.bump("all_calls", 1)


def _simplify_extra(st, args, kwargs, result):
    out, trace = result
    st.bump("steps", len(trace))
    st.peak("out_vertices", out.num_vertices())
    st.peak("out_edges", out.num_edges())


def _soundness_extra(st, args, kwargs, result):
    st.bump("checks", result.checks)
    st.bump("samples", result.samples)


def _qkd_extra(st, args, kwargs, result):
    st.bump("rounds", _arg(args, kwargs, 0, "rounds"))


_EXTRAS = {
    "semantics.evaluate": _evaluate_extra,
    "semantics.spider_tensor": _spider_extra,
    "rewrite.match": _match_extra,
    "rewrite.simplify": _simplify_extra,
    "rewrite.soundness": _soundness_extra,
    "protocols.qkd_simulate": _qkd_extra,
}

LAYERS = tuple(FUNCTIONS) + tuple(DIAGRAM_METHODS) + tuple(RULE_METHODS) + ("cli.process",)


class Tracer:
    """Records spans at zxcalc's public-call boundaries while installed."""

    def __init__(self):
        self.layers = {name: LayerStats() for name in LAYERS}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []  # [child time, span index]
        self._paused = False
        self._restore: list[tuple] = []

    # ------------------------------------------------------------------
    # recording

    def _begin(self, layer: str) -> tuple:
        st = self.layers[layer]
        st.depth += 1
        frame = [0.0, len(self.spans) if len(self.spans) < MAX_SPANS else -1]
        parent = self._stack[-1][1] if self._stack else -1
        self._stack.append(frame)
        return st, frame, parent, time.perf_counter()

    def _end(self, layer: str, name: str, token: tuple) -> None:
        end = time.perf_counter()
        st, frame, parent, start = token
        self._stack.pop()
        st.depth -= 1
        dur = end - start
        if self._stack:
            self._stack[-1][0] += dur
        st.self_s += dur - frame[0]
        if st.depth == 0:
            st.calls += 1
            st.s += dur
        if frame[1] >= 0:
            self.spans.append((layer, name, start, end, parent))
        else:
            self.spans_dropped += 1

    @contextlib.contextmanager
    def span(self, layer: str, name: str = ""):
        """A span opened by the benchmark itself (``cli.process``)."""
        token = self._begin(layer)
        try:
            yield
        finally:
            self._end(layer, name or layer, token)

    @contextlib.contextmanager
    def suspended(self):
        """Let wrapped calls through unrecorded (the benchmark's own checks)."""
        self._paused, before = True, self._paused
        try:
            yield
        finally:
            self._paused = before

    def _wrap(self, layer: str, fn):
        extra = _EXTRAS.get(layer)
        name = fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            token = self._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(layer, name, token)
            if extra is not None:
                extra(self.layers[layer], args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installation

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        import zxcalc.cli  # noqa: F401  (loads every module that gets wrapped)
        from zxcalc.graph import Diagram
        from zxcalc.rewrite.rules import RewriteRule

        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "zxcalc" or n.startswith("zxcalc.")) and m is not None]
        for layer, (home, names) in FUNCTIONS.items():
            for fname in names:
                original = getattr(sys.modules[home], fname)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for layer, names in DIAGRAM_METHODS.items():
            for mname in names:
                self._patch(Diagram, mname, self._wrap(layer, Diagram.__dict__[mname]))
        rule_classes, todo = [], [RewriteRule]
        while todo:
            cls = todo.pop()
            rule_classes.append(cls)
            todo.extend(cls.__subclasses__())
        for layer, mname in RULE_METHODS.items():
            for cls in rule_classes:
                if mname in cls.__dict__:
                    self._patch(cls, mname, self._wrap(layer, cls.__dict__[mname]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # results

    def metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per cycle of the op mix."""
        L = self.layers
        per = 1.0 / max(cycles, 1)
        out: dict[str, float] = {}

        def put(layer, *fields):
            st = L[layer]
            for f in fields:
                out[f"{layer}.{f}"] = getattr(st, f) * per

        for layer in ("graph.query", "graph.serialize", "graph.validate",
                      "graph.build", "graph.parse"):
            put(layer, "calls", "s")
        put("semantics.evaluate", "calls", "self_s")
        out["semantics.evaluate.vertices_max"] = L["semantics.evaluate"].extra.get("vertices_max", 0)
        put("semantics.spider_tensor", "calls", "s")
        out["semantics.spider_tensor.legs_max"] = L["semantics.spider_tensor"].extra.get("legs_max", 0)
        put("semantics.equal", "calls", "s")
        put("semantics.born", "calls", "self_s")

        m = L["rewrite.match"].extra
        put("rewrite.match", "calls", "s")
        out["rewrite.match.found"] = m.get("found", 0) * per
        out["rewrite.match.hit_ratio"] = m.get("hits", 0) / m["all_calls"] if m.get("all_calls") else 0.0
        put("rewrite.apply", "calls", "self_s")

        sx = L["rewrite.simplify"]
        put("rewrite.simplify", "calls", "self_s")
        out["rewrite.simplify.steps"] = sx.extra.get("steps", 0) / sx.calls if sx.calls else 0.0
        out["rewrite.simplify.out_vertices"] = sx.extra.get("out_vertices", 0)
        out["rewrite.simplify.out_edges"] = sx.extra.get("out_edges", 0)

        so = L["rewrite.soundness"]
        out["rewrite.soundness.checks"] = so.extra.get("checks", 0) * per
        out["rewrite.soundness.checks_per_sample"] = (
            so.extra["checks"] / so.extra["samples"] if so.extra.get("samples") else 0.0
        )
        out["rewrite.soundness.self_s"] = so.self_s * per
        out["rewrite.random_diagram.s"] = L["rewrite.random_diagram"].s * per
        put("rewrite.replay", "calls", "self_s")

        put("protocols.verify", "calls", "self_s")
        q = L["protocols.qkd_simulate"]
        out["protocols.qkd_simulate.self_s"] = q.self_s * per
        out["protocols.qkd_simulate.rounds_per_s"] = q.extra.get("rounds", 0) / q.s if q.s else 0.0

        # cli figures are per call, not per cycle, so that a process and an
        # in-process main() for the same argv compare directly
        for layer in ("cli.process", "cli.main"):
            st = L[layer]
            out[f"{layer}.s"] = st.s / st.calls if st.calls else 0.0
        return out
