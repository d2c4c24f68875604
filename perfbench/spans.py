"""Outside-in tracing of the solver's layers.

`Tracer.install` replaces each traced public function by a wrapper at every
module of the package that holds it, because the modules bind these names at
import (`from .profiles import edge_min_profile`), so patching the defining
module alone would miss most calls.  Only public names are touched, so the
tracer keeps working when the solver's private helpers and caches change.

Each wrapped call records a span (metric name, call site, start, end, parent
span).  Spans are kept in flat arrays in memory and written out once, after
the request.  A few very cheap functions are only counted, because timing a
~1 us call would cost more than the call itself.  Span times are wall times:
they include the host-speed bursts (`hostspeed.py`) that fall inside them,
about 4% of any span longer than the bursts' period.
"""
from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from time import perf_counter

PACKAGE = "evacregret"

# (defining module, public name, metric, record distinct argument tuples)
SPANNED = (
    ("worst_case", "eval_left_single", "worst_case.eval_left_single", False),
    ("worst_case", "eval_left_pair", "worst_case.eval_left_pair", False),
    ("worst_case", "eval_left_pair_inner", "worst_case.eval_left_pair_inner", False),
    ("profiles", "edge_min_profile", "profiles.edge_min_profile", True),
    ("profiles", "edge_min_profile_single", "profiles.edge_min_profile_single", True),
    ("envelopes", "left_envelope_raw", "envelopes.envelope_raw", True),
    ("envelopes", "right_envelope_raw", "envelopes.envelope_raw", True),
    ("pwl", "max_difference_all", "pwl.max_difference_all", False),
    ("pwl", "merge_max", "pwl.merge_max", False),
    ("pwl", "merge_min_total", "pwl.merge_min_total", False),
    ("pwl", "upper_envelope", "pwl.upper_envelope", False),
    ("pwl", "canonical", "pwl.canonical", False),
    ("evacuation", "theta_min_on_edge", "evacuation.theta_min_on_edge", False),
    ("evacuation", "optimal_sink", "evacuation.optimal_sink", False),
    ("evacuation", "theta", "evacuation.theta", False),
    ("path_model", "parse_instance", "path_model.parse_instance", False),
)
# (module, class, public method, metric, record distinct argument tuples)
SPANNED_METHODS = (
    ("worst_case", "RegretSolver", "vertex_regret", "worst_case.vertex_regret", True),
)
COUNTED = (
    ("path_model", "prefix_weight", "path_model.prefix_weight"),
    ("path_model", "min_capacity", "path_model.min_capacity"),
)
# calls into evacuation issued by the solver's witness replay
REPLAY_SITE = f"{PACKAGE}.worst_case"
REPLAY_METRICS = ("evacuation.optimal_sink", "evacuation.theta")
REQUEST = "request"


class Tracer:
    """Span recorder for one request in one process."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self._labels: list[tuple[str, str]] = []  # label id -> (metric, site)
        self._label_ids: dict[tuple[str, str], int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.outermost = array("b")  # no enclosing span of the same metric
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.counts: dict[str, int] = {}
        self.pieces: list[int] = []  # sizes of edge_min_profile results
        self.pinned = 0  # edge_min_profile_single calls with lo == hi
        self._restore: list[tuple[object, str, object]] = []

    # -- recording

    def _label_id(self, metric: str, site: str) -> int:
        key = (metric, site)
        if key not in self._label_ids:
            self._label_ids[key] = len(self._labels)
            self._labels.append(key)
        return self._label_ids[key]

    def _open(self, label: int, metric: str) -> int:
        idx = len(self.start)
        self.label.append(label)
        self.parent.append(self._stack[-1] if self._stack else -1)
        depth = self._depth.get(metric, 0)
        self.outermost.append(depth == 0)
        self._depth[metric] = depth + 1
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, metric: str, t0: float, t1: float) -> None:
        self._stack.pop()
        self._depth[metric] -= 1
        self.start[idx] = t0
        self.end[idx] = t1

    def span(self, metric: str, fn, site: str, distinct: bool, key_tag: str = ""):
        """A wrapper around `fn` recording one span per call."""
        label = self._label_id(metric, site)
        keys = self.keys.setdefault(metric, set()) if distinct else None
        on_result = self._on_result.get(metric)

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add((key_tag, args, tuple(sorted(kwargs.items()))))
            idx = self._open(label, metric)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, metric, t0, perf_counter())
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, metric: str, fn):
        counts = self.counts
        counts.setdefault(metric, 0)

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _edge_profile_result(self, args, kwargs, result) -> None:
        self.pieces.append(result.size)

    def _single_profile_result(self, args, kwargs, result) -> None:
        alpha_range = kwargs["alpha_range"] if "alpha_range" in kwargs else args[4]
        if alpha_range[0] == alpha_range[1]:
            self.pinned += 1

    _on_result = {
        "profiles.edge_min_profile": _edge_profile_result,
        "profiles.edge_min_profile_single": _single_profile_result,
    }

    def request(self, fn):
        """Run `fn()` as the request's root span; return its result."""
        label = self._label_id(REQUEST, "")
        idx = self._open(label, REQUEST)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self._close(idx, REQUEST, t0, perf_counter())

    # -- installing

    def install(self) -> None:
        """Wrap every traced function at every module of the package that
        binds it.  Each site gets its own wrapper, so the site is recorded."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]

        def sites_of(fn):
            return [
                (m, attr) for m in modules for attr, value in vars(m).items()
                if value is fn
            ]

        def public(mod_name: str, attr: str):
            # a name a later version no longer has is left out; it reads 0 calls
            return getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr, None)

        for mod_name, attr, metric, distinct in SPANNED:
            fn = public(mod_name, attr)
            for module, bound in sites_of(fn) if fn else ():
                self._patch(module, bound, self.span(metric, fn, module.__name__, distinct, attr))
        for mod_name, attr, metric in COUNTED:
            fn = public(mod_name, attr)
            for module, bound in sites_of(fn) if fn else ():
                self._patch(module, bound, self.counter(metric, fn))
        for mod_name, cls_name, attr, metric, distinct in SPANNED_METHODS:
            cls = public(mod_name, cls_name)
            fn = vars(cls).get(attr) if cls else None
            if fn:
                self._patch(cls, attr, self.span(metric, fn, cls.__qualname__, distinct))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results

    def summary(self) -> dict:
        """Per-metric totals for this request (sums; ratios are formed by the
        caller over all requests of a run)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}

        def row(metric: str) -> dict:
            return out.setdefault(metric, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

        replay = {"calls": 0, "total_s": 0.0}
        label_metric = [metric for metric, _ in self._labels]
        label_replay = [
            site == REPLAY_SITE and metric in REPLAY_METRICS
            for metric, site in self._labels
        ]
        opt_label = {i for i, m in enumerate(label_metric) if m == "evacuation.optimal_sink"}
        edge_label = {i for i, m in enumerate(label_metric) if m == "evacuation.theta_min_on_edge"}
        edges_under_opt = 0
        for i in range(n):
            metric = label_metric[self.label[i]]
            dur = self.end[i] - self.start[i]
            acc = row(metric)
            acc["calls"] += 1
            acc["self_s"] += dur - child[i]
            if self.outermost[i]:
                acc["total_s"] += dur
            if label_replay[self.label[i]]:
                replay["calls"] += 1
                replay["total_s"] += dur
            p = self.parent[i]
            if self.label[i] in edge_label and p >= 0 and self.label[p] in opt_label:
                edges_under_opt += 1
        for metric, keys in self.keys.items():
            row(metric)["distinct"] = len(keys)
        out["worst_case.replay"] = replay
        row("evacuation.optimal_sink")["edges"] = edges_under_opt
        row("profiles.edge_min_profile")["pieces_sum"] = sum(self.pieces)
        row("profiles.edge_min_profile")["pieces_max"] = max(self.pieces, default=0)
        row("profiles.edge_min_profile_single")["pinned"] = self.pinned
        for metric, count in self.counts.items():
            out[metric] = {"calls": count}
        return out

    def write(self, path: str) -> None:
        """All spans as gzipped tab-separated rows:
        request, span, parent, metric, site, start_s, end_s."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("request\tspan\tparent\tmetric\tsite\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                metric, site = self._labels[self.label[i]]
                fh.write(
                    f"{self.request_id}\t{i}\t{self.parent[i]}\t{metric}\t{site}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )
