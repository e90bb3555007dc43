"""In-memory span recorder that wraps the package's public entry points.

The benchmark traces from its own files: :meth:`SpanRecorder.install`
replaces each target with a timing wrapper — a method on its class, a
function at *every* module attribute under ``repro`` that binds it (so
``from ..core.skeleton import learn_skeleton`` sites are covered too) —
and :meth:`SpanRecorder.uninstall` puts the originals back.

A span is ``[name, start, end, parent, n]``: ``perf_counter`` bounds (the
monotonic clock, comparable across processes on one host), the index of
the enclosing span in the same thread's list (``-1`` for a root) and one
per-span work count whose meaning depends on the layer (tests evaluated,
superset found, redundant tests).  Self time is computed afterwards by
subtracting each span's children, see :func:`self_times`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections.abc import Callable, Iterable, Sequence
from time import perf_counter

START, END, PARENT, COUNT = 1, 2, 3, 4


def _n_sets(args, _out) -> int:
    return len(args[3])


def _n_sets_groups(args, _out) -> int:
    return sum(len(item[2]) for item in args[1])


def _found(_args, out) -> int:
    return int(out is not None)


def _redundant(_args, out) -> int:
    return int(out[2].n_redundant_tests)


#: ``(span name, module, attribute path, count hook)`` for every traced
#: entry point.  Count hooks receive ``(args, result)``.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("server.handle", "repro.engine.server", "EngineServer.handle", None),
    ("batch.handle", "repro.engine.batch", "BatchServer.handle", None),
    ("session.spinup", "repro.engine.session", "LearningSession.__init__", None),
    ("session.learn", "repro.engine.session", "LearningSession.learn", None),
    ("session.blanket", "repro.engine.session", "LearningSession.markov_blanket", None),
    ("core.skeleton", "repro.core.skeleton", "learn_skeleton", _redundant),
    ("core.orient", "repro.core.orientation", "orient_skeleton", None),
    ("core.blanket", "repro.core.markov_blanket", "iamb", None),
    ("core.blanket", "repro.core.markov_blanket", "grow_shrink", None),
    ("citests", "repro.citests.tablebase", "ContingencyTableTest.test", lambda a, o: 1),
    ("citests", "repro.citests.tablebase", "ContingencyTableTest.test_group", _n_sets),
    ("citests", "repro.citests.tablebase", "ContingencyTableTest.test_groups", _n_sets_groups),
    ("statscache.lookup", "repro.engine.statscache", "CachedTableBuilder.ci_counts", None),
    (
        "statscache.superset_scan",
        "repro.engine.statscache",
        "SufficientStatsCache.find_dense_superset",
        _found,
    ),
)


class SpanRecorder:
    """Per-thread span lists behind wrappers of the :data:`TARGETS`."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list[list]] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _state(self) -> tuple[list[list], list[int]]:
        try:
            return self._local.state
        except AttributeError:
            spans: list[list] = []
            with self._lock:
                self._threads.append(spans)
            self._local.state = (spans, [])
            return self._local.state

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self._state()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, out)
            return out

        return traced

    def threads(self) -> list[list[list]]:
        """Every thread's span list (a snapshot of the outer list)."""
        with self._lock:
            return list(self._threads)

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for name, module, path, count in targets:
            mod = importlib.import_module(module)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original, count))
                continue
            original = getattr(mod, attr)
            wrapper = self.wrap(name, original, count)
            for site in list(sys.modules.values()):
                if not getattr(site, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``spans`` is one thread's list (parents precede children, as the
    recorder appends them), so children never overlap one another.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def summarize(
    threads: Iterable[Sequence[Sequence]],
    window: tuple[float, float] | None = None,
) -> dict[str, dict[str, float]]:
    """Per-name ``{calls, total_s, self_s, n}`` over every thread's spans.

    ``window`` keeps only spans that start inside ``[t0, t1]``.  Summed
    self time over all names is the wall time the traced layers account
    for.
    """
    layers: dict[str, dict[str, float]] = {}
    for spans in threads:
        own = self_times(spans)
        for s, self_s in zip(spans, own, strict=True):
            if window is not None and not window[0] <= s[START] <= window[1]:
                continue
            rec = layers.setdefault(s[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0})
            rec["calls"] += 1
            rec["total_s"] += s[END] - s[START]
            rec["self_s"] += self_s
            rec["n"] += s[COUNT]
    return layers
