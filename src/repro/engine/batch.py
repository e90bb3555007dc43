"""Batched query serving over a learning session.

The production framing of the ROADMAP: many clients submit learning
requests against the same dataset — full structure learns at different
significance levels, Markov-blanket queries for different targets — and
most of that traffic is *repeated*.  :class:`BatchServer` is the request
layer that exploits it:

1. every request is normalised (defaults filled, targets resolved to
   indices) and fingerprinted against the session's dataset fingerprint;
2. requests whose fingerprint was already answered — earlier in the same
   batch or in any previous batch — are served from the result cache
   without touching the session;
3. the remainder run on the session, whose sufficient-statistics cache and
   long-lived worker pool make even *non*-identical requests cheap when
   they share tables with earlier ones.

Responses are plain dicts (JSONL-friendly for the ``fastbns`` serving CLIs)
and always report ``fingerprint``, ``cached`` and ``elapsed_s`` so a
client can audit what was recomputed.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping

from .fingerprint import request_fingerprint
from .manifest import RunManifest
from .session import LearningSession

__all__ = ["BatchRequest", "BatchServer", "ParseFailure"]


class ParseFailure:
    """A stream framer's stand-in for a line that failed to parse.

    Framers (the CLI's JSONL reader, the socket transport) sit above the
    serving layers and must keep one bad line from tearing down the
    stream *and* from losing its slot in the response order.  They yield
    a ``ParseFailure`` in the line's position; ``handle`` — on both
    :class:`BatchServer` and :class:`~repro.engine.server.EngineServer`
    — turns it into the uniform error response, so even unparseable
    input shows up in the run manifest and comes back in order.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = str(message)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParseFailure({self.message!r})"

_LEARN_DEFAULTS = {
    "gs": 1,
    "max_depth": None,
    "apply_r4": False,
    "v_structures": "standard",
}
_BLANKET_DEFAULTS = {
    "algorithm": "iamb",
    "max_conditioning": 3,
}


def _as_int(value, what: str) -> int:
    """Coerce a JSON scalar to an int, rejecting bools and fractional
    floats (``int(1.5)`` would silently truncate a client's typo)."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{what}, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what}, got {value!r}") from None


@dataclass(frozen=True)
class BatchRequest:
    """One normalised request: an operation plus canonical parameters.

    ``params`` is a sorted tuple of ``(key, value)`` pairs so the request
    itself is hashable; equivalent user spellings (key order, omitted
    defaults, target by name vs. index) normalise to the same object and
    therefore the same fingerprint.
    """

    op: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def normalise(cls, raw: Mapping, session: LearningSession) -> "BatchRequest":
        d = dict(raw)
        op = d.pop("op", None)
        if op not in ("learn", "blanket"):
            raise ValueError(f"request op must be 'learn' or 'blanket', got {op!r}")
        alpha = float(d.pop("alpha", session.alpha))
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        # Result-affecting session config participates in the fingerprint
        # so two runs with differently-configured engines never produce
        # the same fingerprint for non-equivalent results.
        params: dict[str, object] = {
            "alpha": alpha,
            "dof_adjust": session.dof_adjust,
            "test": str(d.pop("test", session.test)) if op == "learn" else session.test,
        }
        if op == "learn":
            for key, default in _LEARN_DEFAULTS.items():
                params[key] = d.pop(key, default)
            # "auto" engages the adaptive group scheduler; note the spelling
            # participates in the fingerprint as-is — an auto request and a
            # fixed-gs request are distinct cache keys even though their
            # results are bit-identical (the conservative choice).
            # Bounds mirror ``cli._gs_argument``: rejecting gs=0 / negative
            # depths here turns a deep ``learn_skeleton`` ValueError
            # mid-compute into a clean ``error`` response at intake.
            if params["gs"] != "auto":
                params["gs"] = _as_int(params["gs"], "gs must be a positive int or 'auto'")
                if params["gs"] < 1:
                    raise ValueError(f"gs must be >= 1 or 'auto', got {params['gs']}")
            md = params["max_depth"]
            if md is not None:
                md = _as_int(md, "max_depth must be a non-negative int or null")
                if md < 0:
                    raise ValueError(f"max_depth must be >= 0, got {md}")
            params["max_depth"] = md
            params["apply_r4"] = bool(params["apply_r4"])
            if params["v_structures"] not in ("standard", "conservative", "majority"):
                raise ValueError(
                    f"unknown v_structures rule {params['v_structures']!r}"
                )
        else:
            target = d.pop("target", None)
            if target is None:
                raise ValueError("blanket request needs a 'target'")
            if isinstance(target, str):
                target = session.dataset.index_of(target)
            else:
                target = _as_int(target, "target must be a variable name or index")
            if not 0 <= target < session.dataset.n_variables:
                raise ValueError(
                    f"target index {target} out of range for "
                    f"{session.dataset.n_variables} variables"
                )
            params["target"] = target
            for key, default in _BLANKET_DEFAULTS.items():
                params[key] = d.pop(key, default)
            mc = params["max_conditioning"]
            if mc is not None:
                mc = _as_int(mc, "max_conditioning must be a non-negative int or null")
                if mc < 0:
                    raise ValueError(f"max_conditioning must be >= 0, got {mc}")
            params["max_conditioning"] = mc
        if d:
            raise ValueError(f"unknown request fields for op {op!r}: {sorted(d)}")
        return cls(op=op, params=tuple(sorted(params.items())))

    def param_dict(self) -> dict:
        return dict(self.params)

    def fingerprint(self, dataset_fp: str) -> str:
        return request_fingerprint(dataset_fp, self.op, self.param_dict())


class BatchServer:
    """Serve streams of learn/blanket requests over one session.

    The result cache is unbounded by design — payloads are edge lists and
    counters, orders of magnitude smaller than the stats cache's tables;
    a production deployment would bound it the same LRU way.
    """

    def __init__(self, session: LearningSession, store=None) -> None:
        self.session = session
        # Default to the session's store so `LearningSession(store=...)`
        # alone is enough to make the batch layer durable.
        self.store = store if store is not None else getattr(session, "store", None)
        self._results: dict[str, dict] = {}
        self.n_requests = 0
        self.n_computed = 0
        self.n_result_hits = 0
        self.n_store_hits = 0
        self.n_errors = 0

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def handle(self, raw: Mapping | BatchRequest) -> dict:
        """Serve one request; repeat fingerprints return the cached payload.

        A malformed request (unknown op/field, bad target, invalid
        parameter) yields an ``error`` response instead of aborting the
        stream — one client's bad request must not take down the batch.

        Every response carries the same keys — ``op``, ``fingerprint``,
        ``cached``, ``elapsed_s``, ``result``, ``error`` — with exactly one
        of ``result``/``error`` non-``None``, so JSONL consumers switch on
        the ``error`` *value* instead of probing for key presence.
        """
        self.n_requests += 1
        t0 = time.perf_counter()
        if isinstance(raw, ParseFailure):
            self.n_errors += 1
            return {
                "op": None,
                "fingerprint": None,
                "cached": False,
                "elapsed_s": time.perf_counter() - t0,
                "result": None,
                "error": raw.message,
            }
        try:
            req = (
                raw
                if isinstance(raw, BatchRequest)
                else BatchRequest.normalise(raw, self.session)
            )
            fp = req.fingerprint(self.session.fingerprint)
            payload = self._results.get(fp)
            cached = payload is not None
            if cached:
                self.n_result_hits += 1
            else:
                if self.store is not None:
                    payload = self.store.get_result(fp)
                if payload is not None:
                    # A durable hit is a result-cache hit for accounting
                    # (`cached: true` in the response, exact manifest
                    # totals); n_store_hits separates warm-restart reuse
                    # from same-process repeats.
                    self._results[fp] = payload
                    cached = True
                    self.n_result_hits += 1
                    self.n_store_hits += 1
                else:
                    payload = self._compute(req)
                    self._results[fp] = payload
                    self.n_computed += 1
                    if self.store is not None:
                        self.store.put_result(
                            fp, self.session.fingerprint, req.op, payload
                        )
        except (ValueError, KeyError, TypeError, OSError, BrokenExecutor) as exc:
            # OSError: shm exhaustion / transport failures surfaced by a
            # use_shm=True session.  BrokenExecutor: a pool worker died
            # mid-compute (the session already dropped the pool so the
            # next request respawns it).  Both become the same clean
            # error response every other failure gets.
            self.n_errors += 1
            op = raw.get("op") if isinstance(raw, Mapping) else raw.op
            return {
                "op": op if op in ("learn", "blanket") else None,
                "fingerprint": None,
                "cached": False,
                "elapsed_s": time.perf_counter() - t0,
                "result": None,
                "error": str(exc),
            }
        return {
            "op": req.op,
            "fingerprint": fp,
            "cached": cached,
            "elapsed_s": time.perf_counter() - t0,
            "result": payload,
            "error": None,
        }

    def serve_iter(
        self, requests: Iterable[Mapping | BatchRequest], manifest: RunManifest | None = None
    ) -> Iterator[dict]:
        """Serve a request stream lazily, recording into ``manifest``.

        A generator so the CLI can emit each response (and the manifest
        can account for it) as soon as it is computed — an interrupted
        run keeps everything served up to the interrupt.
        """
        for raw in requests:
            resp = self.handle(raw)
            if manifest is not None:
                manifest.add_request(
                    resp["op"],
                    resp["fingerprint"],
                    resp["cached"],
                    resp["elapsed_s"],
                    error=resp["error"],
                )
            yield resp

    def serve(
        self, requests: Iterable[Mapping | BatchRequest], manifest: RunManifest | None = None
    ) -> list[dict]:
        """Serve a request stream in order, recording into ``manifest``."""
        return list(self.serve_iter(requests, manifest=manifest))

    def new_manifest(self, journal=None) -> RunManifest:
        s = self.session
        return RunManifest(
            dataset_fingerprint=s.fingerprint,
            engine={
                "test": s.test,
                "alpha": s.alpha,
                "dof_adjust": s.dof_adjust,
                "n_jobs": s.n_jobs,
                "backend": s.backend,
                "cache_bytes": s.cache_bytes,
            },
            journal=journal,
        )

    def stats(self) -> dict:
        out = {
            "n_requests": self.n_requests,
            "n_computed": self.n_computed,
            "n_result_cache_hits": self.n_result_hits,
            "n_errors": self.n_errors,
            "stats_cache": self.session.cache_stats().as_dict(),
        }
        if self.store is not None:
            out["store"] = {
                "n_store_result_hits": self.n_store_hits,
                "n_skeleton_loads": self.session.n_skeleton_loads,
                "n_skeleton_learns": self.session.n_skeleton_learns,
            }
        return out

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def _compute(self, req: BatchRequest) -> dict:
        p = req.param_dict()
        names = self.session.names
        if req.op == "learn":
            result = self.session.learn(
                alpha=p["alpha"],
                test=p["test"],
                gs=p["gs"],
                max_depth=p["max_depth"],
                apply_r4=p["apply_r4"],
                v_structures=p["v_structures"],
            )
            return {
                "n_variables": len(names),
                "skeleton_edges": result.skeleton.n_edges,
                "directed": sorted(
                    [names[u], names[v]] for u, v in result.cpdag.directed_edges()
                ),
                "undirected": sorted(
                    [names[u], names[v]] for u, v in result.cpdag.undirected_edges()
                ),
                "n_ci_tests": result.n_ci_tests,
            }
        result = self.session.markov_blanket(
            p["target"],
            algorithm=p["algorithm"],
            alpha=p["alpha"],
            max_conditioning=p["max_conditioning"],
        )
        return {
            "target": names[result.target],
            "blanket": sorted(names[v] for v in result.blanket),
            "n_tests": result.n_tests,
        }
