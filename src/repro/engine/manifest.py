"""Per-run manifests for batch serving.

A batch run is a first-class artifact: the manifest records what was asked
(request fingerprints), what was actually computed versus served from the
result cache, how long each request took, and the exact state of the
engine's caches at the end — enough to audit a run, diff two runs, or
reproduce one (the dataset fingerprint pins the inputs).  Written as a
single JSON document next to the results file by ``fastbns serve`` and
``fastbns batch`` (inside the server's run document).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping

__all__ = ["RunManifest", "merge_totals", "shutdown_doc", "recovered_manifest_doc"]

MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """Everything needed to account for one batch-serving run.

    ``journal`` is an optional durable sink (a
    :class:`~repro.engine.store.ManifestJournal`): when set, every row
    appended here is *also* written through to the store the moment its
    response exists, so a crash mid-stream leaves an exact audit trail
    instead of losing the write-at-exit JSON document.
    """

    dataset_fingerprint: str
    engine: dict = field(default_factory=dict)
    requests: list[dict] = field(default_factory=list)
    created_unix: float = field(default_factory=time.time)
    journal: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Running totals, summed in row order exactly as a rescan would
        # (``elapsed_s`` starts from the int 0 of ``sum``), so ``totals``
        # is O(1) and byte-identical to the rollup over ``requests``.
        self._n_cached = self._n_errors = 0
        self._elapsed_s = 0
        for row in self.requests:
            self._tally(row)

    def _tally(self, row: dict) -> None:
        self._n_cached += 1 if row["cached"] else 0
        self._n_errors += 1 if "error" in row else 0
        self._elapsed_s += row["elapsed_s"]

    def add_request(
        self,
        op: str | None,
        fingerprint: str | None,
        cached: bool,
        elapsed_s: float,
        error: str | None = None,
    ) -> None:
        # Both clocks, deliberately: t_wall anchors the row in real time,
        # t_mono makes rows replay-orderable within the process even
        # across wall-clock adjustments (NTP steps, DST) — the durable
        # journal needs an order that cannot run backwards.
        entry = {
            "op": op,
            "fingerprint": fingerprint,
            "cached": bool(cached),
            "elapsed_s": float(elapsed_s),
            "t_wall": time.time(),
            "t_mono": time.monotonic(),
        }
        if error is not None:
            entry["error"] = error
        self.requests.append(entry)
        self._tally(entry)
        if self.journal is not None:
            self.journal.append(
                {
                    "kind": "request",
                    "dataset_fingerprint": self.dataset_fingerprint,
                    **entry,
                }
            )

    # ------------------------------------------------------------------ #
    # rollups & serialisation
    # ------------------------------------------------------------------ #
    def totals(self) -> dict:
        n = len(self.requests)
        return {
            "n_requests": n,
            "n_computed": n - self._n_cached - self._n_errors,
            "n_result_cache_hits": self._n_cached,
            "n_errors": self._n_errors,
            "elapsed_s": self._elapsed_s,
        }

    def to_dict(self, cache_stats: Mapping | None = None) -> dict:
        out = {
            "manifest_version": MANIFEST_VERSION,
            "created_unix": self.created_unix,
            "dataset_fingerprint": self.dataset_fingerprint,
            "engine": dict(self.engine),
            "totals": self.totals(),
            "requests": list(self.requests),
        }
        if cache_stats is not None:
            out["stats_cache"] = dict(cache_stats)
        return out

    def write(self, path: str | Path, cache_stats: Mapping | None = None) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(cache_stats), indent=2) + "\n")
        return path


def merge_totals(totals: Iterable[Mapping]) -> dict:
    """Sum per-manifest request rollups into one document.

    The multi-dataset :class:`~repro.engine.server.EngineServer` keeps one
    manifest per session (live or already evicted); its run-level totals
    are the exact sum of the per-session ones plus the unrouted-error log,
    which this helper computes so the two views cannot drift.
    """
    out = {
        "n_requests": 0,
        "n_computed": 0,
        "n_result_cache_hits": 0,
        "n_errors": 0,
        "elapsed_s": 0.0,
    }
    for t in totals:
        for key in out:
            out[key] += t[key]
    return out


def recovered_manifest_doc(journal_rows: Iterable[Mapping]) -> dict | None:
    """Rebuild a retired-manifest-style doc from durable journal rows.

    A SIGKILLed server loses its in-memory manifests, but every row it
    served is already in the store journal (write-through on response).
    The process plane uses this when it respawns a worker under the same
    run id: the predecessor's journalled request rows become one
    synthetic retired-session doc folded into the successor's run
    document (``EngineServer.manifest_extras``), so merged run totals
    still count every served request exactly once.  Returns ``None``
    when the rows contain no request entries (nothing to recover).
    """
    requests = [
        dict(row) for row in journal_rows if row.get("kind") == "request"
    ]
    if not requests:
        return None
    n = len(requests)
    cached = sum(1 for r in requests if r.get("cached"))
    errors = sum(1 for r in requests if r.get("error") is not None)
    return {
        "manifest_version": MANIFEST_VERSION,
        "dataset_fingerprint": "",
        "engine": {"role": "recovered-from-journal"},
        "totals": {
            "n_requests": n,
            "n_computed": n - cached - errors,
            "n_result_cache_hits": cached,
            "n_errors": errors,
            "elapsed_s": sum(float(r.get("elapsed_s", 0.0)) for r in requests),
        },
        "requests": requests,
        "live": False,
        "evicted": False,
        "recovered": True,
    }


def shutdown_doc(
    reason: str, *, drained: bool = True, signum: int | None = None
) -> dict:
    """Drain accounting for an interrupted run.

    A manifest written after SIGINT/SIGTERM (or a consumer that hung up
    mid-stream) must say so — otherwise a truncated run is
    indistinguishable from a complete one.  ``drained`` records whether
    in-flight requests were allowed to finish before the manifest was
    written (the CLI and socket transport always drain; a hard kill
    never writes this document at all).
    """
    return {
        "reason": str(reason),
        "drained": bool(drained),
        "signum": None if signum is None else int(signum),
        "unix_time": time.time(),
        "mono_time": time.monotonic(),
    }
