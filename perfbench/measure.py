"""Pure measurement helpers: tail support, failure counting, host stamp.

Nothing here imports :mod:`repro`, so the helpers are testable (and the
benchmark's parent process stays light) without the package on the path.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from collections.abc import Callable, Sequence

#: A reported tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile
    (the rank rule of :func:`repro.engine.workload.percentile`)."""
    return n - max(1, math.ceil(q / 100.0 * n))


def highest_supported_percentile(
    n: int, candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 75.0)
) -> float | None:
    """Highest candidate percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest candidate is unsupported — the sample is
    too small for any tail figure.
    """
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            return q
    return None


def count_failures(
    requests: Sequence[dict],
    responses: Sequence[dict],
    expected: Sequence[dict | None],
    expects_error: Callable[[dict], bool],
) -> int:
    """Failed requests out of ``len(requests)``.

    A request whose ``expects_error(request)`` is true (an injected bad
    request) succeeds exactly when its response carries an error.  Every
    other request succeeds when it got no error and its response equals
    the oracle's ``expected`` entry (``None`` skips the payload check).
    A missing response counts as a failure.
    """
    failed = max(0, len(requests) - len(responses))
    for req, resp, want in zip(requests, responses, expected, strict=False):
        if expects_error(req):
            failed += resp.get("error") is None
        elif resp.get("error") is not None or (want is not None and resp != want):
            failed += 1
    return failed


def peak_rss_mb(pid: int | str = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def host_fingerprint(seed: int) -> dict:
    """Who measured: cores, CPU, interpreter, seed and the load at start.

    The worker adds the NumPy version and the native backend it actually
    loaded, which only a process importing the package can know.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }
