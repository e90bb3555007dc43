"""Cold tax: a skeleton learn through a fresh stats cache vs one without.

A served cold learn (:class:`~repro.engine.session.LearningSession` on a
dataset it has not seen) runs the same skeleton search as an uncached
:func:`~repro.core.learn.learn_structure`, plus the stats cache's work:
the table keys and plan-time lookups, a standalone copy of every built
table, the commit that replays each test's cache event and stores its
score memo, and the garbage-collector load of the resident entries.  The
*cold tax* is the ratio of the two learn times; at 1.0 the cache is free
on first touch.

Protocol, per seed (alarm, 2000 rows, ``gs=1``, Fast-BNS sequential):

* one untimed learn per arm, then ``PAIRS`` timed pairs on the same data;
  the arm that runs first alternates from pair to pair, so drift on a
  shared host hits both arms evenly;
* the cached arm builds a fresh :class:`~repro.engine.statscache.
  SufficientStatsCache` per learn (cold: every table is a first touch),
  the uncached arm a tester without one;
* a pair's ratio is cached / uncached CPU time of the calling process
  (``time.process_time``: time other tenants of the host steal is not
  billed to either arm).

The headline is the median over ``SEEDS`` of the per-seed median ratio,
with the quartiles of all pair ratios as the noise band.  The bench also
checks that both arms learn the same skeleton and sepsets, and fails when
the headline exceeds ``MAX_RATIO``.

Emits ``BENCH_cold_tax.json`` with the per-seed ratios and times, the
quartiles and the host fingerprint.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

from repro.citests.native import native_kind
from repro.core.learn import make_tester
from repro.core.skeleton import learn_skeleton
from repro.datasets.sampling import forward_sample
from repro.engine.statscache import SufficientStatsCache
from repro.networks.catalog import get_network

NETWORK = "alarm"
N_SAMPLES = 2000
GS = 1
SEEDS = (1, 2, 3)
PAIRS = 10
#: CI gate on the headline ratio: a cached cold learn may cost at most
#: this much more than an uncached one.
MAX_RATIO = 1.25


def _learn(data, cached: bool):
    """``(cpu seconds, skeleton edges, sepsets)`` of one skeleton learn."""
    cache = SufficientStatsCache() if cached else None
    tester = make_tester(data, "g2", stats_cache=cache)
    start = time.process_time()
    graph, sepsets, _stats = learn_skeleton(tester, data.n_variables, gs=GS)
    return time.process_time() - start, sorted(graph.edges()), sepsets


def _seed_run(seed: int) -> dict:
    data = forward_sample(get_network(NETWORK), N_SAMPLES, rng=seed).with_layout(
        "variable-major"
    )
    _, edges, sepsets = _learn(data, cached=False)
    _, c_edges, c_sepsets = _learn(data, cached=True)
    assert (c_edges, c_sepsets) == (edges, sepsets), "cached learn changed the skeleton"
    ratios, cached_s, uncached_s = [], [], []
    for k in range(PAIRS):
        order = (True, False) if k % 2 else (False, True)
        times = {cached: _learn(data, cached)[0] for cached in order}
        cached_s.append(times[True])
        uncached_s.append(times[False])
        ratios.append(times[True] / times[False])
    return {
        "seed": seed,
        "median_ratio": statistics.median(ratios),
        "ratios": ratios,
        "cached_median_s": statistics.median(cached_s),
        "uncached_median_s": statistics.median(uncached_s),
    }


def _host() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "native_backend": native_kind(),
    }


def test_cold_tax(record_json):
    runs = [_seed_run(seed) for seed in SEEDS]
    pooled = [r for run in runs for r in run["ratios"]]
    q1, _q2, q3 = statistics.quantiles(pooled, n=4)
    median_ratio = statistics.median(run["median_ratio"] for run in runs)
    for run in runs:
        print(
            f"seed {run['seed']}: cold tax {run['median_ratio']:.3f} "
            f"(cached {run['cached_median_s'] * 1e3:.0f} ms, "
            f"uncached {run['uncached_median_s'] * 1e3:.0f} ms CPU, medians)"
        )
    print(f"cold tax {median_ratio:.3f} (pair-ratio IQR {q1:.3f}-{q3:.3f})")
    record_json(
        "cold_tax",
        {
            "network": NETWORK,
            "n_samples": N_SAMPLES,
            "gs": GS,
            "pairs_per_seed": PAIRS,
            "median_ratio": median_ratio,
            "ratio_q1": q1,
            "ratio_q3": q3,
            "max_ratio_gate": MAX_RATIO,
            "seeds": runs,
            "host": _host(),
        },
    )
    assert median_ratio <= MAX_RATIO, (
        f"cold tax {median_ratio:.3f} above the {MAX_RATIO} gate"
    )
