"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME ...``.

Run from the repository root.  Every measurement happens in a fresh
``perfbench/worker.py`` process with ``src`` on ``PYTHONPATH`` (and the
native kernel's compile cache under ``.perfbench/``); this process never
imports the package.

``--trace 0``: set-up is measured in ``SETUP_RUNS`` processes (the last
one goes on to the timed loop and the correctness check) and reported as
their median; the end-to-end metrics come from the last process.
``--trace 1``: one process builds the per-layer ledger.

Standard output ends with two JSON lines: the host/run fingerprint, then
the result ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is non-zero when any response disagreed with its oracle, when a
traced run leaves more of the request unattributed than the tolerance its
workload's ``why`` states, and when the package sources are missing (no
result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import host_fingerprint
from workloads import WORKLOADS

SETUP_RUNS = 3
#: Hard wall-clock budget of one benchmark run, worker processes included.
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent
#: How a workload's ``why`` in BENCHMARK.json states its coverage tolerance.
TOLERANCE_RE = re.compile(r"trace\.unattributed_frac <= ([0-9.]+)")


def declared() -> dict:
    """The root BENCHMARK.json."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of the root BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in declared()[section]}


def unattributed_tolerance(workload: str) -> float | None:
    """The ``trace.unattributed_frac`` ceiling the workload's ``why`` states."""
    for entry in declared()["workloads"]:
        match = TOLERANCE_RE.search(entry["why"])
        if entry["name"] == workload and match:
            return float(match.group(1))
    return None


def run_worker(args: argparse.Namespace, env: dict, deadline: float, *extra: str) -> dict:
    """Run one worker in its own process group; kill the group on overrun."""
    argv = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        *extra,
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker exceeded the {DEADLINE_S:.0f}s run budget")
    finally:
        if proc.poll() is None:  # interrupted: take the group down with us
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"worker failed with exit status {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Fast-BNS serving benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    fingerprint = host_fingerprint(args.seed)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)  # the native kernel compiles into TMPDIR

    covered = True
    if args.trace:
        result = run_worker(args, env, deadline, "--trace")
        units = declared_units("per_layer")
        tolerance = unattributed_tolerance(args.workload)
        unattributed = result["metrics"]["trace.unattributed_frac"]
        if tolerance is not None and unattributed > tolerance:
            covered = False
            print(
                f"perfbench: trace.unattributed_frac {unattributed:.4f} exceeds the"
                f" tolerance {tolerance} stated in BENCHMARK.json: the layer spans"
                " no longer cover the request",
                file=sys.stderr,
            )
    else:
        setups = [
            run_worker(args, env, deadline, "--setup-only")["setup_s"]
            for _ in range(SETUP_RUNS - 1)
        ]
        result = run_worker(args, env, deadline)
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_runs_s"] = setups
        units = declared_units("end_to_end")

    fingerprint.update(result.pop("host"))
    fingerprint.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    extras = {k: v for k, v in result.items() if k not in ("attempted", "failed", "metrics")}
    print(json.dumps({"fingerprint": fingerprint, "run": extras}))
    correct = result["failed"] == 0 and covered
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
