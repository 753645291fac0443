"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pi_trials --seed 1 --seconds 30 --trace 0

Run from the repository root.  The seed makes the workload's inputs; each
pass then starts a fresh interpreter (``worker.py``) that imports the
package from ``src/``, sets up, and runs the workload's fixed item list once.
Passes repeat until ``--seconds`` is used up (at least three untraced ones).

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in BENCHMARK.json (README.md says how passes are combined).  With
``--trace 1`` one untraced pass is followed by traced passes, and the last
line reports the per-layer metrics.  The line before it holds the run record: seed, passes, digest, the
full layer table when traced, Python version, CPU count, commit and the
``src/`` line count.  The exit code is 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calib import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"


def run_pass(workload: str, inputs: dict, trace: bool, index: int = 0,
             trace_file=None) -> dict:
    """Pass number `index` in a worker process; returns its JSON result or
    raises RuntimeError."""
    job = {"workload": workload, "inputs": inputs, "trace": trace,
           "root": str(ROOT), "trace_file": trace_file and str(trace_file)}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(index)], input=json.dumps(job),
        capture_output=True, text=True, timeout=PASS_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def run_passes(workload, inputs, trace, seconds, minimum, first=0, trace_file=None):
    """Passes numbered from `first` until the next one would overrun the time
    budget."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(workload, inputs, trace, first + len(passes),
                               trace_file))
        elapsed = time.perf_counter() - start
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def run_record() -> dict:
    """Facts stored with every result; recorded, not gated."""
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_lines": lines,
    }


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def scaled_latencies(p: dict) -> list:
    """A pass's item latencies at reference speed: each is divided by the
    mean of the host-speed readings taken just before and just after it."""
    r = p["readings"]
    return [lat * REFERENCE_S * 2 / (r[i] + r[i + 1])
            for i, lat in enumerate(p["latencies"])]


def end_to_end(passes: list, failed: int, attempted: int) -> dict:
    # Times are scaled to reference speed (calib.py): a shared host's CPU
    # speed drifts by up to 1.5x in phases that can outlast a run, and the
    # readings taken beside each item follow the drift.  One latency per
    # item: its median over the passes.
    scaled = [scaled_latencies(p) for p in passes]
    per_item = [statistics.median(lat) for lat in zip(*scaled)]
    deciles = statistics.quantiles(per_item, n=10)
    return {
        "setup_s": statistics.median(
            [p["setup_s"] * REFERENCE_S / p["setup_reading"] for p in passes]),
        "wall_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": statistics.median([p["peak_rss_kb"] for p in passes]) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }


def unscaled(passes: list) -> dict:
    """Raw times and the host's speed, for the run record."""
    return {
        "raw_setup_s": statistics.median([p["setup_s"] for p in passes]),
        "raw_wall_s": statistics.median([sum(p["latencies"]) for p in passes]),
        "host_speed": statistics.median(
            [REFERENCE_S / x for p in passes for x in p["readings"]]),
    }


def per_layer(untraced: dict, traced: list) -> tuple:
    """Medians of the traced passes' times; counts must agree exactly."""
    layers = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        layers[name] = statistics.median(values) if name.endswith("_s") else values[0]
    layers["trace.overhead_s"] = (statistics.median([sum(t["latencies"]) for t in traced])
                                  - sum(untraced["latencies"]))
    agree = all(t["counts"] == traced[0]["counts"] for t in traced)
    return layers, agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twistlab" / "__init__.py").is_file():
        sys.stderr.write(f"run.py: no twistlab package under {ROOT / 'src'}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        if args.trace:
            untraced = run_pass(args.workload, inputs, False)
            traced = run_passes(args.workload, inputs, True, args.seconds, 1,
                                first=1, trace_file=OUT / f"{stem}-spans.json")
            passes = [untraced] + traced
        else:
            passes = run_passes(args.workload, inputs, False, args.seconds, MIN_PASSES)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 2

    # correctness: per-item checks, one digest across passes, recorded digest
    n_items = len(passes[0]["latencies"])
    attempted = n_items * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    digest = passes[0]["digest"]
    recorded = None
    if DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    for p in passes:
        if p["digest"] != digest or (recorded is not None and p["digest"] != recorded):
            failed += n_items - len(p["failures"])
    correct = failed == 0

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "items": n_items, "digest": digest,
        "digest_recorded": recorded,
        "failures": [f for p in passes for f in p["failures"]][:5],
        **unscaled(passes),
        **run_record(),
    }
    if args.trace:
        layers, agree = per_layer(untraced, traced)
        correct = correct and agree
        detail["counts_agree"] = agree
        detail["layers"] = layers
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layers
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(passes, failed, attempted)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({"run": detail, "result": result},
                                                 indent=1))
    print(json.dumps({"run": detail}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
