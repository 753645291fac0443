"""Helpers around run.py, each a subcommand; run from the repository root.

    python3 perfbench/tools.py report [--seed S] [--seconds T]
        one run per workload; prints every end-to-end metric with its unit
    python3 perfbench/tools.py spread --workload W --seeds 1-10 [--seconds T]
        one run per seed; prints each end-to-end metric's median and its
        quartile spread (Q3 - Q1) / median, against the metric's bound
    python3 perfbench/tools.py selfcheck --workload W [--seed S] [--other S2]
        two traced runs with one seed must give identical counts and digests;
        a run with another seed must give another digest
    python3 perfbench/tools.py record --seeds 0-31,9001
        records the output digest of every workload for the given seeds
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench(workload: str, seed: int, seconds, trace: int = 0) -> tuple:
    """Run run.py as the benchmark command does; returns (run record, result)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def cmd_report(args):
    for name in WORKLOADS:
        record, result = bench(name, args.seed, args.seconds)
        flag = "" if result["correct"] else "  INCORRECT"
        print(f"{name} (seed {args.seed}, {record['passes']} passes, "
              f"{record['items']} items){flag}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<14} {m['value']:>14.6g} {m['unit']}")


def cmd_spread(args):
    seeds = _seeds(args.seeds)
    runs = [bench(args.workload, s, args.seconds)[1] for s in seeds]
    bad = [s for s, r in zip(seeds, runs) if not r["correct"]]
    print(f"{args.workload}: seeds {seeds[0]}..{seeds[-1]}"
          + (f", INCORRECT on seeds {bad}" if bad else ", all correct"))
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        s = spread(values)
        mark = "ok" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "OVER")
        print(f"  {m['name']:<14} median {statistics.median(values):12.6g} {m['unit']:<5}"
              f" spread {s:7.4f}  bound {m['bound']}  {mark}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": seeds,
             "metrics": [r["metrics"] for r in runs],
             "record": run.run_record()}, indent=1))


def cmd_selfcheck(args):
    first, r1 = bench(args.workload, args.seed, args.seconds, trace=1)
    second, r2 = bench(args.workload, args.seed, args.seconds, trace=1)
    other, _ = bench(args.workload, args.other, args.seconds, trace=1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    same_counts = all(r1["metrics"][n] == r2["metrics"][n] for n in counts)
    same_digest = first["digest"] == second["digest"]
    seed_used = other["digest"] != first["digest"]
    print(f"{args.workload}: counts identical {same_counts}, digests identical "
          f"{same_digest}, other seed changes digest {seed_used}, "
          f"trace overhead {r1['metrics']['trace.overhead_s']['value']:.3f} s")
    return 0 if same_counts and same_digest and seed_used else 1


def cmd_record(args):
    digests = {}
    for name, wl in WORKLOADS.items():
        digests[name] = {}
        for seed in _seeds(args.seeds):
            result = run.run_pass(name, wl.generate(seed), False)
            if result["failures"]:
                raise SystemExit(f"{name} seed {seed} failed: {result['failures'][:3]}")
            digests[name][str(seed)] = result["digest"]
            print(name, seed, result["digest"][:16], flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description="perfbench helpers")
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("report")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--json", default=None, help="also write the runs to this file")
    p.set_defaults(func=cmd_spread)
    p = sub.add_parser("selfcheck")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--other", type=int, default=HELD_OUT_SEED)
    p.add_argument("--seconds", type=float, default=1)
    p.set_defaults(func=cmd_selfcheck)
    p = sub.add_parser("record")
    p.add_argument("--seeds", default=f"0-31,{HELD_OUT_SEED}")
    p.set_defaults(func=cmd_record)
    args = ap.parse_args()
    return args.func(args) or 0


if __name__ == "__main__":
    sys.exit(main())
