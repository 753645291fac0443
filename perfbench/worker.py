"""One benchmark pass in a fresh interpreter.

    python3 worker.py <pass index>

Runs pinned to one CPU, chosen by the pass index.  Reads a job from stdin
(workload, inputs, trace flag, repository root), runs
set-up and then every item of the workload once, in order, and prints one
JSON object: set-up time, per-item latencies, failures, the output digest,
peak resident memory and, when traced, the per-layer figures.

Set-up time runs from just after the first host-speed readings, before the
package is imported, to the end of set-up.  A host-speed reading
(``calib.py``) is also taken after set-up and after every item, so each item
lies between two readings; run.py uses them to scale times to reference
speed.
"""

import os
import sys
import time


def _pin(index: int):
    """Run pass `index` on one CPU, taking the allowed CPUs in turn.  A shared
    host slows each CPU in phases of its own; passes spread over the CPUs
    keep one slow CPU from covering a whole run."""
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})


_pin(int(sys.argv[1]))

import calib  # noqa: E402

_SETUP_READINGS = [calib.measure() for _ in range(4)]
_T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

LAYERS = ("fields", "tower", "action", "ring", "center", "simplicity", "pi",
          "growth", "quotient")


def _import_package(root: Path):
    """The package under root/src as a namespace of its modules, or exit 2."""
    src = (root / "src").resolve()
    if not (src / "twistlab" / "__init__.py").is_file():
        sys.stderr.write(f"worker: no twistlab package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import importlib

    mods = {name: importlib.import_module(f"twistlab.{name}") for name in LAYERS}
    if not Path(mods["ring"].__file__).resolve().is_relative_to(src):
        sys.stderr.write("worker: twistlab was imported from outside the checkout\n")
        sys.exit(2)
    return types.SimpleNamespace(**mods)


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    tl = _import_package(Path(job["root"]))
    wl = workloads.WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        import layertrace

        tracer = layertrace.install(tl)
        with tracer.root("setup"):
            items = wl.setup(tl, job["inputs"])
    else:
        items = wl.setup(tl, job["inputs"])
    setup_s = time.perf_counter() - _T0

    perf = time.perf_counter
    measure = calib.measure
    _SETUP_READINGS.extend(measure() for _ in range(4))
    readings = [_SETUP_READINGS[-1]]
    latencies, outputs = [], []
    for item in items:
        try:
            if tracer is None:
                start = perf()
                out = wl.run(tl, item)
                latencies.append(perf() - start)
            else:
                start = perf()
                with tracer.root("item"):
                    out = wl.run(tl, item)
                latencies.append(perf() - start)
            outputs.append(out)
        except Exception as exc:  # an item that raises is a failed item
            latencies.append(perf() - start)
            outputs.append(exc)
        readings.append(measure())

    # checks and hashing run after the timed items, with tracing inactive
    digest = hashlib.sha256()
    failures = []
    for i, (item, out) in enumerate(zip(items, outputs)):
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
            text = f"raised {type(out).__name__}"
        else:
            reason = wl.check(item, out)
            text = wl.canonical(out)
        digest.update(text.encode() + b"\n")
        if reason is not None:
            failures.append({"item": i, "reason": reason})

    result = {
        "setup_s": setup_s,
        "setup_reading": statistics.median(_SETUP_READINGS),
        "latencies": latencies,
        "readings": readings,
        "failures": failures,
        "digest": digest.hexdigest(),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = layertrace.layer_metrics(tracer)
        result["counts"] = dict(sorted(tracer.counts.items()))
        if job.get("trace_file"):
            with open(job["trace_file"], "w") as fh:
                json.dump({"spans": tracer.spans, "layers": result["layers"],
                           "counts": result["counts"]}, fh)
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
