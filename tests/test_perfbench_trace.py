"""The benchmark's layer tracer still finds the names it wraps.

perfbench/layertrace.py patches classes and functions of the package by
name (BaseField.mul in fields, TowerLevel.frobenius in tower, ...) and reads
RingElement.terms to count term pairs.  It runs here in a fresh interpreter,
as the benchmark worker does, so its patches never reach the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import importlib, json, sys, types
sys.path.insert(0, sys.argv[1])
import layertrace

layers = ("fields", "tower", "action", "ring", "center", "simplicity", "pi",
          "growth", "quotient")
tl = types.SimpleNamespace(
    **{name: importlib.import_module(f"twistlab.{name}") for name in layers})
tracer = layertrace.install(tl)
tower = tl.tower.build_tower(tl.tower.TowerConfig(2, 2, 2))
level, base = tower.level(2), tower.level(2).base
x = level.from_code(3)
ctx = tl.ring.RingContext(tower, tl.action.default_action(2, 2), 1)
up = ctx.lift_level(2)
a = ctx.one() + ctx.monomial(ctx.theta(), (1, 0))
b = ctx.gen(2) + ctx.monomial(ctx.theta(), (0, -1)) + ctx.gen(1, 2)
with tracer.root("item"):
    base.mul(1, 1)
    level.frobenius(x, 1)
    (a * b).lift_to(up)
metrics = layertrace.layer_metrics(tracer)
keys = ("fields.mul_calls", "tower.frob_calls", "ring.mul_calls", "ring.term_pairs",
        "ring.lift_calls")
print(json.dumps({key: metrics[key] for key in keys}))
"""


def test_layer_tracer_installs_and_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    counts = json.loads(proc.stdout.splitlines()[-1])
    # the ring counters read RingElement.terms and wrap __mul__ and lift_to
    assert counts == {"fields.mul_calls": 1, "tower.frob_calls": 1,
                      "ring.mul_calls": 1, "ring.term_pairs": 6, "ring.lift_calls": 1}
