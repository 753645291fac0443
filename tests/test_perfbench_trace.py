"""The benchmark's layer tracer still finds the names it wraps.

perfbench/layertrace.py patches classes and functions of the package by
name (BaseField.mul in fields, TowerLevel.frobenius in tower, ...).  It runs
here in a fresh interpreter, as the benchmark worker does, so its patches
never reach the test process.
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
with tracer.root("item"):
    base.mul(1, 1)
    level.frobenius(x, 1)
metrics = layertrace.layer_metrics(tracer)
print(json.dumps({key: metrics[key] for key in ("fields.mul_calls", "tower.frob_calls")}))
"""


def test_layer_tracer_installs_and_counts():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts == {"fields.mul_calls": 1, "tower.frob_calls": 1}
