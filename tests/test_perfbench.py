"""The benchmark tracer must keep matching the package it wraps."""

import ast
import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs():
    # a removed or renamed kernel makes install() raise; a fresh
    # interpreter keeps the rebinding out of this test session
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_probe_calls_exist():
    # the kernel probe calls normlog through module attributes, which
    # install() does not check; each must name a live function
    with open(os.path.join(ROOT, "perfbench", "child.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (probe,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "probe"]
    modules = {"linalg": "normlog.linalg", "spectral": "normlog.spectral",
               "logs": "normlog.logs", "rng": "normlog.harness.rng"}
    called = {(node.value.id, node.attr) for node in ast.walk(probe)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules}
    assert len(called) >= 6
    for module, attr in sorted(called):
        target = getattr(importlib.import_module(modules[module]), attr, None)
        assert callable(target), f"{module}.{attr}"
