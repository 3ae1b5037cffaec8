"""The benchmark tracer looks up each layer function it wraps by name, so a
deleted or renamed one must fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys

from tanisaki import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_function_exists():
    # a child process imports perfbench/tracer.py without writing bytecode
    # next to it, and without leaving its modules in this one
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.path.join(ROOT, "perfbench"),
                                         os.environ.get("PYTHONPATH")]))
    script = (
        "import importlib, tracer\n"
        "assert tracer.TARGETS\n"
        "print([f'{m}.{f}' for m, f, _, _ in tracer.TARGETS\n"
        "       if not callable(getattr(importlib.import_module('tanisaki.' + m), f, None))])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout == "[]\n", proc.stderr or proc.stdout
