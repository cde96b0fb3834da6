"""What building an interpreter costs a fresh process: the modules it loads."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tegi
tegi.Interpreter()
print(" ".join(sorted(sys.modules)))
"""


def test_interpreter_loads_no_heavy_standard_modules():
    # -S: no site hooks, so only what tegi imports is loaded
    r = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    loaded = set(r.stdout.split())
    assert "tegi.evaluator" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "importlib.resources"})
