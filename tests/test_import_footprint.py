"""A serving run loads only the simulation stack.

``repro.serving`` re-exports the simulated engines, gateways and
metrics; the numpy model execution (``serving.runner``, ``serving.sbmm``,
``serving.packed_compute``) and the packages behind it
(``repro.compression``, ``repro.nn``) are imported from their own
modules.  Every serving process pays for each module it imports, so
importing what a serving run uses must not load them.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.serving, repro.workload, repro.telemetry
print("\\n".join(sorted(name for name in sys.modules
                        if name.startswith("repro"))))
"""

NOT_LOADED = ("repro.compression", "repro.nn", "repro.serving.runner",
              "repro.serving.sbmm", "repro.serving.packed_compute")


def test_the_serving_imports_load_no_model_execution():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.serving.engine" in loaded          # the run saw them
    assert [name for name in loaded
            if name.startswith(NOT_LOADED)] == []

