"""A serving run loads only the simulation stack.

``repro.serving`` re-exports the simulated engines, gateways and
metrics; the numpy model execution (``serving.runner``, ``serving.sbmm``,
``serving.packed_compute``) and the packages behind it
(``repro.compression``, ``repro.nn``) are imported from their own
modules.  Every serving process pays for each module it imports, so
importing what a serving run uses must not load them — nor the
sim-sanitizer's checks, unless ``REPRO_SIM_SANITIZE`` turns them on.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.sim.clock import ENV_VAR

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import repro.serving, repro.workload, repro.telemetry
print("\\n".join(sorted(name for name in sys.modules
                        if name.startswith("repro"))))
from repro.sim import SimKernel
print("--", SimKernel()._sanitizer_installed,
      "repro.sim.sanitizer" in sys.modules)
"""

NOT_LOADED = ("repro.compression", "repro.nn", "repro.serving.runner",
              "repro.serving.sbmm", "repro.serving.packed_compute")


def serving_process(sanitize: bool):
    """What a fresh process importing the serving stack loaded, and
    (after it built one kernel) whether that kernel was sanitized and
    the sanitizer module loaded.  The variable is set or removed here,
    never inherited."""
    env = {k: v for k, v in os.environ.items() if k != ENV_VAR}
    if sanitize:
        env[ENV_VAR] = "1"
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert done.returncode == 0, done.stderr
    loaded, kernel = done.stdout.split("--")
    return loaded.split(), kernel.split()


def test_the_serving_imports_load_no_model_execution():
    loaded, _ = serving_process(sanitize=False)
    assert "repro.serving.engine" in loaded          # the run saw them
    assert [name for name in loaded
            if name.startswith(NOT_LOADED)] == []


def test_the_sanitizer_loads_only_once_switched_on():
    loaded, kernel = serving_process(sanitize=False)
    assert "repro.sim.sanitizer" not in loaded
    assert kernel == ["False", "False"]
    loaded, kernel = serving_process(sanitize=True)
    assert kernel == ["True", "True"]          # a kernel installs the checks
