"""Shared benchmark fixtures and table output helpers.

Every benchmark regenerates one table or figure from the paper.  Measured
rows are printed and also written to ``benchmarks/results/<name>.txt`` so a
full ``pytest benchmarks/ --benchmark-only`` run leaves the reproduced
artifacts on disk next to the timing table.
"""

from __future__ import annotations

import os
from typing import Dict, List, Sequence

import numpy as np
import pytest

from repro.evaluation import make_task, pretrain_base_model, run_fmt, run_lora
from repro.nn import TransformerConfig

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

# quality-experiment scale knobs (kept small enough for CPU benching)
QUALITY_TASKS = ("review", "yesno", "math")
N_TRAIN = 512
N_EVAL = 60
FMT_EPOCHS = 15
LORA_EPOCHS = 15


def save_table(name: str, lines: Sequence[str]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    print(f"\n[{name}]")
    print(text)
    return path


@pytest.fixture(scope="session")
def quality_base():
    """The shared pre-trained base model for all quality experiments."""
    config = TransformerConfig.small(vocab_size=128, max_seq=64)
    return pretrain_base_model(config, n_sequences=256, epochs=6, seed=0)


@pytest.fixture(scope="session")
def quality_checkpoints(quality_base):
    """FMT and LoRA checkpoints per task (trained once per session)."""
    out: Dict[str, Dict[str, object]] = {}
    for name in QUALITY_TASKS:
        task = make_task(name)
        fmt = run_fmt(quality_base, task, n_train=N_TRAIN,
                      epochs=FMT_EPOCHS, lr=1e-3, seed=0)
        lora = run_lora(quality_base, task, rank=2, n_train=N_TRAIN,
                        epochs=LORA_EPOCHS, lr=5e-3, seed=0)
        out[name] = {"task": task, "fmt": fmt, "lora": lora}
    return out


def run_once(benchmark, fn, *args, **kwargs):
    """Run a whole-experiment function exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


class OneRound:
    """The ``benchmark`` fixture while pytest-benchmark is not active (not
    installed, or ``-p no:benchmark``): the one ``pedantic()`` call
    :func:`run_once` makes, run once, untimed."""

    @pytest.fixture
    def benchmark(self):
        return self

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))


def pytest_configure(config):
    # a conftest fixture named like an active plugin's is an INTERNALERROR,
    # so the stand-in is registered only when the plugin is absent
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(OneRound(), "one-round-benchmark")
