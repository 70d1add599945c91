"""Shared fixtures: small trained models reused across the test session.

Training even the tiny substrate costs ~1 s per model, so the expensive
artifacts (pre-trained base, fine-tuned variant, compressed delta) are
built once per session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressionConfig, DeltaCompressor
from repro.evaluation import make_task, pretrain_base_model, run_fmt
from repro.nn import TransformerConfig, TransformerModel


def pytest_addoption(parser):
    parser.addoption(
        "--regen", action="store_true", default=False,
        help="rewrite the committed table in tests/test_golden_digests.py "
             "from this tree instead of comparing against it")


@pytest.fixture(scope="session")
def tiny_config() -> TransformerConfig:
    return TransformerConfig.tiny(vocab_size=128, max_seq=64)


@pytest.fixture(scope="session")
def base_model(tiny_config) -> TransformerModel:
    return pretrain_base_model(tiny_config, n_sequences=128, epochs=4, seed=0)


@pytest.fixture(scope="session")
def review_task():
    return make_task("review")


@pytest.fixture(scope="session")
def finetuned(base_model, review_task):
    """FMT checkpoint + calibration tokens for the review task."""
    return run_fmt(base_model, review_task, n_train=128, epochs=5, seed=0)


@pytest.fixture(scope="session")
def base_state(base_model):
    return base_model.state_dict()


@pytest.fixture(scope="session")
def artifact_4bit(finetuned, base_state):
    compressor = DeltaCompressor(CompressionConfig.deltazip_4bit())
    return compressor.compress(finetuned.model, base_state,
                               finetuned.calibration_tokens,
                               model_id="review-ft")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
