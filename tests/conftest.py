"""Shared fixtures for the FT-Transformer reproduction test suite.

Multi-hundred-trial campaign sweeps are marked ``@pytest.mark.slow`` and are
skipped by default so tier-1 stays fast; run them with ``pytest --runslow``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AttentionConfig


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (multi-hundred-trial campaigns)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: multi-hundred-trial campaign sweeps (run with --runslow)"
    )
    # Expected floating-point edge cases are handled at their sites with
    # np.errstate; any other inf/NaN warning raised from repro is a bug.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning:repro")


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow campaign sweep; use --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for test inputs."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> AttentionConfig:
    """A small attention configuration exercising multiple blocks."""
    return AttentionConfig(seq_len=96, head_dim=32, block_size=32)


@pytest.fixture
def qkv(rng, small_config):
    """Random (batch, heads, seq, dim) query/key/value tensors."""
    shape = (2, 2, small_config.seq_len, small_config.head_dim)
    q = rng.standard_normal(shape).astype(np.float32)
    k = rng.standard_normal(shape).astype(np.float32)
    v = rng.standard_normal(shape).astype(np.float32)
    return q, k, v


@pytest.fixture
def single_head_qkv(rng, small_config):
    """Random single-problem (seq, dim) query/key/value tensors."""
    shape = (small_config.seq_len, small_config.head_dim)
    q = rng.standard_normal(shape).astype(np.float32)
    k = rng.standard_normal(shape).astype(np.float32)
    v = rng.standard_normal(shape).astype(np.float32)
    return q, k, v
