"""Block tiling and head reshaping helpers shared by the attention kernels."""

from __future__ import annotations

from typing import Iterator

import numpy as np


def num_blocks(seq_len: int, block_size: int) -> int:
    """Number of blocks needed to cover ``seq_len`` with ``block_size`` (ceil)."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    return -(-seq_len // block_size)


def partition_blocks(seq_len: int, block_size: int) -> Iterator[slice]:
    """Yield slices partitioning ``range(seq_len)`` into blocks of ``block_size``."""
    for start in range(0, seq_len, block_size):
        yield slice(start, min(start + block_size, seq_len))


def split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    """Reshape ``(..., seq, hidden)`` into ``(..., heads, seq, head_dim)``."""
    x = np.asarray(x)
    *lead, seq, hidden = x.shape
    if hidden % heads:
        raise ValueError(f"hidden dim {hidden} not divisible by heads {heads}")
    head_dim = hidden // heads
    return x.reshape(*lead, seq, heads, head_dim).swapaxes(-2, -3)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_heads`: ``(..., heads, seq, head_dim)`` -> ``(..., seq, hidden)``."""
    x = np.asarray(x)
    *lead, heads, seq, head_dim = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, seq, heads * head_dim)
