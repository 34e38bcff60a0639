"""Shared fixtures: tiny encoder configs and corpora small enough that the
whole suite stays fast."""

import numpy as np
import pytest

from duotune import tensor as T
from duotune.encoder import DualEncoder, EncoderConfig, Vocab


@pytest.fixture(scope="session")
def tiny_config():
    return EncoderConfig(vocab_size=32, hidden=16, n_blocks=2, n_heads=2,
                         intermediate=32, max_positions=16)


@pytest.fixture(scope="session")
def tiny_vocab():
    return Vocab([f"w{i:03d}" for i in range(30)])


@pytest.fixture()
def tiny_model(tiny_config):
    return DualEncoder.twin_init(tiny_config, T.Rng(0))


def random_unit(rng: np.random.Generator, dim: int = 8) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def constant(data, like: T.Tensor) -> T.Tensor:
    """A value that takes no gradient, in `like`'s dtype."""
    return T.Tensor(np.asarray(data, dtype=like.dtype), None, requires_grad=False)
