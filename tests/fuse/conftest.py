"""Shared fixtures for the fused-kernel differential suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture()
def textured_batch():
    """A deterministic homogeneous uint8 micro-batch (6 x 40x36x3)."""
    rng = np.random.default_rng(11)
    return [rng.integers(0, 256, size=(40, 36, 3)).astype(np.uint8)
            for _ in range(6)]


@pytest.fixture()
def mixed_shape_batch():
    """A heterogeneous batch: three shape/dtype groups interleaved."""
    rng = np.random.default_rng(12)
    shapes = [(40, 36, 3), (36, 40, 3), (40, 36, 3), (44, 44, 3),
              (36, 40, 3), (40, 36, 3)]
    return [rng.integers(0, 256, size=shape).astype(np.uint8)
            for shape in shapes]


@pytest.fixture(scope="session")
def serial_oracle():
    """The reference every session path answers to: per-image
    ``dag.execute`` over the payloads, stacked, through ``model.predict``."""
    def predict(dag, model, requests):
        return model.predict(
            np.stack([dag.execute(request.payload) for request in requests])
            .astype(np.float32))
    return predict
