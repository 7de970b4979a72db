"""The inference plan's oracle: the layers' own allocating ``forward``."""

import numpy as np


def allocating_forward(layers, inputs: np.ndarray) -> np.ndarray:
    """Every layer's ``forward`` in turn, each on fresh arrays."""
    activations = inputs
    for layer in layers:
        activations = layer.forward(activations)
    return activations


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """NaN where the other has NaN, identical bits (signed zeros too) elsewhere."""
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert np.array_equal(actual.view(np.uint32)[~nan],
                          expected.view(np.uint32)[~nan])
