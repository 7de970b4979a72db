"""The inference plan computes what the layers compute, bit for bit.

``Sequential.forward(training=False)`` runs the ahead-of-time plan of
:mod:`repro.nn.plan` over a per-thread arena; the oracle here is the layers'
own allocating ``forward``, one layer after the other on fresh arrays.  Both
execute each layer's single ``step`` body, so the comparison is bitwise
(NaN where the other has NaN, the same bits everywhere else -- the sign of
a zero included).

``golden_logits.json`` additionally holds logits recorded at the commit
*before* the plan existed (convolution by ``np.einsum``, no arena), compared
at ``rtol=1e-5``: a GEMM sums in another order than einsum's loops, and BLAS
kernels are chosen per CPU, so a byte digest would pin one microarchitecture.
Refresh deliberately with::

    python -m pytest tests/nn/test_plan_equivalence.py --update-golden
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plan_oracle import allocating_forward, assert_same_bits
from repro.errors import ModelError
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Layer,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.model import Sequential, build_mini_resnet
from repro.nn.specialized import make_specialized_family

# NaN/inf payloads legitimately trip numpy's invalid-value warnings.
pytestmark = pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning",
    "ignore:overflow encountered:RuntimeWarning",
)

GOLDEN_PATH = Path(__file__).with_name("golden_logits.json")

SPECIALS = np.array([np.nan, -np.nan, np.inf, -np.inf, 1e-45, -1e-45,
                     1e-40, 0.0, -0.0], dtype=np.float32)


def with_specials(array: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    flat = array.reshape(-1)
    positions = rng.choice(flat.size, size=min(flat.size, len(SPECIALS)),
                           replace=False)
    flat[positions] = SPECIALS[:len(positions)]
    return array


def randomize(layers, rng: np.random.Generator, parameters: bool) -> None:
    """Non-default running statistics (mean 0, var 1 would hide a stale or
    skipped read) and, on request, parameters."""
    for layer in layers:
        if parameters:
            for value in layer.params().values():
                value[...] = rng.normal(size=value.shape)
        if isinstance(layer, BatchNorm2d):
            layer.running_mean[...] = rng.normal(size=layer.num_features)
            layer.running_var[...] = rng.uniform(0.2, 3.0, layer.num_features)


# ---------------------------------------------------------------------------
# Random stacks of all seven layer types
# ---------------------------------------------------------------------------
@st.composite
def stacks(draw):
    """``(layers, input)``: a valid random stack and a batch for it."""
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    shape = (draw(st.integers(1, 4)), draw(st.integers(4, 13)),
             draw(st.integers(4, 13)))
    input_shape = shape
    layers: list[Layer] = []
    for kind in draw(st.lists(st.sampled_from("cccbrrp"), max_size=7)):
        if kind == "c":
            layer = Conv2d(shape[0], draw(st.integers(1, 5)),
                           kernel_size=draw(st.sampled_from((1, 3, 5))),
                           stride=draw(st.sampled_from((1, 2))),
                           padding=draw(st.sampled_from((0, 1, 2))),
                           seed=seed)
        elif kind == "b":
            layer = BatchNorm2d(shape[0])
        elif kind == "r":
            layer = ReLU()
        else:
            layer = MaxPool2d(draw(st.sampled_from((1, 2, 3))),
                              stride=draw(st.sampled_from((None, 1, 2))))
        try:
            shape = layer.output_shape(shape)
        except ModelError:      # the window no longer fits: leave it out
            continue
        layers.append(layer)
    head = draw(st.sampled_from(("none", "pool", "flatten")))
    if head == "pool":
        layers += [GlobalAvgPool2d(), Linear(shape[0], 3, seed=seed)]
    elif head == "flatten" or not layers:
        layers += [Flatten(), Linear(int(np.prod(shape)), 3, seed=seed)]
    randomize(layers, rng, parameters=True)
    batch = draw(st.integers(1, 33))
    inputs = rng.normal(size=(batch, *input_shape)).astype(np.float32)
    if draw(st.booleans()):
        with_specials(inputs, rng)
    return layers, inputs


@settings(max_examples=120, deadline=None)
@given(stacks())
def test_plan_equals_the_allocating_forward_on_random_stacks(stack):
    layers, inputs = stack
    model = Sequential(layers, input_shape=inputs.shape[1:])
    expected = allocating_forward(layers, inputs)
    assert_same_bits(model.forward(inputs), expected)
    # A second batch on the same arena, smaller, sees no stale state.
    half = inputs[:max(1, len(inputs) // 2)]
    assert_same_bits(model.forward(half), allocating_forward(layers, half))


# ---------------------------------------------------------------------------
# The model classes the repo builds
# ---------------------------------------------------------------------------
def repo_models() -> dict[str, Sequential]:
    models = {
        f"mini-resnet-{depth}": build_mini_resnet(depth, num_classes=8,
                                                  input_size=32, seed=depth)
        for depth in (8, 18, 34, 50)
    }
    for member in make_specialized_family():
        models[member.name] = member.build_trainable(num_classes=5,
                                                     input_size=24, seed=3)
    models["flatten-head"] = Sequential(
        [Conv2d(3, 6, kernel_size=3, stride=2, padding=1, seed=5),
         BatchNorm2d(6), ReLU(), MaxPool2d(2), Flatten(),
         Linear(6 * 5 * 5, 4, seed=6)],
        name="flatten-head", input_shape=(3, 20, 20))
    for model in models.values():       # keeps the seeded weights
        randomize(model.layers, np.random.default_rng(len(model.layers)),
                  parameters=False)
    return models


MODELS = repo_models()


def batch_for(model: Sequential, batch: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, *model.input_shape)).astype(np.float32)


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("batch", (1, 8, 33))
def test_plan_equals_the_allocating_forward_on_repo_models(name, batch):
    model = MODELS[name]
    inputs = batch_for(model, batch, seed=batch)
    assert_same_bits(model.forward(inputs),
                     allocating_forward(model.layers, inputs))
    special = with_specials(inputs.copy(), np.random.default_rng(batch))
    assert_same_bits(model.forward(special),
                     allocating_forward(model.layers, special))


def compute_logits() -> dict[str, list]:
    return {name: model.forward(batch_for(model, 4)).tolist()
            for name, model in sorted(MODELS.items())}


def test_logits_match_the_goldens_recorded_before_the_plan(request):
    logits = compute_logits()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(json.dumps(logits, indent=1) + "\n",
                               encoding="utf-8")
        return
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert logits.keys() == golden.keys()
    for name, expected in golden.items():
        expected = np.asarray(expected, dtype=np.float32)
        np.testing.assert_allclose(
            np.asarray(logits[name], dtype=np.float32), expected,
            rtol=1e-5, atol=1e-5 * float(np.abs(expected).max()),
            err_msg=name)


# ---------------------------------------------------------------------------
# Layers without a planned step, and what the input slot accepts
# ---------------------------------------------------------------------------
class Doubler(Layer):
    """A layer the plan knows nothing about."""

    def forward(self, inputs, training=False):
        return inputs * 2.0


class LeakyReLU(ReLU):
    """Overrides ``forward`` only: the inherited ``step`` must not run."""

    def forward(self, inputs, training=False):
        return np.where(inputs > 0, inputs, inputs * np.float32(0.1))


def test_a_layer_without_a_step_runs_its_forward_inside_the_plan():
    assert not Doubler.planned and not LeakyReLU.planned and ReLU.planned
    layers = [Conv2d(2, 3, seed=1), Doubler(), Conv2d(3, 3, seed=2),
              LeakyReLU(), MaxPool2d(2), GlobalAvgPool2d(), Doubler(),
              Linear(3, 2, seed=3)]
    inputs = np.random.default_rng(0).normal(size=(4, 2, 8, 8)) \
        .astype(np.float32)
    model = Sequential(layers, input_shape=(2, 8, 8))
    expected = allocating_forward(layers, inputs)
    assert (expected < 0).any()     # the leaky branch was taken somewhere
    assert_same_bits(model.forward(inputs), expected)


class WrongShape(Layer):
    def forward(self, inputs, training=False):
        return inputs[:, :1]


def test_a_forward_that_breaks_its_output_shape_is_a_model_error():
    model = Sequential([WrongShape()], input_shape=(3,))
    with pytest.raises(ModelError, match="output_shape promised"):
        model.forward(np.zeros((2, 3), dtype=np.float32))


@pytest.mark.parametrize("dtype", (np.float64, np.float16, np.uint8,
                                   np.int64, np.bool_))
def test_inputs_are_cast_into_the_float32_slot(dtype):
    """Inference is float32 whatever arrives (``same_kind`` casting): a
    float64 batch no longer drags the whole net into float64."""
    model = build_mini_resnet(8, num_classes=3, input_size=8, seed=2)
    rng = np.random.default_rng(1)
    inputs = (rng.uniform(0, 200, size=(3, 3, 8, 8))).astype(dtype)
    logits = model.forward(inputs)
    assert logits.dtype == np.float32
    assert_same_bits(logits, model.forward(inputs.astype(np.float32)))
    assert model.predict(inputs).dtype.kind == "i"


def test_inputs_that_cannot_become_float32_are_a_model_error():
    model = build_mini_resnet(8, num_classes=3, input_size=8)
    with pytest.raises(ModelError, match="cannot cast complex128"):
        model.forward(np.zeros((1, 3, 8, 8), dtype=np.complex128))


def test_training_keeps_the_dtype_it_is_given():
    model = build_mini_resnet(8, num_classes=3, input_size=8)
    inputs = np.zeros((2, 3, 8, 8), dtype=np.float64)
    assert model.forward(inputs, training=True).dtype == np.float64


@pytest.mark.parametrize("shape", ((2, 3, 9, 8), (2, 4, 8, 8), (2, 3, 8),
                                   (2, 3, 2, 2)))
def test_a_batch_the_model_cannot_take_fails_at_compile(shape):
    model = build_mini_resnet(18, num_classes=3, input_size=8)
    assert model.forward(np.zeros((2, 3, 8, 8), np.float32)).shape == (2, 3)
    if shape == (2, 3, 9, 8):       # another resolution is another arena
        assert model.forward(np.zeros(shape, np.float32)).shape == (2, 3)
        return
    with pytest.raises(ModelError):
        model.forward(np.zeros(shape, np.float32))
    # ... and the model still serves the shape it was built for.
    assert model.forward(np.zeros((2, 3, 8, 8), np.float32)).shape == (2, 3)


def test_an_empty_batch_yields_empty_logits():
    model = build_mini_resnet(8, num_classes=3, input_size=8)
    empty = np.zeros((0, 3, 8, 8), np.float32)
    assert model.forward(empty).shape == (0, 3)
    assert allocating_forward(model.layers, empty).shape == (0, 3)
