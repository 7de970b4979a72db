"""Property tests for the preprocessing chain's construction and execution.

A pipeline is the operator chain ``from_ops`` was given.  Every shape a chain
can get wrong -- no operators, an entry that is not an operator, an unknown
device, a device list of the wrong length -- is rejected at construction,
before any kernel compiles; every chain it accepts runs its operators in the
order given, interpreted or compiled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidDAGError
from repro.fuse import DEFAULT_KERNEL_CACHE
from repro.fuse.compiler import compile_dag
from repro.preprocessing.dag import DEVICES, PreprocessingDAG
from repro.preprocessing.ops import (
    CenterCropOp,
    ChannelReorderOp,
    ConvertDtypeOp,
    DecodeOp,
    FusedNormalizeReorderOp,
    NormalizeOp,
    ResizeOp,
)

library_ops = st.one_of(
    st.builds(DecodeOp),
    st.builds(ResizeOp, short_side=st.integers(4, 24)),
    st.builds(CenterCropOp, size=st.integers(2, 20)),
    st.builds(ConvertDtypeOp, target_dtype=st.sampled_from(
        ["float32", "float64", "uint8"])),
    st.builds(NormalizeOp),
    st.builds(ChannelReorderOp),
    st.builds(FusedNormalizeReorderOp),
)
op_lists = st.lists(library_ops, min_size=1, max_size=6)
device_names = st.sampled_from(DEVICES)
unknown_devices = st.text(max_size=12).filter(lambda name: name not in DEVICES)
not_ops = st.one_of(st.none(), st.integers(), st.text(max_size=8),
                    st.just(ResizeOp), st.just(lambda array: array))


@st.composite
def bad_chains(draw):
    """``(ops, device)`` that ``from_ops`` must refuse."""
    ops = draw(op_lists)
    kind = draw(st.sampled_from(
        ["empty", "not-an-op", "unknown-device", "unknown-in-list",
         "wrong-length"]))
    if kind == "empty":
        return [], draw(device_names)
    if kind == "not-an-op":
        ops.insert(draw(st.integers(0, len(ops))), draw(not_ops))
        return ops, draw(device_names)
    if kind == "unknown-device":
        return ops, draw(unknown_devices)
    devices = draw(st.lists(device_names, min_size=len(ops),
                            max_size=len(ops)))
    if kind == "unknown-in-list":
        devices[draw(st.integers(0, len(ops) - 1))] = draw(unknown_devices)
        return ops, devices
    length = draw(st.integers(0, len(ops) + 3).filter(
        lambda n: n != len(ops)))
    return ops, draw(st.lists(device_names, min_size=length,
                              max_size=length))


@given(chain=bad_chains())
@settings(max_examples=200, deadline=None)
def test_bad_chains_are_rejected_at_construction(chain):
    ops, device = chain
    compiles = DEFAULT_KERNEL_CACHE.compiles
    with pytest.raises(InvalidDAGError):
        PreprocessingDAG.from_ops(ops, device)
    assert DEFAULT_KERNEL_CACHE.compiles == compiles


def fold(ops, image):
    """``op.apply`` folded over ``ops`` in list order: the outcome a chain
    must reproduce, an exception type included."""
    try:
        for op in ops:
            image = op.apply(image)
    except Exception as exc:
        return type(exc)
    return image


def outcome(run, image):
    try:
        return run(image)
    except Exception as exc:
        return type(exc)


@given(ops=op_lists, data=st.data(), height=st.integers(8, 24),
       width=st.integers(8, 24), seed=st.integers(0, 2**16))
@settings(max_examples=150, deadline=None)
def test_chain_runs_its_ops_in_list_order(ops, data, height, width, seed):
    device = data.draw(st.one_of(device_names, st.lists(
        device_names, min_size=len(ops), max_size=len(ops))))
    dag = PreprocessingDAG.from_ops(ops, device)
    assert dag.ops == tuple(ops)
    assert compile_dag(dag).ops == tuple(ops)
    image = np.random.default_rng(seed).integers(
        0, 256, size=(height, width, 3)).astype(np.uint8)
    want = fold(ops, image)
    for got in (outcome(dag.execute, image),
                outcome(lambda x: compile_dag(dag).execute_many([x])[0],
                        image)):
        if isinstance(want, type):
            assert got is want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
