"""Preprocessing computation DAG.

Smol accepts preprocessing steps as a directed acyclic computation graph
(Section 6.2).  The common pipelines are linear chains, but the DAG form lets
the optimizer express reordering, fusion, and per-operator device placement
while validating structural invariants (acyclicity, single source/sink for
executable chains).

Validation and the topological sort are done once per graph shape:
``execution_order`` caches the validated order, and ``execute`` (one image)
and the compiled batch kernel (:mod:`repro.fuse.compiler`) both walk that
tuple, so neither pays a networkx call per image.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from repro.errors import InvalidDAGError
from repro.preprocessing.ops import PreprocessingOp, TensorSpec


@dataclass
class DagNode:
    """One operator instance in a preprocessing DAG."""

    node_id: str
    op: PreprocessingOp
    device: str = "cpu"

    def __post_init__(self) -> None:
        if self.device not in ("cpu", "accelerator"):
            raise InvalidDAGError(
                f"device must be 'cpu' or 'accelerator', got {self.device!r}"
            )


class PreprocessingDAG:
    """A directed acyclic graph of preprocessing operators."""

    def __init__(self) -> None:
        self._graph = nx.DiGraph()
        self._counter = 0
        self._order: tuple[DagNode, ...] | None = None

    @classmethod
    def from_ops(cls, ops: Sequence[PreprocessingOp],
                 device: str = "cpu") -> "PreprocessingDAG":
        """Build a linear chain DAG from an ordered operator list."""
        dag = cls()
        previous = None
        for op in ops:
            node = dag.add_op(op, device=device)
            if previous is not None:
                dag.add_edge(previous, node)
            previous = node
        return dag

    def add_op(self, op: PreprocessingOp, device: str = "cpu") -> str:
        """Add an operator node and return its node id."""
        node_id = f"{op.name}-{self._counter}"
        self._counter += 1
        self._order = None
        self._graph.add_node(node_id, node=DagNode(node_id=node_id, op=op,
                                                   device=device))
        return node_id

    def add_edge(self, src: str, dst: str) -> None:
        """Add a dependency edge ``src -> dst``, rejecting cycles."""
        if src not in self._graph or dst not in self._graph:
            raise InvalidDAGError("both endpoints must be existing nodes")
        self._order = None
        self._graph.add_edge(src, dst)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(src, dst)
            raise InvalidDAGError(f"edge {src} -> {dst} would create a cycle")

    def node(self, node_id: str) -> DagNode:
        """Return the :class:`DagNode` with the given id."""
        try:
            return self._graph.nodes[node_id]["node"]
        except KeyError as exc:
            raise InvalidDAGError(f"no node {node_id!r}") from exc

    def nodes(self) -> list[DagNode]:
        """All nodes in insertion order."""
        return [self._graph.nodes[n]["node"] for n in self._graph.nodes]

    def topological_ops(self) -> list[DagNode]:
        """Nodes in a deterministic topological order."""
        order = list(nx.lexicographical_topological_sort(self._graph))
        return [self._graph.nodes[n]["node"] for n in order]

    @property
    def num_nodes(self) -> int:
        """Number of operator nodes."""
        return self._graph.number_of_nodes()

    def validate(self) -> None:
        """Check structural invariants for an executable chain.

        The executable form must be a connected chain with exactly one source
        and one sink (each image flows through every operator once).
        """
        if self.num_nodes == 0:
            raise InvalidDAGError("empty preprocessing DAG")
        if not nx.is_directed_acyclic_graph(self._graph):
            raise InvalidDAGError("preprocessing graph contains a cycle")
        sources = [n for n in self._graph if self._graph.in_degree(n) == 0]
        sinks = [n for n in self._graph if self._graph.out_degree(n) == 0]
        if len(sources) != 1 or len(sinks) != 1:
            raise InvalidDAGError(
                "executable pipelines need one source and one sink, found "
                f"{len(sources)} sources and {len(sinks)} sinks"
            )
        if self.num_nodes > 1 and not nx.is_weakly_connected(self._graph):
            raise InvalidDAGError("preprocessing graph is disconnected")

    def execution_order(self) -> tuple[DagNode, ...]:
        """The validated topological order, computed once per graph shape.

        ``add_op`` / ``add_edge`` reset it.  Two threads that both find it
        unset each compute the same tuple; the second store is harmless.
        """
        order = self._order
        if order is None:
            self.validate()
            order = self._order = tuple(self.topological_ops())
        return order

    def execute(self, array: np.ndarray) -> np.ndarray:
        """Run the pipeline on a real array (functional path)."""
        result = array
        for node in self.execution_order():
            result = node.op.apply(result)
        return result

    def output_spec(self, input_spec: TensorSpec) -> TensorSpec:
        """Propagate a tensor spec through the pipeline."""
        spec = input_spec
        for node in self.execution_order():
            spec = node.op.output_spec(spec)
        return spec

    def op_sequence(self) -> list[PreprocessingOp]:
        """The operators in execution order."""
        return [node.op for node in self.topological_ops()]

    def devices(self) -> dict[str, str]:
        """Mapping of node id to assigned device."""
        return {node.node_id: node.device for node in self.nodes()}

    def assign_devices(self, assignment: dict[str, str]) -> None:
        """Set the device for each node id in ``assignment``."""
        for node_id, device in assignment.items():
            node = self.node(node_id)
            if device not in ("cpu", "accelerator"):
                raise InvalidDAGError(f"invalid device {device!r}")
            node.device = device

    def copy(self) -> "PreprocessingDAG":
        """Deep-ish copy preserving ops (ops are immutable) and devices."""
        clone = PreprocessingDAG()
        mapping: dict[str, str] = {}
        for node in self.topological_ops():
            mapping[node.node_id] = clone.add_op(node.op, device=node.device)
        for src, dst in self._graph.edges:
            clone.add_edge(mapping[src], mapping[dst])
        return clone

    def describe(self) -> str:
        """One-line human-readable description of the pipeline."""
        parts = [
            f"{node.op.name}@{node.device}" for node in self.topological_ops()
        ]
        return " -> ".join(parts)


def dag_fingerprint(dag: PreprocessingDAG) -> str:
    """Fingerprint of a preprocessing DAG's executable spec.

    Covers the operator sequence and device placement (``describe()``) plus
    every public attribute of every op, so any spec change -- op order,
    parameters, placement -- produces a new fingerprint.  It keys both the
    compiled-kernel cache (:mod:`repro.fuse.compiler`) and persisted
    renditions and scores (:mod:`repro.store`), whose manifests record it:
    the digest of an unchanged DAG must not change.
    """
    parts: list[object] = [dag.describe()]
    for node in dag.topological_ops():
        parts.append(sorted(
            (k, repr(v)) for k, v in vars(node.op).items()
            if not k.startswith("_")
        ))
    text = "\x1f".join(str(part) for part in parts)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
