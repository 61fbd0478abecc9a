"""Dataset assembly: locked circuits -> one block-diagonal GNN dataset.

A :class:`LockedInstance` is one locked benchmark (with ground truth); a
:class:`NodeDataset` stacks many instances into the block-diagonal adjacency /
feature matrix / label vector consumed by the GNN, keeping track of which node
belongs to which instance so leave-one-design-out splits and per-design
metrics remain possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..gnn.data import GraphData
from ..locking.base import LockingResult
from ..obs import span
from .features import neighbourhood_counts, node_columns
from .graph import CircuitGraph, block_diagonal, circuit_to_graph
from .labeling import class_map_for_scheme, labels_to_classes

__all__ = ["LockedInstance", "NodeDataset", "build_dataset"]


@dataclass
class LockedInstance:
    """One locked benchmark plus the metadata needed for reporting."""

    benchmark: str
    suite: str
    result: LockingResult
    key_size: int
    h: Optional[int] = None
    technology: str = "BENCH8"
    copy_index: int = 0

    @property
    def name(self) -> str:
        h_part = f"_h{self.h}" if self.h is not None else ""
        return (
            f"{self.benchmark}_{self.result.scheme.replace('-', '').lower()}"
            f"_k{self.key_size}{h_part}_c{self.copy_index}"
        )


@dataclass
class NodeDataset:
    """Block-diagonal dataset over many locked instances."""

    instances: List[LockedInstance]
    graphs: List[CircuitGraph]
    features: np.ndarray
    labels: np.ndarray
    adjacency: sp.csr_matrix
    node_names: List[str]
    instance_index: np.ndarray  # per-node index into ``instances``
    class_map: Dict[str, int]

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_map)

    def nodes_of_instance(self, index: int) -> np.ndarray:
        """Global node indices belonging to instance ``index``."""
        return np.flatnonzero(self.instance_index == index)

    def instances_of_benchmark(self, benchmark: str) -> List[int]:
        return [
            i for i, inst in enumerate(self.instances) if inst.benchmark == benchmark
        ]

    def benchmarks(self) -> List[str]:
        seen: List[str] = []
        for inst in self.instances:
            if inst.benchmark not in seen:
                seen.append(inst.benchmark)
        return seen

    def to_graph_data(
        self,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        test_mask: np.ndarray,
    ) -> GraphData:
        """Package the dataset with masks for the GNN trainer."""
        return GraphData(
            adjacency=self.adjacency,
            features=self.features,
            labels=self.labels,
            train_mask=np.asarray(train_mask, dtype=bool),
            val_mask=np.asarray(val_mask, dtype=bool),
            test_mask=np.asarray(test_mask, dtype=bool),
            node_names=self.node_names,
            graph_ids=self.instance_index,
        )

    def summary(self) -> Dict[str, object]:
        """Table III-style dataset summary."""
        return {
            "#Circuits": len(self.instances),
            "#Nodes": int(self.n_nodes),
            "#Classes": self.n_classes,
            "|f|": int(self.n_features),
        }


def build_dataset(instances: Sequence[LockedInstance]) -> NodeDataset:
    """Assemble locked instances into one GNN dataset.

    All instances must use the same locking family (same class map) and the
    same cell library (same feature length).
    """
    with span("dataset_build", instances=len(instances)):
        return _build(instances)


def _build(instances: Sequence[LockedInstance]) -> NodeDataset:
    if not instances:
        raise ValueError("cannot build a dataset from zero instances")
    class_map = class_map_for_scheme(instances[0].result.scheme)
    for inst in instances:
        if class_map_for_scheme(inst.result.scheme) != class_map:
            raise ValueError(
                "all instances in a dataset must share the same classification "
                f"task; got {inst.result.scheme} vs {instances[0].result.scheme}"
            )

    graphs: List[CircuitGraph] = []
    structural_blocks: List[np.ndarray] = []
    onehot_blocks: List[np.ndarray] = []
    label_blocks: List[np.ndarray] = []
    node_names: List[str] = []
    instance_index_parts: List[np.ndarray] = []

    for idx, inst in enumerate(instances):
        circuit = inst.result.locked
        graph = circuit_to_graph(circuit)
        graphs.append(graph)
        structural, type_onehot = node_columns(circuit, graph)
        structural_blocks.append(structural)
        onehot_blocks.append(type_onehot)
        label_blocks.append(labels_to_classes(inst.result, graph, class_map))
        prefix = f"{inst.name}::"
        node_names.extend([prefix + node for node in graph.nodes])
        instance_index_parts.append(np.full(graph.n_nodes, idx, dtype=np.int64))

    if len({block.shape[1] for block in onehot_blocks}) != 1:
        raise ValueError("instances use different cell libraries (|f| mismatch)")
    # The neighbourhood counts of every design in one pass over the
    # block-diagonal adjacency (no edges between designs).
    adjacency = block_diagonal(graphs)
    counts = neighbourhood_counts(adjacency, np.vstack(onehot_blocks))
    features = np.hstack((np.vstack(structural_blocks), counts))
    return NodeDataset(
        instances=list(instances),
        graphs=graphs,
        features=features,
        labels=np.concatenate(label_blocks),
        adjacency=adjacency,
        node_names=node_names,
        instance_index=np.concatenate(instance_index_parts),
        class_map=class_map,
    )
