"""Per-node feature extraction (Section IV-B of the paper).

Each gate's feature vector ``f`` contains:

* whether the gate is connected to a primary input (PI),
* whether the gate is connected to a key input (KI),
* whether the gate drives a primary output (PO),
* its in-degree ``IN`` and out-degree ``OUT``,
* one count per library cell type: how many gates of that type appear in the
  node's two-hop neighbourhood.

The vector length is therefore ``5 + len(library)``: 13 for the bench-format
(8-cell) vocabulary, 34 for the 65nm-like library and 18 for the 45nm-like
library — matching Table III of the paper.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.sparse as sp

from ..netlist.circuit import Circuit
from ..netlist.traversal import circuit_view
from .graph import CircuitGraph, circuit_to_graph

__all__ = [
    "feature_names",
    "extract_features",
    "node_columns",
    "neighbourhood_counts",
    "FEATURE_STRUCTURAL",
]

#: The five structural features preceding the per-cell neighbourhood counts.
FEATURE_STRUCTURAL: Tuple[str, ...] = ("PI", "KI", "PO", "IN", "OUT")


def feature_names(circuit_or_library) -> List[str]:
    """Names of the feature-vector entries for a circuit (or its library)."""
    library = getattr(circuit_or_library, "library", circuit_or_library)
    return list(FEATURE_STRUCTURAL) + [f"NB_{cell.name}" for cell in library]


def extract_features(
    circuit: Circuit, graph: CircuitGraph | None = None, *, hops: int = 2
) -> np.ndarray:
    """Feature matrix of shape ``(n_gates, 5 + n_cell_types)``.

    ``hops`` controls the neighbourhood radius of the gate-type counts; the
    paper uses two hops.
    """
    if graph is None:
        graph = circuit_to_graph(circuit)
    structural, type_onehot = node_columns(circuit, graph)
    counts = neighbourhood_counts(graph.adjacency, type_onehot, hops=hops)
    return np.hstack((structural, counts))


def node_columns(circuit: Circuit, graph: CircuitGraph) -> Tuple[np.ndarray, np.ndarray]:
    """The five structural features and the one-hot cell type of every node.

    Both come straight from the compiled fan-in / fan-out CSRs of
    :func:`~repro.netlist.traversal.circuit_view`.
    """
    view = circuit_view(circuit)
    if graph.nodes != view.names[: view.n_gates]:
        raise ValueError("graph nodes do not follow the circuit's gate order")
    n = graph.n_nodes
    structural = np.zeros((n, len(FEATURE_STRUCTURAL)), dtype=np.float64)
    sinks, sources = view.edge_arrays()
    first_ki = n + view.n_pi
    reads_pi = (sources >= n) & (sources < first_ki)
    reads_ki = (sources >= first_ki) & (sources < first_ki + view.n_ki)
    structural[sinks[reads_pi], 0] = 1.0
    structural[sinks[reads_ki], 1] = 1.0
    outputs = [g for g in map(view.gate_id, circuit.outputs) if g is not None]
    structural[outputs, 2] = 1.0
    structural[:, 3] = np.diff(view.fanin_ptr)
    structural[:, 4] = np.diff(view.fanout_ptr[: n + 1])

    library = circuit.library
    type_onehot = np.zeros((n, len(library)), dtype=np.float64)
    cell_index = [library.index(gate.cell.name) for gate in circuit]
    type_onehot[np.arange(n), cell_index] = 1.0
    return structural, type_onehot


def neighbourhood_counts(
    adjacency: sp.csr_matrix, type_onehot: np.ndarray, *, hops: int = 2
) -> np.ndarray:
    """Per-node counts of each cell type within ``hops`` hops.

    The node itself is not counted, matching the example in Fig. 3b where
    node i's own XOR is left out.  Rows only see their own connected block,
    so one call over a block-diagonal adjacency equals one call per block.
    """
    reach = power = adjacency
    for _ in range(hops - 1):
        power = power @ adjacency
        reach = reach + power
    reach = (reach > 0).astype(np.float64)
    counts = reach @ type_onehot
    # The reach diagonal is 0/1: subtract each node's own cell where set.
    counts -= reach.diagonal()[:, None] * type_onehot
    return counts
