"""Netlist-to-graph transformation (Section IV-B of the paper).

A locked netlist is modelled as an *undirected* graph ``G(I, J)``: the node
set ``I`` contains all gates (PIs, KIs and POs are *not* nodes), the edge set
``J`` contains one edge per wire between two gates.  Connectivity to PIs, KIs
and POs is captured in the node feature vectors instead
(:mod:`repro.core.features`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..netlist.circuit import Circuit
from ..netlist.traversal import circuit_view

__all__ = ["CircuitGraph", "circuit_to_graph", "block_diagonal"]


@dataclass
class CircuitGraph:
    """Graph view of one netlist: node ordering, adjacency and port flags."""

    circuit: Circuit
    nodes: Tuple[str, ...]
    adjacency: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node_index(self, name: str) -> int:
        return self._index[name]

    def __post_init__(self) -> None:
        self._index: Dict[str, int] = {name: i for i, name in enumerate(self.nodes)}


def circuit_to_graph(circuit: Circuit) -> CircuitGraph:
    """Convert a netlist to its undirected gate-connectivity graph."""
    view = circuit_view(circuit)
    n = view.n_gates
    nodes = view.names[:n]
    sinks, sources = view.edge_arrays()
    wire = sources < n  # PI / KI reads are features, not edges
    rows = np.concatenate((sinks[wire], sources[wire]))
    cols = np.concatenate((sources[wire], sinks[wire]))
    if rows.size:
        data = np.ones(rows.size, dtype=np.float64)
        adjacency = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
        adjacency.data[:] = 1.0  # collapse duplicate edges
    else:
        adjacency = sp.csr_matrix((n, n))
    return CircuitGraph(circuit=circuit, nodes=nodes, adjacency=adjacency)


def block_diagonal(graphs: Sequence[CircuitGraph]) -> sp.csr_matrix:
    """Block-diagonal adjacency of several circuit graphs.

    This is how multiple locked designs of different sizes are fed to the GNN
    as one dataset (Section IV-B): each block is the adjacency of one locked
    design and there are no edges between designs.
    """
    if not graphs:
        return sp.csr_matrix((0, 0))
    return sp.block_diag([g.adjacency for g in graphs], format="csr")
