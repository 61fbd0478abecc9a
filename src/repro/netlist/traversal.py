"""Structural traversal over a compiled view: cones, levels, support.

These routines back both the GNNUnlock post-processing algorithm (which
reasons about KI / protected-input membership of fan-in cones) and the
baseline attacks (which trace key inputs through the netlist).

Every query runs on a :class:`CircuitView`, the circuit compiled once, on
first use, into integers:

* net ids: the gates first, in ``gate_names()`` order (so a gate's id is its
  :class:`~repro.core.graph.CircuitGraph` node index), then the primary
  inputs, the key inputs and any dangling (undeclared) net a gate reads;
* a fan-in CSR (each gate's inputs in order, duplicates kept) and a fan-out
  CSR (each net's reading gates in gate order, one entry per read);
* per-net support bitmasks over the PI / KI terminals (bit ``t`` is net id
  ``n_gates + t``: PIs first, then KIs), computed on first use in one
  topological pass, with a fixpoint over gates on or behind a combinational
  cycle.

The view is cached on the circuit, dropped by every mutation and never
pickled.  The helpers keep the semantics of a walk over the gate dict: PIs
and KIs end a fan-in walk, a dangling reference contributes nothing and a
cycle terminates.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .circuit import Circuit

__all__ = [
    "CircuitView",
    "circuit_view",
    "fanin_cone",
    "fanout_cone",
    "transitive_inputs",
    "has_key_input_in_fanin",
    "primary_inputs_in_fanin",
    "key_inputs_in_fanin",
    "gate_levels",
    "output_cone",
]


class CircuitView:
    """One version of a circuit compiled to integer ids (see module docstring)."""

    __slots__ = (
        "names",
        "index",
        "n_gates",
        "n_pi",
        "n_ki",
        "fanin_ptr",
        "fanin",
        "fanout_ptr",
        "fanout",
        "_support",
    )

    def __init__(self, circuit: Circuit) -> None:
        gates = list(circuit)
        index: Dict[str, int] = {gate.name: i for i, gate in enumerate(gates)}
        self.n_gates = n = len(index)
        for net in circuit.all_inputs:
            index[net] = len(index)
        self.n_pi = len(circuit.inputs)
        self.n_ki = len(circuit.key_inputs)

        reads = [net for gate in gates for net in gate.inputs]
        try:
            fanin = [index[net] for net in reads]
        except KeyError:  # dangling references get ids of their own
            for net in reads:
                index.setdefault(net, len(index))
            fanin = [index[net] for net in reads]
        fanin_ptr = [0, *accumulate(len(gate.inputs) for gate in gates)]
        self.names = tuple(index)
        self.index = index
        self.fanin = fanin
        self.fanin_ptr = fanin_ptr

        # Fan-out CSR: a stable sort of the fan-in entries by net keeps each
        # net's readers in gate order, one entry per read.
        readers, sources = self.edge_arrays()
        self.fanout = readers[np.argsort(sources, kind="stable")].tolist()
        counts = np.bincount(sources, minlength=len(index))
        self.fanout_ptr = [0] + np.cumsum(counts).tolist()
        self._support: Optional[List[int]] = None

    # ------------------------------------------------------------------
    def gate_id(self, name: str) -> Optional[int]:
        """Id of the gate driving ``name``, or ``None`` for any other net."""
        i = self.index.get(name)
        return i if i is not None and i < self.n_gates else None

    def inputs_of(self, g: int) -> List[int]:
        return self.fanin[self.fanin_ptr[g] : self.fanin_ptr[g + 1]]

    def sinks_of(self, i: int) -> List[int]:
        return self.fanout[self.fanout_ptr[i] : self.fanout_ptr[i + 1]]

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The fan-in CSR as (reading gate, net read) arrays, one per read."""
        degree = np.diff(self.fanin_ptr)
        sinks = np.repeat(np.arange(self.n_gates, dtype=np.int64), degree)
        return sinks, np.asarray(self.fanin, dtype=np.int64)

    @property
    def pi_bits(self) -> int:
        """Support-mask bits of the primary inputs."""
        return (1 << self.n_pi) - 1

    def reads(self, g: int) -> int:
        """Terminal bitmask of the PIs / KIs gate ``g`` reads directly."""
        n = self.n_gates
        end = n + self.n_pi + self.n_ki
        mask = 0
        for i in self.inputs_of(g):
            if n <= i < end:
                mask |= 1 << (i - n)
        return mask

    def support(self) -> List[int]:
        """Terminal bitmask of the structural support of every net id."""
        if self._support is None:
            self._support = self._compile_support()
        return self._support

    def support_of(self, net: str) -> int:
        """Support bitmask of ``net`` (0 for a dangling or unknown net)."""
        i = self.index.get(net)
        return 0 if i is None else self.support()[i]

    def _compile_support(self) -> List[int]:
        n = self.n_gates
        n_terms = self.n_pi + self.n_ki
        support = [0] * n + [1 << t for t in range(n_terms)]
        support += [0] * (len(self.names) - len(support))
        ptr, fanin = self.fanin_ptr, self.fanin
        # Kahn's algorithm over gate-to-gate reads; OR is order-free, so the
        # ready list needs no tie-breaking.
        pending = [0] * n
        for sink in self.fanout[: self.fanout_ptr[n]]:  # readers of gate nets
            pending[sink] += 1
        ready = [g for g in range(n) if not pending[g]]
        for g in ready:  # grows while it is walked
            mask = 0
            for i in fanin[ptr[g] : ptr[g + 1]]:
                mask |= support[i]
            support[g] = mask
            for sink in self.sinks_of(g):
                pending[sink] -= 1
                if not pending[sink]:
                    ready.append(sink)
        if len(ready) < n:
            # Gates on or behind a combinational cycle: least fixpoint.
            rest = [g for g in range(n) if pending[g]]
            changed = True
            while changed:
                changed = False
                for g in rest:
                    mask = support[g]
                    for i in fanin[ptr[g] : ptr[g + 1]]:
                        mask |= support[i]
                    if mask != support[g]:
                        support[g] = mask
                        changed = True
        return support

    def terminal_names(self, mask: int) -> Set[str]:
        """The PI / KI names whose bits are set in ``mask``."""
        names, base = self.names, self.n_gates
        found: Set[str] = set()
        while mask:
            low = mask & -mask
            found.add(names[base + low.bit_length() - 1])
            mask ^= low
        return found

    def cone_within(self, g: int, inside: bytearray, *, include_start: bool) -> bool:
        """Whether every gate in the fan-in cone of gate ``g`` is ``inside``.

        ``inside`` is indexed by gate id.  Without ``include_start`` gate
        ``g`` itself is exempt, even when a cycle leads back to it.  The walk
        stops at the first gate outside.
        """
        if include_start and not inside[g]:
            return False
        n, ptr, fanin = self.n_gates, self.fanin_ptr, self.fanin
        seen = {g}
        stack = [g]
        while stack:
            current = stack.pop()
            for i in fanin[ptr[current] : ptr[current + 1]]:
                if i < n and i not in seen:
                    if not inside[i]:
                        return False
                    seen.add(i)
                    stack.append(i)
        return True


def circuit_view(circuit: Circuit) -> CircuitView:
    """The compiled view of ``circuit``'s current version (built on first use)."""
    view = circuit._view
    if view is None:
        view = circuit._view = CircuitView(circuit)
    return view


def fanin_cone(circuit: Circuit, net: str, *, include_start: bool = True) -> Set[str]:
    """All gate names in the transitive fan-in of ``net``.

    PIs and KIs terminate the traversal and are not included (they are not
    gates).  ``net`` itself is included when it names a gate and
    ``include_start`` is true.
    """
    view = circuit_view(circuit)
    g = view.gate_id(net)
    if g is None:
        return set()
    n, ptr, fanin = view.n_gates, view.fanin_ptr, view.fanin
    cone = {g}
    stack = [g]
    while stack:
        current = stack.pop()
        for i in fanin[ptr[current] : ptr[current + 1]]:
            if i < n and i not in cone:
                cone.add(i)
                stack.append(i)
    if not include_start:
        cone.discard(g)
    names = view.names
    return {names[i] for i in cone}


def fanout_cone(circuit: Circuit, net: str, *, include_start: bool = True) -> Set[str]:
    """All gate names in the transitive fan-out of ``net``."""
    view = circuit_view(circuit)
    start = view.index.get(net)
    seen: Set[int] = set()
    if start is not None:
        ptr, fanout = view.fanout_ptr, view.fanout
        stack = view.sinks_of(start)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(fanout[ptr[current] : ptr[current + 1]])
    names = view.names
    cone = {names[i] for i in seen}
    if include_start and circuit.has_gate(net):
        cone.add(net)
    elif not include_start:
        cone.discard(net)
    return cone


def transitive_inputs(circuit: Circuit, net: str) -> Set[str]:
    """The set of PI / KI names feeding ``net`` (its structural support)."""
    view = circuit_view(circuit)
    return view.terminal_names(view.support_of(net))


def primary_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Primary (non-key) inputs in the structural support of ``net``."""
    view = circuit_view(circuit)
    return view.terminal_names(view.support_of(net) & view.pi_bits)


def key_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    """Key inputs in the structural support of ``net``."""
    view = circuit_view(circuit)
    return view.terminal_names(view.support_of(net) & ~view.pi_bits)


def has_key_input_in_fanin(circuit: Circuit, net: str) -> bool:
    """True when at least one KI lies in the fan-in cone of ``net``."""
    view = circuit_view(circuit)
    return bool(view.support_of(net) >> view.n_pi)


def gate_levels(circuit: Circuit) -> Dict[str, int]:
    """Logic level of each gate (PIs/KIs are level 0; a gate is 1 + max input).

    Raises :class:`CircuitError` on a combinational cycle or an undeclared
    net, like :meth:`Circuit.topological_order`.
    """
    order = circuit.topological_order()
    view = circuit_view(circuit)
    level = [0] * len(view.names)
    levels: Dict[str, int] = {}
    for name in order:
        g = view.index[name]
        level[g] = 1 + max(level[i] for i in view.inputs_of(g))
        levels[name] = level[g]
    return levels


def output_cone(circuit: Circuit, output: str) -> Set[str]:
    """Gates in the fan-in cone of a primary output."""
    return fanin_cone(circuit, output, include_start=True)

