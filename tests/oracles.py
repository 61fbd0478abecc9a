"""Test oracles: the dict-walk traversal helpers and rectifiers that the
compiled circuit view replaced.

Each walker copies ``Circuit.gates`` and walks it with Python sets; the
rectifiers are the Fig. 3c / 3d post-processing loops written over those
walkers.  They exist only so the compiled implementations can be checked
against them on random circuits and label flips.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from repro.locking.base import ANTISAT, DESIGN, PERTURB, RESTORE
from repro.netlist import Circuit


def oracle_fanin_cone(circuit: Circuit, net: str, include_start: bool = True) -> Set[str]:
    gates = circuit.gates
    seen: Set[str] = set()
    stack: List[str] = [net]
    while stack:
        current = stack.pop()
        gate = gates.get(current)
        if gate is None or current in seen:
            continue
        seen.add(current)
        stack.extend(gate.inputs)
    if not include_start:
        seen.discard(net)
    return seen


def oracle_fanout_cone(circuit: Circuit, net: str, include_start: bool = True) -> Set[str]:
    fanout: Dict[str, List[str]] = {}
    for gate in circuit.gates.values():
        for source in gate.inputs:
            fanout.setdefault(source, []).append(gate.name)
    seen: Set[str] = set()
    stack: List[str] = list(fanout.get(net, ()))
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        stack.extend(fanout.get(current, ()))
    if include_start and net in circuit.gates:
        seen.add(net)
    elif not include_start:
        seen.discard(net)
    return seen


def oracle_transitive_inputs(circuit: Circuit, net: str) -> Set[str]:
    gates = circuit.gates
    terminals: Set[str] = set()
    seen: Set[str] = set()
    stack: List[str] = [net]
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        gate = gates.get(current)
        if gate is None:
            if current in circuit.inputs or current in circuit.key_inputs:
                terminals.add(current)
            continue
        stack.extend(gate.inputs)
    return terminals


def oracle_gate_levels(circuit: Circuit) -> Dict[str, int]:
    levels: Dict[str, int] = {}
    gates = circuit.gates
    for name in circuit.topological_order():
        levels[name] = 1 + max(levels.get(net, 0) for net in gates[name].inputs)
    return levels


def oracle_primary_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    return {n for n in oracle_transitive_inputs(circuit, net) if n in circuit.inputs}


def oracle_key_inputs_in_fanin(circuit: Circuit, net: str) -> Set[str]:
    return {n for n in oracle_transitive_inputs(circuit, net) if n in circuit.key_inputs}


# ---------------------------------------------------------------------------
# Rectifiers (Fig. 3c / 3d) over the walkers
# ---------------------------------------------------------------------------

_XOR_CELLS = ("XOR", "XNOR", "XOR2", "XNOR2", "XOR3", "XNOR3")


def _support_sets(circuit: Circuit, gate: str) -> Tuple[Set[str], Set[str]]:
    """(primary inputs, key inputs) in the structural support of ``gate``."""
    support = oracle_transitive_inputs(circuit, gate)
    pis = {n for n in support if circuit.is_input(n)}
    kis = {n for n in support if circuit.is_key_input(n)}
    return pis, kis


def _direct_pi_anchors(
    circuit: Circuit, predictions: Mapping[str, str], label: str
) -> Set[str]:
    """Protected-input estimate: PIs read directly by ``label`` gates that
    also read a key input directly.

    The first layer of both the restore unit and the Anti-SAT block combines
    each selected design input with a key bit, so those gates anchor the
    protected-input recovery even when deeper predictions are noisy.
    """
    anchors: Set[str] = set()
    for gate, lab in predictions.items():
        if lab != label:
            continue
        inputs = circuit.gate(gate).inputs
        if not any(circuit.is_key_input(net) for net in inputs):
            continue
        anchors |= {net for net in inputs if circuit.is_input(net)}
    return anchors


# ---------------------------------------------------------------------------
# Anti-SAT
# ---------------------------------------------------------------------------

def oracle_postprocess_antisat(
    circuit: Circuit, predictions: Mapping[str, str]
) -> Dict[str, str]:
    """Rectify Anti-SAT predictions (Fig. 3c)."""
    rectified: Dict[str, str] = dict(predictions)

    block_inputs = _direct_pi_anchors(circuit, predictions, ANTISAT)
    if not block_inputs:
        # Fall back to the support of every predicted Anti-SAT gate.
        for gate, label in predictions.items():
            if label == ANTISAT:
                block_inputs |= oracle_primary_inputs_in_fanin(circuit, gate)

    # Rule 1: an Anti-SAT node has KIs in its fan-in cone and is controlled
    # only by the block's own inputs; other Anti-SAT predictions are dropped.
    for gate, label in predictions.items():
        if label != ANTISAT:
            continue
        pis, kis = _support_sets(circuit, gate)
        if not kis:
            rectified[gate] = DESIGN
        elif pis and not pis <= block_inputs:
            rectified[gate] = DESIGN

    # Rule 2: a predicted design node whose fan-in cone gates are all
    # (predicted) Anti-SAT nodes belongs to the Anti-SAT block.  The first
    # key-XOR layer has an empty gate cone, so it qualifies whenever it reads
    # a KI and only block inputs.
    for gate, label in predictions.items():
        if label != DESIGN:
            continue
        if not oracle_key_inputs_in_fanin(circuit, gate):
            continue
        cone = oracle_fanin_cone(circuit, gate, include_start=False)
        if not all(rectified.get(g) == ANTISAT for g in cone):
            continue
        pis, _ = _support_sets(circuit, gate)
        if pis <= block_inputs:
            rectified[gate] = ANTISAT

    # Rule 3: recover a misclassified integration XOR.  The gate that splices
    # the Anti-SAT output into the design is an XOR with exactly one input
    # whose entire cone is Anti-SAT logic; if it ended up labelled as a design
    # node the removal would leave a dangling reference, so reclassify it.
    for gate, label in list(rectified.items()):
        if label != DESIGN:
            continue
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            continue
        antisat_inputs = 0
        design_inputs = 0
        for net in circuit.gate(gate).inputs:
            if rectified.get(net) == ANTISAT:
                cone = oracle_fanin_cone(circuit, net, include_start=True)
                if cone and all(rectified.get(g) == ANTISAT for g in cone):
                    antisat_inputs += 1
                    continue
            design_inputs += 1
        if antisat_inputs == 1 and design_inputs <= 1:
            rectified[gate] = ANTISAT
    return rectified


# ---------------------------------------------------------------------------
# TTLock / SFLL-HD
# ---------------------------------------------------------------------------

def oracle_postprocess_sfll(
    circuit: Circuit, predictions: Mapping[str, str]
) -> Dict[str, str]:
    """Rectify TTLock / SFLL-HD predictions (Fig. 3d)."""
    rectified: Dict[str, str] = dict(predictions)

    # Protected inputs X, anchored on restore-unit comparator gates: any gate
    # predicted as protection logic (restore or perturb) that reads a key
    # input directly belongs to the comparator layer, and the PIs it reads are
    # protected inputs.  Fall back to the full support of the predicted
    # restore logic if the GNN missed that whole layer.
    protected_inputs = _direct_pi_anchors(
        circuit, predictions, RESTORE
    ) | _direct_pi_anchors(circuit, predictions, PERTURB)
    if not protected_inputs:
        for gate, label in predictions.items():
            if label == RESTORE and oracle_key_inputs_in_fanin(circuit, gate):
                protected_inputs |= oracle_primary_inputs_in_fanin(circuit, gate)

    verified_restore: Set[str] = set()
    verified_perturb: Set[str] = set()

    def is_verified_restore(gate: str) -> bool:
        """Restore logic proper: support inside X plus at least one KI."""
        if gate in verified_restore:
            return True
        pis, kis = _support_sets(circuit, gate)
        if kis and pis <= protected_inputs:
            verified_restore.add(gate)
            return True
        return False

    def is_verified_perturb(gate: str) -> bool:
        """Perturb logic proper: support inside X, no KIs."""
        if gate in verified_perturb:
            return True
        pis, kis = _support_sets(circuit, gate)
        if pis and not kis and pis <= protected_inputs:
            verified_perturb.add(gate)
            return True
        return False

    def is_stripping_xor(gate: str) -> bool:
        """XOR combining exactly one design signal with verified perturb logic."""
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            return False
        design_like = 0
        perturb_like = 0
        for net in circuit.gate(gate).inputs:
            label = rectified.get(net)
            if label == PERTURB and is_verified_perturb(net):
                perturb_like += 1
            elif label in (RESTORE, ANTISAT, PERTURB):
                return False
            else:
                design_like += 1
        return perturb_like >= 1 and design_like <= 1

    def is_restoring_xor(gate: str) -> bool:
        """XOR merging the restore signal back into the stripped output."""
        if circuit.gate(gate).cell.name not in _XOR_CELLS:
            return False
        has_restore = False
        other_ok = True
        for net in circuit.gate(gate).inputs:
            label = rectified.get(net)
            if label == RESTORE and is_verified_restore(net):
                has_restore = True
            elif label == RESTORE:
                other_ok = False
        return has_restore and other_ok

    # Rule 1 (restore check): restore nodes have KIs in their fan-in cone and
    # are controlled only by X and KIs; the restoring XOR at the protected
    # output is the one exception (its support covers the design cone).
    for gate, label in predictions.items():
        if label != RESTORE:
            continue
        pis, kis = _support_sets(circuit, gate)
        if kis and pis <= protected_inputs:
            verified_restore.add(gate)
            continue
        if kis and is_restoring_xor(gate):
            continue
        if not kis and ((pis and pis <= protected_inputs) or is_stripping_xor(gate)):
            rectified[gate] = PERTURB
        else:
            rectified[gate] = DESIGN

    # Rule 2 (perturb check): perturb nodes are controlled solely by protected
    # inputs; a KI in the support moves the gate to the restore class, other
    # violations to the design class, except for the output-stripping XOR and
    # the restoring XOR (the two splice gates see the design cone as well).
    for gate, label in list(rectified.items()):
        if label != PERTURB:
            continue
        pis, kis = _support_sets(circuit, gate)
        if kis:
            if pis <= protected_inputs or is_restoring_xor(gate):
                rectified[gate] = RESTORE
            else:
                rectified[gate] = DESIGN
            continue
        if pis and pis <= protected_inputs:
            verified_perturb.add(gate)
            continue
        if is_stripping_xor(gate):
            continue
        rectified[gate] = DESIGN

    # Rule 3 (design check): promotions cascade along the stripping XOR ->
    # restoring XOR chain, so iterate to a fixpoint.
    changed = True
    while changed:
        changed = False
        for gate, label in list(rectified.items()):
            if label != DESIGN:
                continue
            inputs = circuit.gate(gate).inputs
            direct_labels = {rectified.get(net) for net in inputs}

            # Restoring XOR missed by the GNN.
            if (
                PERTURB in direct_labels
                and RESTORE in direct_labels
                and circuit.gate(gate).cell.name in _XOR_CELLS
            ):
                rectified[gate] = RESTORE
                changed = True
                continue

            # Interior perturb gates / stripping XOR missed by the GNN.
            if PERTURB in direct_labels:
                pis, kis = _support_sets(circuit, gate)
                if kis:
                    continue
                if (pis and pis <= protected_inputs) or is_stripping_xor(gate):
                    rectified[gate] = PERTURB
                    changed = True

    # Rule 4 (perturb pruning): every true perturb gate ultimately drives
    # other perturb logic or the splice XORs, never plain design logic.  An
    # isolated perturb-labelled gate surrounded by design gates is a GNN false
    # positive (e.g. a NOR-tree in the design whose support happens to sit
    # inside X) — drop it.  Iterate so chains of false positives unwind.
    fanout = circuit.fanout_map()
    changed = True
    while changed:
        changed = False
        for gate, label in list(rectified.items()):
            if label != PERTURB:
                continue
            sinks = fanout.get(gate, ())
            if not sinks:
                rectified[gate] = DESIGN
                changed = True
                continue
            if not any(rectified.get(sink) in (PERTURB, RESTORE) for sink in sinks):
                rectified[gate] = DESIGN
                changed = True
    return rectified
