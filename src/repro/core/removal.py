"""Protection-logic removal and design recovery.

Once every gate carries a final label (GNN prediction + post-processing), the
protection logic is deleted and the netlist repaired:

* all gates labelled AN / PN / RN are removed, together with the key inputs;
* any surviving gate (or primary output) that referenced a removed net is
  re-wired by *resolving through* the removed integration XORs: an XOR that
  combined a design signal with a protection signal is bypassed to the design
  signal.  This is exactly the repair the paper performs when it removes the
  identified protection logic to "retrieve the original design".
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set

from ..locking.base import DESIGN
from ..netlist.circuit import Circuit, CircuitError
from ..obs import span

__all__ = ["RemovalError", "remove_protection_logic"]

_PASS_THROUGH_CELLS = frozenset(
    {"XOR", "XNOR", "XOR2", "XNOR2", "XOR3", "XNOR3", "BUF", "NOT", "INV"}
)


class RemovalError(CircuitError):
    """Raised when the predicted protection logic cannot be cleanly removed."""


def remove_protection_logic(
    locked: Circuit,
    final_labels: Mapping[str, str],
    *,
    strict: bool = True,
) -> Circuit:
    """Remove every gate not labelled as a design node and repair the netlist.

    Parameters
    ----------
    locked:
        The locked (possibly synthesised) netlist under attack.
    final_labels:
        Mapping from gate name to final label; gates missing from the mapping
        are treated as design gates.
    strict:
        When true, an unresolvable dangling reference raises
        :class:`RemovalError`; otherwise the offending sink keeps reading the
        (now undriven) net and the caller can inspect the damage.
    """
    with span("removal", gates=len(locked)):
        return _remove(locked, final_labels, strict)


def _remove(locked: Circuit, final_labels: Mapping[str, str], strict: bool) -> Circuit:
    removed: Set[str] = {
        gate for gate, label in final_labels.items() if label != DESIGN
    }
    removed &= set(locked.gate_names())

    resolution_cache: Dict[str, Optional[str]] = {}

    def resolve(net: str, visiting: Set[str]) -> Optional[str]:
        """Find the design net a removed net passes through, if unambiguous."""
        if net not in removed:
            if locked.is_key_input(net):
                return None
            return net
        if net in resolution_cache:
            return resolution_cache[net]
        if net in visiting:
            return None
        gate = locked.gate(net)
        if gate.cell.name not in _PASS_THROUGH_CELLS:
            resolution_cache[net] = None
            return None
        visiting = visiting | {net}
        candidates: Set[str] = set()
        for source in gate.inputs:
            resolved = resolve(source, visiting)
            if resolved is not None:
                candidates.add(resolved)
        result = candidates.pop() if len(candidates) == 1 else None
        resolution_cache[net] = result
        return result

    recovered = Circuit(locked.name, locked.library)
    for net in locked.inputs:
        recovered.add_input(net)
    # Key inputs are dropped: the recovered design is the unlocked original.

    for name in locked.topological_order():
        if name in removed:
            continue
        gate = locked.gate(name)
        new_inputs: List[str] = []
        for net in gate.inputs:
            if net in removed or locked.is_key_input(net):
                replacement = resolve(net, set())
                if replacement is None:
                    if strict:
                        raise RemovalError(
                            f"gate {name} reads protection net {net} that cannot "
                            "be resolved to a design signal"
                        )
                    replacement = net
                new_inputs.append(replacement)
            else:
                new_inputs.append(net)
        recovered.add_gate(name, gate.cell, tuple(new_inputs))

    for po in locked.outputs:
        driver = po
        if po in removed:
            replacement = resolve(po, set())
            if replacement is None:
                if strict:
                    raise RemovalError(
                        f"primary output {po} is driven by protection logic that "
                        "cannot be resolved to a design signal"
                    )
                replacement = po
            driver = replacement
        if driver == po:
            recovered.add_output(po)
        else:
            # The PO's driver was removed; give the design signal the PO name
            # so the recovered netlist keeps the original interface.
            if recovered.has_gate(po) or recovered.is_input(po):
                recovered.add_output(po)
            else:
                recovered.rename_net(driver, po)
                recovered.add_output(po)
    return recovered
