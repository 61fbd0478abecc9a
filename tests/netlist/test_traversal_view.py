"""The compiled-view traversal helpers against plain dict-walk oracles.

The oracles (``tests/oracles.py``) are the walkers the compiled view
replaced: each query walks ``Circuit.gates`` with Python sets.  Random
circuits carry duplicate gate inputs, dangling references and
combinational cycles, and every mutator runs between queries so a stale
view or membership set shows up.
"""

from __future__ import annotations

import base64
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_fanin_cone,
    oracle_fanout_cone,
    oracle_gate_levels,
    oracle_transitive_inputs,
)
from repro.netlist import BENCH8, Circuit, CircuitError
from repro.netlist.traversal import (
    circuit_view,
    fanin_cone,
    fanout_cone,
    gate_levels,
    has_key_input_in_fanin,
    key_inputs_in_fanin,
    primary_inputs_in_fanin,
    transitive_inputs,
)


def assert_matches_oracles(circuit: Circuit) -> None:
    nets = set(circuit.all_inputs) | set(circuit.gate_names()) | {"ghost", "nowhere"}
    for gate in circuit:
        nets.update(gate.inputs)
    for net in sorted(nets):
        for start in (True, False):
            assert fanin_cone(circuit, net, include_start=start) == oracle_fanin_cone(
                circuit, net, start
            )
            assert fanout_cone(circuit, net, include_start=start) == oracle_fanout_cone(
                circuit, net, start
            )
        support = oracle_transitive_inputs(circuit, net)
        keys = {n for n in support if n in circuit.key_inputs}
        assert transitive_inputs(circuit, net) == support
        assert key_inputs_in_fanin(circuit, net) == keys
        assert primary_inputs_in_fanin(circuit, net) == support - keys
        assert has_key_input_in_fanin(circuit, net) == bool(keys)
        assert circuit.is_input(net) == (net in circuit.inputs)
        assert circuit.is_key_input(net) == (net in circuit.key_inputs)
        assert circuit.net_exists(net) == (
            net in circuit.gates or net in circuit.all_inputs
        )
    try:
        expected = oracle_gate_levels(circuit)
    except CircuitError:
        with pytest.raises(CircuitError):
            gate_levels(circuit)
    else:
        assert gate_levels(circuit) == expected


# ---------------------------------------------------------------------------
# Random circuits and mutation scripts
# ---------------------------------------------------------------------------

_CELLS = ("AND", "OR", "XOR", "NAND", "NOR", "XNOR")


@st.composite
def circuits(draw) -> Circuit:
    """Gates read any net, including later gates (cycles), a net twice
    (duplicate inputs) and undeclared nets (dangling references)."""
    n_pi = draw(st.integers(1, 4))
    n_ki = draw(st.integers(0, 3))
    n_gates = draw(st.integers(1, 12))
    gate_names = [f"g{i}" for i in range(n_gates)]
    pool = (
        [f"pi{i}" for i in range(n_pi)]
        + [f"key{i}" for i in range(n_ki)]
        + gate_names
        + ["ghost"]
    )
    c = Circuit("rand", BENCH8)
    for i in range(n_pi):
        c.add_input(f"pi{i}")
    for i in range(n_ki):
        c.add_key_input(f"key{i}")
    allow_cycles = draw(st.booleans())
    for i, name in enumerate(gate_names):
        # Acyclic unless asked: read only terminals and earlier gates.
        choices = pool if allow_cycles else pool[: n_pi + n_ki + i] + ["ghost"]
        inputs = draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
        c.add_gate(name, draw(st.sampled_from(_CELLS)), inputs)
    c.add_output(gate_names[-1])
    return c


def _mutate(circuit: Circuit, step: int, data) -> None:
    gates = sorted(circuit.gate_names())
    nets = sorted(set(circuit.all_inputs) | set(gates) | {"ghost"})
    op = data.draw(
        st.sampled_from(
            (
                "add_gate",
                "remove_gate",
                "rename_net",
                "replace_gate_input",
                "set_gate",
                "add_input",
                "add_key_input",
                "remove_key_input",
            )
        )
    )
    fresh = f"m{step}"
    if op == "add_gate" or not gates:
        inputs = data.draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3))
        circuit.add_gate(fresh, data.draw(st.sampled_from(_CELLS)), inputs)
    elif op == "remove_gate":
        circuit.remove_gate(data.draw(st.sampled_from(gates)))
    elif op == "rename_net":
        circuit.rename_net(data.draw(st.sampled_from(nets)), fresh)
    elif op == "replace_gate_input":
        name = data.draw(st.sampled_from(gates))
        old = data.draw(st.sampled_from(circuit.gate(name).inputs))
        circuit.replace_gate_input(name, old, data.draw(st.sampled_from(nets)))
    elif op == "set_gate":
        inputs = data.draw(st.lists(st.sampled_from(nets), min_size=1, max_size=3))
        circuit.set_gate(data.draw(st.sampled_from(gates)), "OR", inputs)
    elif op == "add_input":
        circuit.add_input(fresh)
    elif op == "add_key_input":
        circuit.add_key_input(fresh)
    elif circuit.key_inputs:
        circuit.remove_key_input(data.draw(st.sampled_from(circuit.key_inputs)))


@settings(max_examples=150, deadline=None)
@given(circuits(), st.data())
def test_compiled_helpers_match_walkers_under_mutation(circuit, data):
    assert_matches_oracles(circuit)
    for step in range(data.draw(st.integers(1, 6))):
        _mutate(circuit, step, data)
        assert_matches_oracles(circuit)


@settings(max_examples=50, deadline=None)
@given(circuits())
def test_view_ids_follow_gate_names_and_csr_round_trips(circuit):
    view = circuit_view(circuit)
    assert view.names[: view.n_gates] == circuit.gate_names()
    assert circuit_view(circuit) is view  # cached until the next mutation
    for g, name in enumerate(circuit.gate_names()):
        assert [view.names[i] for i in view.inputs_of(g)] == list(
            circuit.gate(name).inputs
        )
    fanout = circuit.fanout_map()
    for i, net in enumerate(view.names):
        assert [view.names[s] for s in view.sinks_of(i)] == fanout.get(net, [])


def test_cycle_terminates_and_reaches_every_member():
    c = Circuit("loop", BENCH8)
    c.add_input("a")
    c.add_key_input("k")
    c.add_gate("x", "AND", ["a", "z"])
    c.add_gate("y", "XOR", ["x", "k"])
    c.add_gate("z", "OR", ["y", "y"])
    assert fanin_cone(c, "x") == {"x", "y", "z"}
    assert fanin_cone(c, "x", include_start=False) == {"y", "z"}
    assert transitive_inputs(c, "z") == {"a", "k"}
    assert has_key_input_in_fanin(c, "x")
    with pytest.raises(CircuitError):
        gate_levels(c)


# ---------------------------------------------------------------------------
# Pickling: derived state stays out, the pre-view format still loads
# ---------------------------------------------------------------------------

#: ``pickle.dumps(c, protocol=4)`` of the circuit built by ``_pickled_circuit``
#: with ``topological_order()`` called first, written by the release before
#: the compiled view existed (its state had no derived-cache fields).
_PRE_VIEW_PICKLE = base64.b64decode(
    "gASVgwEAAAAAAACMFXJlcHJvLm5ldGxpc3QuY2lyY3VpdJSMB0NpcmN1aXSUk5QpgZR9lCiM"
    "BG5hbWWUjAJwa5SMB2xpYnJhcnmUjBNyZXByby5uZXRsaXN0LmdhdGVzlIwLZ2V0X2xpYnJh"
    "cnmUk5SMBkJFTkNIOJSFlFKUjAdfaW5wdXRzlF2UKIwBYZSMAWKUZYwLX2tleV9pbnB1dHOU"
    "XZSMAmswlGGMCF9vdXRwdXRzlF2UjAF5lGGMBl9nYXRlc5R9lCiMAm4xlGgAjARHYXRllJOU"
    "KYGUfZQoaAVoGowEY2VsbJRoCIwIQ2VsbFR5cGWUk5QpgZR9lChoBYwDQU5ElIwFYXJpdHmU"
    "TowIZnVuY3Rpb26UaAiMBF9hbmSUk5R1YowGaW5wdXRzlGgQaBGGlHViaBdoHCmBlH2UKGgF"
    "aBdoH2ghKYGUfZQoaAWMA1hPUpRoJU5oJmgIjARfeG9ylJOUdWJoKWgaaBSGlHVidYwLX3Rv"
    "cG9fY2FjaGWUXZQoaBpoF2V1Yi4="
)


def _pickled_circuit() -> Circuit:
    c = Circuit("pk", BENCH8)
    c.add_input("a")
    c.add_input("b")
    c.add_key_input("k0")
    c.add_gate("n1", "AND", ["a", "b"])
    c.add_gate("y", "XOR", ["n1", "k0"])
    c.add_output("y")
    return c


def test_pickle_drops_view_and_membership_sets():
    c = _pickled_circuit()
    circuit_view(c).support()
    assert c.is_input("a") and c.is_key_input("k0")
    state = c.__getstate__()
    assert {"_view", "_input_set", "_key_input_set"}.isdisjoint(state)
    clone = pickle.loads(pickle.dumps(c))
    assert clone._view is None and clone._input_set is None
    assert transitive_inputs(clone, "y") == {"a", "b", "k0"}
    assert clone.is_key_input("k0") and not clone.is_input("k0")


def test_pre_view_pickle_still_loads():
    clone = pickle.loads(_PRE_VIEW_PICKLE)
    assert clone.gate_names() == ("n1", "y")
    assert clone.is_input("b") and clone.is_key_input("k0")
    assert key_inputs_in_fanin(clone, "y") == {"k0"}
    clone.add_gate("z", "NOT", ["y"])  # mutators work on the loaded object
    assert fanin_cone(clone, "z") == {"z", "y", "n1"}
    # A current pickle of the same circuit carries exactly the old fields.
    fresh = _pickled_circuit()
    fresh.topological_order()
    assert pickle.dumps(fresh, protocol=4) == _PRE_VIEW_PICKLE
