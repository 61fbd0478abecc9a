"""The compiled-view rectifiers against the set-based ones they replaced.

Ground-truth labels of real locked instances get random label flips (the
shape of GNN misclassifications); the compiled ``postprocess_antisat`` /
``postprocess_sfll`` must return the same labels, in the same order, as the
oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_postprocess_antisat, oracle_postprocess_sfll
from repro.benchgen import RandomLogicSpec, generate_random_circuit, get_benchmark
from repro.core import postprocess_antisat, postprocess_sfll
from repro.locking import (
    ANTISAT,
    DESIGN,
    PERTURB,
    RESTORE,
    AntiSatLocking,
    SfllHdLocking,
    TTLockLocking,
)
from repro.synth import SynthesisOptions, synthesize_locked

_INSTANCES = (
    ("antisat-rand", AntiSatLocking(8)),
    ("antisat-c2670", AntiSatLocking(16)),
    ("antisat-gen65", AntiSatLocking(8)),
    ("ttlock-rand", TTLockLocking(8)),
    ("sfll2-rand", SfllHdLocking(8, 2)),
    ("sfll2-gen65", SfllHdLocking(8, 2)),
)


@lru_cache(maxsize=None)
def _locked(name: str):
    scheme = dict(_INSTANCES)[name]
    if "c2670" in name:
        design = get_benchmark("c2670", size_scale=0.06)
    else:
        design = generate_random_circuit(
            RandomLogicSpec(name="rand", n_inputs=24, n_outputs=6, n_gates=80, seed=5)
        )
    result = scheme.lock(design, rng=np.random.default_rng(7))
    if name.endswith("gen65"):
        result = synthesize_locked(result, SynthesisOptions(technology="GEN65"))
    return result


def _flipped(result, classes: Tuple[str, ...], rate: float, seed: int) -> Dict[str, str]:
    rng = np.random.default_rng(seed)
    labels = {}
    for gate in result.locked.gate_names():
        label = result.labels.get(gate, DESIGN)
        if rng.random() < rate:
            label = classes[int(rng.integers(len(classes)))]
        labels[gate] = label
    return labels


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([name for name, _ in _INSTANCES]),
    st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6]),
    st.integers(0, 2**16),
)
def test_rectifiers_match_set_based_oracle(name, rate, seed):
    result = _locked(name)
    if name.startswith("antisat"):
        classes = (DESIGN, ANTISAT)
        new, old = postprocess_antisat, oracle_postprocess_antisat
    else:
        classes = (DESIGN, RESTORE, PERTURB)
        new, old = postprocess_sfll, oracle_postprocess_sfll
    predictions = _flipped(result, classes, rate, seed)
    assert list(new(result.locked, predictions).items()) == list(
        old(result.locked, predictions).items()
    )


def test_partial_predictions_match_oracle():
    """Predictions covering only part of the netlist (gates outside read as
    unlabelled) rectify the same way."""
    result = _locked("antisat-rand")
    truth = _flipped(result, (DESIGN, ANTISAT), 0.1, 3)
    partial = {g: lab for i, (g, lab) in enumerate(truth.items()) if i % 3}
    assert postprocess_antisat(result.locked, partial) == oracle_postprocess_antisat(
        result.locked, partial
    )
    result = _locked("sfll2-rand")
    truth = _flipped(result, (DESIGN, RESTORE, PERTURB), 0.1, 3)
    partial = {g: lab for i, (g, lab) in enumerate(truth.items()) if i % 3}
    assert postprocess_sfll(result.locked, partial) == oracle_postprocess_sfll(
        result.locked, partial
    )
