import numpy as np

from stateiso import obs
from stateiso.paulis import batch_unitaries, random_clifford_batch
from stateiso.reductions import (
    GI_THRESHOLDS, NONISO_LIBRARY, clifford_overlap_sweep, gi_to_clifford, verify_lemma_perm,
)


def _work():
    inst = gi_to_clifford(*NONISO_LIBRARY[0])        # 5 qubits
    sweep = clifford_overlap_sweep(inst.psi1, inst.psi2, count=300, seed=2,
                                   threshold=GI_THRESHOLDS.alpha)
    lemma = verify_lemma_perm(2, mode="sampled", samples=500, seed=3)
    us = batch_unitaries(random_clifford_batch(2, np.random.default_rng(4), 7))
    return sweep, lemma, us


def test_counts_repeat_under_a_seed():
    with obs.recording() as first:
        _work()
    with obs.recording() as second:
        _work()
    assert first.counts == second.counts == {
        "paulis.cliffords_drawn": 300 + 500 + 7,
        "paulis.cliffords_scored": 500,
        "paulis.cliffords_applied": 300 + 7,
        "paulis.action_entries": 300 * 5 * 32 + 7 * 4 * 4,
    }
    assert first.spans["reductions.clifford_overlap_sweep"][0] == 1


def test_outputs_same_with_counting_on_and_off():
    off = _work()
    with obs.recording():
        on = _work()
    assert on[:2] == off[:2]
    assert np.array_equal(on[2], off[2])


def test_nothing_is_kept_outside_a_recording():
    obs.count("paulis.cliffords_drawn", 5)
    with obs.span("outside"):
        pass
    with obs.recording() as rec:
        pass
    assert rec.counts == {} and rec.spans == {}
