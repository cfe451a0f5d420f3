import numpy as np

from stateiso import obs
from stateiso.bosonic import (
    apply_linear_optical, encode_graph_bosonic, haar_mode_unitary, optimize_overlap,
    orbit_distance, truncated_basis,
)
from stateiso.graphs import Graph
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


def _ascents():
    c1, c2 = encode_graph_bosonic(Graph.path(4)), encode_graph_bosonic(Graph.star(4))
    v, best_abs, best_re = optimize_overlap(c1, c2, restarts=4, iters=40, seed=5)
    rng = np.random.default_rng(6)
    basis = truncated_basis(4, 3)
    z = apply_linear_optical(haar_mode_unitary(4, rng), c1).dense(basis)
    warm = [haar_mode_unitary(4, rng).matrix for _ in range(3)]
    dist = orbit_distance(z, basis, c1, warm, iters=25, good_enough=0.2)
    return v.matrix, best_abs, best_re, dist


def test_ascent_counts_repeat_under_a_seed():
    with obs.recording() as first:
        _ascents()
    with obs.recording() as second:
        _ascents()
    assert first.counts == second.counts
    counts = first.counts
    assert counts["bosonic.restarts"] == 4 + 3
    # every accepted step is a trial, and every live row tries once a round
    assert 0 < counts["bosonic.ascent_steps"] <= counts["bosonic.ascent_trials"]
    assert counts["bosonic.ascent_steps"] <= 4 * 40 + 3 * 25


def test_ascent_outputs_same_with_counting_on_and_off():
    off = _ascents()
    with obs.recording():
        on = _ascents()
    assert np.array_equal(on[0], off[0])
    assert on[1:] == off[1:]


def test_traced_methods_are_defined_on_their_classes():
    # perfbench's tracer wraps these methods through cls.__dict__, so each
    # must be defined on the class itself, not inherited
    import importlib
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, classes in tracer.METHODS.items():
        mod = importlib.import_module(f"stateiso.{short}")
        for cls_name, meths in classes.items():
            for meth in meths:
                assert meth in vars(getattr(mod, cls_name)), f"{cls_name}.{meth}"
