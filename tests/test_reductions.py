import math
import tracemalloc

import numpy as np
import pytest

from stateiso.graphs import Graph
from stateiso.groups import clifford_group, cyclic_group, pauli_group
from stateiso.linalg import (Circuit, DensityMatrix, random_density, run_circuit,
                             sqrt_fidelity, trace_norm)
from stateiso import obs
from stateiso.paulis import (
    COS8,
    CliffordBatch,
    PauliError,
    PauliOp,
    batch_r_overlap_sq,
    batch_x_image_expectations,
    clifford_batches,
    clifford_elements,
    clifford_group_order,
    qubit_permutation_clifford,
    random_clifford,
    random_clifford_batch,
    sign_factored_r_overlap_sq,
    symplectic_group_order,
)
from stateiso.psgi import PsgiVerdict
from stateiso.reductions import (
    GI_THRESHOLDS,
    LEMMA_PERM_THRESHOLD,
    NONISO_LIBRARY,
    ReductionError,
    bqp_hardness_instance,
    brick_layer_circuit,
    build_m_state,
    clifford_overlap_sweep,
    diagonal_permutation_overlap_sweep,
    gi_to_clifford,
    lowrank_gi_instance,
    lowrank_thresholds,
    qsd_to_mixed_hsp,
    qsd_to_msgi,
    trace_distance_transfer,
    verify_first_qubit_claim,
    verify_lemma_perm,
)
from stateiso.reductions import _may_reach

RNG = np.random.default_rng(2024)


class TestGiClifford:
    def test_isomorphic_pair_reaches_overlap_one(self):
        g1 = Graph.path(4)
        g2 = g1.relabel((2, 0, 3, 1))
        inst = gi_to_clifford(g1, g2)
        c = inst.permutation_witness()
        assert c is not None
        assert abs(inst.overlap(c) - 1) < 1e-12

    def test_identical_pair_identity_witness(self):
        g = Graph.cycle(5)
        inst = gi_to_clifford(g, g)
        c = inst.permutation_witness()
        assert c == qubit_permutation_clifford(range(6), 6)

    def test_mismatched_counts_rejected(self):
        verdict = gi_to_clifford(Graph.path(3), Graph.path(4))
        assert isinstance(verdict, PsgiVerdict) and verdict.decision == "NO"
        verdict = gi_to_clifford(Graph.path(4), Graph.cycle(4))
        assert verdict.decision == "NO"

    def test_non_isomorphic_no_permutation_witness(self):
        inst = gi_to_clifford(Graph.path(4), Graph.star(4))
        assert inst.permutation_witness() is None

    def test_noniso_library_shapes(self):
        for g1, g2 in NONISO_LIBRARY:
            assert g1.n == g2.n
            assert len(g1.edges) == len(g2.edges)
            inst = gi_to_clifford(g1, g2)
            assert inst.permutation_witness() is None


def _kron_encoding(g):
    """The Clifford encoding of g by np.kron: (|R>|R^n> + |R->|G>)/sqrt(2)."""
    from stateiso.paulis import graph_state, r_minus_state, r_state
    r = np.ones(1, dtype=complex)
    for _ in range(g.n):
        r = np.kron(r, r_state().amplitudes)
    amps = np.kron(r_state().amplitudes, r)
    amps = amps + np.kron(r_minus_state().amplitudes, graph_state(g).amplitudes)
    return amps / math.sqrt(2)


def _kron_materialize(lr):
    """LowRankState.materialize by an np.kron chain over each term's factors."""
    from stateiso.paulis import graph_state
    from stateiso.reductions import _FACTORS
    total = np.zeros(1 << lr.n_qubits, dtype=complex)
    for coeff, factors in lr.terms:
        amps = np.ones(1, dtype=complex)
        for f in factors:
            amps = np.kron(amps, graph_state(f[1]).amplitudes if isinstance(f, tuple)
                           else _FACTORS[f])
        total += coeff * amps
    return total


class TestBroadcastProducts:
    """The encodings' broadcast products against np.kron, bit for bit."""

    def test_clifford_encodings(self):
        for g1, g2 in NONISO_LIBRARY + ((Graph.path(4), Graph.path(4).relabel((2, 0, 3, 1))),):
            inst = gi_to_clifford(g1, g2)
            assert inst.psi1.amplitudes.tobytes() == _kron_encoding(g1).tobytes()
            assert inst.psi2.amplitudes.tobytes() == _kron_encoding(g2).tobytes()

    def test_lowrank_materializations(self):
        for n in range(2, 7):
            m = build_m_state(n)
            assert m.materialize().amplitudes.tobytes() == _kron_materialize(m).tobytes(), n
        for g1, g2, weight in ((Graph.path(4), Graph.star(4), None),
                               (Graph.cycle(5), Graph.cycle(5).relabel((3, 0, 4, 1, 2)), 0.7)):
            for lr in lowrank_gi_instance(g1, g2, graph_weight=weight)[:2]:
                assert lr.materialize().amplitudes.tobytes() == _kron_materialize(lr).tobytes()


def _lowrank_states(g1, g2):
    lr1, lr2, _ = lowrank_gi_instance(g1, g2)
    return lr1.materialize(), lr2.materialize()


ENCODINGS = [(gi_to_clifford, 4, 1), (_lowrank_states, 6, 0)]


class TestEncodingBudget:
    """Each graph-state encoding counts its tracemalloc peak, ``states``
    dense vectors on n + ``extra`` qubits for an n-vertex graph, against the
    byte budget before it allocates."""

    @pytest.mark.parametrize("encode", [e[0] for e in ENCODINGS], ids=["clifford", "lowrank"])
    def test_over_budget_refused_before_allocating(self, encode):
        # 22 vertices is the first size over 256 MiB for both encodings
        tracemalloc.start()
        try:
            with pytest.raises(ReductionError, match="budget"):
                encode(Graph.path(22), Graph.path(22))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("encode, states, extra", ENCODINGS, ids=["clifford", "lowrank"])
    def test_peak_within_guard(self, encode, states, extra):
        # beyond the states, the encodings hold ~150 KiB of fixed objects
        n = 14
        tracemalloc.start()
        try:
            encode(Graph.path(n), Graph.path(n).relabel(range(n - 1, -1, -1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= states * (16 << (n + extra)) + (1 << 18)


class TestFastCliffordApply:
    def test_matches_element_apply(self):
        from stateiso.linalg import StateVector
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            for _ in range(20 if n < 4 else 3):
                c = random_clifford(n, rng)
                u = c.to_unitary().matrix
                assert np.array_equal(c.stabilized_state(), u[:, 0])
                v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
                v[1:][rng.random((1 << n) - 1) < 0.3] = 0    # apply skips zero amplitudes
                v /= np.linalg.norm(v)
                got = c.apply(StateVector(n, v)).amplitudes
                assert np.allclose(got, u @ v, atol=1e-10)

    def test_sweep_matches_dense_max(self):
        from stateiso.linalg import StateVector
        rng = np.random.default_rng(6)
        n = 2
        v1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        v2 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi1 = StateVector(n, v1 / np.linalg.norm(v1))
        psi2 = StateVector(n, v2 / np.linalg.norm(v2))
        report = clifford_overlap_sweep(psi1, psi2, count=200, seed=3,
                                        threshold=0.99)
        # recompute the same sweep densely with the same seed
        rng2 = np.random.default_rng(3)
        max_ov = 0.0
        for _ in range(200):
            c = random_clifford(n, rng2)
            u = c.to_unitary().matrix
            max_ov = max(max_ov, abs(np.vdot(psi1.amplitudes, u @ psi2.amplitudes)))
        assert abs(report["max_overlap"] - max_ov) < 1e-9

    def test_sweep_pinned(self):
        # literal values recorded before the sampler and action were unified
        inst = gi_to_clifford(*NONISO_LIBRARY[0])
        report = clifford_overlap_sweep(inst.psi1, inst.psi2, count=50, seed=0,
                                        threshold=GI_THRESHOLDS.alpha)
        assert report["exceed_count"] == 0
        assert abs(report["max_overlap"] - 0.37372633971464314) < 1e-12

    def test_sweep_memory_is_blocked(self):
        # 2,000 Cliffords at n=6: every kernel array stays within the block
        # budget, so the peak does not grow with the count
        import tracemalloc
        inst = gi_to_clifford(*NONISO_LIBRARY[1])
        tracemalloc.start()
        try:
            report = clifford_overlap_sweep(inst.psi1, inst.psi2, count=2000, seed=4,
                                            threshold=GI_THRESHOLDS.alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report["count"] == 2000 and report["exceed_count"] == 0
        assert peak < 4 << 20

    def test_sweep_finds_planted_witness(self):
        from stateiso.linalg import StateVector
        rng = np.random.default_rng(7)
        n = 2
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi2 = StateVector(n, v / np.linalg.norm(v))
        c = random_clifford(n, rng)
        psi1 = c.apply(psi2)
        report = clifford_overlap_sweep(psi1, psi2, count=3000, seed=1,
                                        threshold=1 - 1e-9)
        assert report["exceed_count"] >= 1
        assert report["max_overlap"] > 1 - 1e-9


class TestLemmaPerm:
    def test_exhaustive_n1(self):
        report = verify_lemma_perm(1)
        assert report["checked"] == 24
        assert report["violations"] == []
        assert report["above_threshold"] == report["permutations"] == 1

    def test_exhaustive_n2_pinned(self):
        assert verify_lemma_perm(2) == {
            "n": 2, "mode": "exhaustive", "checked": 11520, "threshold": 0.9999,
            "above_threshold": 2, "permutations": 2, "violations": [],
            "fraction_permutations": 1.0,
        }

    def test_exhaustive_n3(self):
        # all 92,897,280 elements, 4^3 sign patterns of each symplectic
        # element at once; the six above threshold are the qubit permutations
        report = verify_lemma_perm(3)
        assert report["checked"] == 92_897_280
        assert report["above_threshold"] == report["permutations"] == 6
        assert report["violations"] == []

    def test_exhaustive_n4_refused(self):
        from stateiso.paulis import PauliError
        with pytest.raises(PauliError, match="n <= 3"):
            verify_lemma_perm(4)

    def test_sampled_n2_no_violations(self):
        report = verify_lemma_perm(2, mode="sampled", samples=5000, seed=0)
        assert report["violations"] == []
        assert report["fraction_permutations"] == 1.0

    def test_bad_mode(self):
        with pytest.raises(ReductionError):
            verify_lemma_perm(1, mode="nope")

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_qubits(self, n):
        with pytest.raises(ReductionError, match="n must be >= 1"):
            verify_lemma_perm(n)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 1.5, 0.0, -1.0])
    def test_threshold_out_of_range(self, threshold):
        # outside (0, 1] a threshold is met by no overlap or by every element
        with pytest.raises(ReductionError, match="threshold"):
            verify_lemma_perm(1, threshold=threshold)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_sampled_without_samples(self, samples):
        # a sample of nothing would report zero violations
        with pytest.raises(ReductionError, match="samples"):
            verify_lemma_perm(3, mode="sampled", samples=samples)

    def test_overlap_tables_over_budget_refused(self):
        # the 3^16-wide tables of one 16-qubit Clifford would take over 1 GiB;
        # refused before they are allocated
        import tracemalloc
        from stateiso.paulis import PauliError
        tracemalloc.start()
        try:
            with pytest.raises(PauliError, match="budget"):
                verify_lemma_perm(16, mode="sampled", samples=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sampled_stream_pinned(self):
        # literal values recorded before the sampler and action were unified
        report = verify_lemma_perm(3, "sampled", 2000, seed=0)
        assert report["checked"] == 2000
        assert report["above_threshold"] == 0
        assert report["permutations"] == 0
        assert report["violations"] == []
        assert report["fraction_permutations"] == 1.0

    @pytest.mark.parametrize("mode, samples", [("exhaustive", 0), ("sampled", 20000)])
    def test_kept_cliffords_over_budget_refused(self, monkeypatch, mode, samples):
        # at threshold 1e-12 the 2-qubit group keeps 11,390 elements (about
        # 5 MiB); under a 1 MiB budget they are refused, the default
        # threshold's two are not
        from stateiso import linalg
        monkeypatch.setattr(linalg, "_DENSE_BUDGET", 1 << 20)
        assert verify_lemma_perm(2, mode, samples)["violations"] == []
        with pytest.raises(ReductionError, match="budget"):
            verify_lemma_perm(2, mode, samples, threshold=1e-12)

    def test_first_qubit_claim(self):
        pairs = [(Graph.path(3), Graph.path(3).relabel((1, 0, 2))),
                 (Graph.cycle(4), Graph.cycle(4))]
        report = verify_first_qubit_claim([gi_to_clifford(*p) for p in pairs])
        assert report["passed"]
        assert report["high_overlap_permutations"]
        for rec in report["high_overlap_permutations"]:
            assert rec["fixes_control"]


def _unpruned_lemma_report(n, mode, samples=0, seed=0, threshold=LEMMA_PERM_THRESHOLD):
    """verify_lemma_perm's report with every Clifford scored and none ruled
    out: the whole group through the sign-factored scorer, or all the draws
    through batch_r_overlap_sq."""
    if mode == "exhaustive":
        order = symplectic_group_order(n)
        scores = sign_factored_r_overlap_sq(clifford_elements(n, np.arange(order) << 2 * n))
        checked, high = order << 2 * n, clifford_elements(n, np.flatnonzero(scores >= threshold))
    else:
        batch = random_clifford_batch(n, np.random.default_rng(seed), samples)
        at = batch_r_overlap_sq(batch) >= threshold
        checked, high = samples, CliffordBatch(n, *(a[at] for a in batch[1:]))
    perm = high.permutation_mask()
    above, perms = len(perm), int(perm.sum())
    return {
        "n": n, "mode": mode, "checked": checked, "threshold": threshold,
        "above_threshold": above, "permutations": perms,
        "violations": [high.row(b).key() for b in np.flatnonzero(~perm)],
        "fraction_permutations": (perms / above) if above else 1.0,
    }


class TestLemmaCertificate:
    """The X image bound that rules Cliffords out before the |R> scorer."""

    @pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9, 0.99, 0.9999, 1.0])
    def test_ruled_out_rows_score_below_threshold(self, threshold):
        # the whole group at n <= 2, and seeded draws at n = 1..4
        rng = np.random.default_rng(51)
        batches = [next(clifford_batches(n, clifford_group_order(n))) for n in (1, 2)]
        batches += [random_clifford_batch(n, rng, 3000) for n in (1, 2, 3, 4)]
        for batch in batches:
            ruled = ~_may_reach(batch_x_image_expectations(batch), threshold)
            assert (batch_r_overlap_sq(batch)[ruled] < threshold).all(), batch.n
            if threshold >= 0.9:
                assert ruled.mean() > 0.5, batch.n

    def test_sign_patterns_pass_on_moduli(self):
        # a symplectic element passes at sign 0 on its |e_q| exactly when
        # one of its 4^n sign patterns passes on its e_q
        for n in (1, 2):
            group = next(clifford_batches(n, clifford_group_order(n)))
            e = batch_x_image_expectations(group).reshape(-1, 1 << 2 * n, n)
            for threshold in (0.5, 0.9, 0.9999):
                any_sign = _may_reach(e.reshape(-1, n), threshold).reshape(-1, 1 << 2 * n)
                assert np.array_equal(any_sign.any(axis=1),
                                      _may_reach(np.abs(e[:, 0]), threshold))

    @pytest.mark.parametrize("threshold", [0.75, 0.8, 0.9, 0.9999])
    def test_exhaustive_certifies_what_every_sign_rules_out(self, threshold):
        # a symplectic element is certified, with its 4^n sign patterns, when
        # the bound rules out each pattern from its own signed X images
        for n in (1, 2):
            group = next(clifford_batches(n, clifford_group_order(n)))
            ruled = ~_may_reach(batch_x_image_expectations(group), threshold)
            with obs.recording() as rec:
                verify_lemma_perm(n, threshold=threshold)
            every = ruled.reshape(-1, 1 << 2 * n).all(axis=1)
            assert rec.counts["reductions.cliffords_certified"] == int(every.sum()) << 2 * n

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("threshold", [0.9999, 0.99, 0.9, 0.5, 1.0, COS8 ** 2])
    def test_exhaustive_reports_match_unpruned(self, n, threshold):
        assert (verify_lemma_perm(n, threshold=threshold)
                == _unpruned_lemma_report(n, "exhaustive", threshold=threshold))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("threshold", [0.9999, 0.95, 0.7])
    def test_sampled_reports_match_unpruned(self, n, threshold):
        for seed in range(4):
            assert (verify_lemma_perm(n, "sampled", 2000, seed, threshold)
                    == _unpruned_lemma_report(n, "sampled", 2000, seed, threshold))

    @pytest.mark.parametrize("n, mode, samples, threshold", [
        (1, "exhaustive", 0, 0.9999), (2, "exhaustive", 0, 0.9999), (2, "exhaustive", 0, 0.5),
        (3, "sampled", 5000, 0.9999), (2, "sampled", 5000, 0.5), (5, "sampled", 2000, 0.9999),
    ])
    def test_scored_and_certified_make_checked(self, n, mode, samples, threshold):
        with obs.recording() as rec:
            report = verify_lemma_perm(n, mode, samples, 1, threshold)
        scored = rec.counts.get("paulis.cliffords_scored", 0)
        certified = rec.counts["reductions.cliffords_certified"]
        assert scored + certified == report["checked"]
        assert scored >= report["above_threshold"]
        # at 0.5 the bound, 2 sqrt(1/2), is wider than any ||e_q| - cos(pi/8)|,
        # so only a Clifford that flips the sign of some e_q is ruled out
        assert certified > 0 or (mode, threshold) == ("exhaustive", 0.5)

    @pytest.mark.parametrize("threshold", [0.9999, 0.5])
    def test_exhaustive_builds_each_row_once(self, monkeypatch, threshold):
        # each block's rows serve the X test and the scorer alike, so the
        # 720 symplectic elements at n = 2 are built once; only the high
        # scorers' symplectic elements are built again, for the report
        from stateiso import paulis
        n = 2
        order = symplectic_group_order(n)
        scores = sign_factored_r_overlap_sq(clifford_elements(n, np.arange(order) << 2 * n))
        high = np.unique(np.flatnonzero(scores >= threshold) >> 2 * n)
        built, rows = [], paulis._symplectic_rows
        monkeypatch.setattr(paulis, "_symplectic_rows",
                            lambda indices, n: built.append(len(indices)) or rows(indices, n))
        verify_lemma_perm(n, threshold=threshold)
        assert sum(built) == order + len(high)

    def test_over_budget_draws_refused_before_drawing(self):
        # the 3^16-wide tables of one Clifford are refused before any of a
        # million draws is made
        tracemalloc.start()
        try:
            with obs.recording() as rec, pytest.raises(PauliError, match="budget"):
                verify_lemma_perm(16, mode="sampled", samples=1_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert rec.counts == {}


def pairwise_gram_total(n: int) -> float:
    """Sum of the Gram matrix of the |M> terms pair by pair: the entry of
    pairs a, b is 2^{-|a ^ b|/2}, by <R|0> = 1/sqrt(2)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return sum(0.5 ** (len(set(a) ^ set(b)) // 2) for a in pairs for b in pairs)


class TestLowRank:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_m_state_coefficient_matches_pairwise_gram(self, n):
        # the closed form in build_m_state is exact, not just close
        assert {c for c, _ in build_m_state(n).terms} == {1.0 / math.sqrt(pairwise_gram_total(n))}

    def test_m_state_triangle_coefficient(self):
        # for n = 3 every coefficient is 1/sqrt(6)
        m = build_m_state(3)
        coeffs = [c for c, _ in m.terms]
        assert len(coeffs) == 3
        assert all(abs(c - 1 / math.sqrt(6)) < 1e-12 for c in coeffs)
        m.materialize()  # normalizes exactly

    def test_m_state_normalized_various_n(self):
        for n in (2, 4, 5):
            build_m_state(n).materialize()

    def test_m_state_needs_two_qubits(self):
        with pytest.raises(ReductionError):
            build_m_state(1)

    def test_instance_normalized_and_promise(self):
        lr1, lr2, th = lowrank_gi_instance(Graph.path(4), Graph.star(4))
        psi1, psi2 = lr1.materialize(), lr2.materialize()
        assert abs(np.linalg.norm(psi1.amplitudes) - 1) < 1e-9
        assert th.alpha == pytest.approx(1 - 1 / (96 * 4**5))
        assert th.beta == 1.0

    def test_isomorphic_lowrank_reaches_one_under_relabeling(self):
        g1 = Graph.path(4)
        g2 = g1.relabel((3, 1, 0, 2))
        lr1, lr2, _ = lowrank_gi_instance(g1, g2)
        from stateiso.graphs import find_isomorphism
        from stateiso.paulis import qubit_permutation_clifford
        perm = find_isomorphism(g2, g1)
        c = qubit_permutation_clifford(perm, 4)
        ov = np.vdot(lr1.materialize().amplitudes,
                     c.apply(lr2.materialize()).amplitudes)
        assert abs(abs(ov) - 1) < 1e-9

    def test_graph_weight_override(self):
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(4), Graph.star(4),
                                          graph_weight=0.7)
        ov = np.vdot(lr1.materialize().amplitudes, lr2.materialize().amplitudes)
        assert abs(ov) < 0.9  # actually distinguishable now
        with pytest.raises(ReductionError):
            lowrank_gi_instance(Graph.path(4), Graph.star(4), graph_weight=1.5)

    def test_mismatch_rejected(self):
        verdict = lowrank_gi_instance(Graph.path(3), Graph.path(4))
        assert verdict.decision == "NO"

    def test_rank_bound_enforced(self):
        from stateiso.reductions import LowRankState
        with pytest.raises(ReductionError):
            LowRankState(2, ((1.0, ("0", "0")), (0.0, ("1", "1"))), rank_bound=1)

    def test_diagonal_permutation_sweep(self):
        lr1, lr2, th = lowrank_gi_instance(Graph.path(4), Graph.star(4))
        report = diagonal_permutation_overlap_sweep(
            lr1.materialize(), lr2.materialize(), count=500, seed=0,
            threshold=th.alpha)
        assert report["max_overlap"] <= 1.0 + 1e-12


def _scalar_sweep_overlaps(psi1, psi2, count, rng):
    """The per-draw loop the sweep replaced: a uniform qubit permutation by
    a basis-index gather, then i^{a_q} and (-1)^{c_qr} phases drawn one
    scalar call each, scored as |<psi1|D P|psi2>| one draw at a time."""
    from itertools import permutations
    n = psi1.n_qubits
    d = 1 << n
    idx = np.arange(d)
    bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    perms = list(permutations(range(n)))
    out = []
    for _ in range(count):
        perm = perms[int(rng.integers(len(perms)))]
        # P|x_0..x_{n-1}> sends qubit q to perm[q]
        target = np.zeros(d, dtype=np.int64)
        for q in range(n):
            target |= bits[q] << (n - 1 - perm[q])
        permuted = np.zeros(d, dtype=complex)
        permuted[target] = psi2.amplitudes
        phase = np.zeros(d, dtype=np.int64)
        for q in range(n):
            phase += int(rng.integers(4)) * bits[q]
        for q in range(n):
            for r in range(q + 1, n):
                phase += 2 * int(rng.integers(2)) * bits[q] * bits[r]
        ov = np.dot(psi1.amplitudes.conj(), np.array([1, 1j, -1, -1j])[phase & 3] * permuted)
        out.append(abs(ov))
    return np.array(out)


class TestDiagonalPermutationStream:
    """The sweep's blocks of D P Cliffords against the scalar loop it
    replaced: the same draws in the same order, the same overlaps."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_blocks_match_scalar_loop(self, n):
        from stateiso.paulis import batch_block_size, batch_overlaps, diagonal_permutation_batch
        from stateiso.psgi import random_state
        states = np.random.default_rng(n)
        psi1, psi2 = random_state(n, states), random_state(n, states)
        # past one block of the sweep, so that two integers calls are made
        count = batch_block_size(1 << n) + 7
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        want = _scalar_sweep_overlaps(psi1, psi2, count, ref)
        batch = diagonal_permutation_batch(n, rng, count)
        got = np.abs(batch_overlaps(batch, psi1, psi2))
        assert np.abs(got - want).max() < 1e-12
        # the rows are Cliffords: Hermitian images that anticommute exactly
        # for X_q and Z_q.  The overlaps alone would not see a missing Z_q in
        # the image of X_q under S_q, nor wrong images of the Z_q
        for b in range(min(count, 64)):
            images = [PauliOp(n, *t) for t in zip(*(a[b].tolist() for a in batch[1:]))]
            for i, p in enumerate(images):
                assert p.is_hermitian(), (b, i)
                for j, o in enumerate(images):
                    assert ((p * o).key() != (o * p).key()) == (abs(i - j) == n), (b, i, j)
        assert rng.bit_generator.state == ref.bit_generator.state
        # the sweep draws its blocks from the same stream; the threshold sits
        # mid-way in the widest gap between overlaps, clear of round-off
        v = np.sort(want)
        gap = int(np.argmax(np.diff(v)))
        threshold = float(v[gap] + v[gap + 1]) / 2
        report = diagonal_permutation_overlap_sweep(psi1, psi2, count, 3, threshold)
        assert report["exceed_count"] == int(np.count_nonzero(want > threshold))
        assert abs(report["max_overlap"] - want.max()) < 1e-12


class TestBqpHardness:
    def test_diagnostics_at_n2(self):
        rng = np.random.default_rng(8)
        q = brick_layer_circuit(2, 16, rng)
        phi = Circuit(2, (("H", (0,)), ("T", (0,)), ("CZ", (0, 1)), ("H", (1,))))
        inst, diag = bqp_hardness_instance(q, phi, pauli_group(2))
        assert inst.psi1.n_qubits == 2
        # self-overlap of any state under nontrivial Paulis is at most 1;
        # hiding overlap stays below the beta threshold for soundness
        assert 0 <= diag["max_hiding_overlap"] <= 1 + 1e-12
        assert 0 <= diag["max_self_overlap"] <= 1 + 1e-12

    def test_rstate_self_overlap_is_cos8(self):
        from stateiso.paulis import COS8, r_state_product
        n = 2
        psi = r_state_product(n)
        circ = Circuit(n, ())
        # build a circuit preparing |R^n> via H then T on each qubit
        prep = Circuit(n, tuple(
            g for q in range(n) for g in (("H", (q,)), ("R8", (q,)))))
        out = run_circuit(prep)
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)
        _, diag = bqp_hardness_instance(circ, prep, pauli_group(n))
        assert abs(diag["max_self_overlap"] - COS8) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maxima_match_element_loop(self, n):
        rep = pauli_group(n)
        rng = np.random.default_rng(40 + n)
        q, phi = brick_layer_circuit(n, 6, rng), brick_layer_circuit(n, 6, rng)
        _, diag = bqp_hardness_instance(q, phi, rep)
        a = run_circuit(phi).amplitudes
        zero = np.eye(rep.dim)[0]
        hiding = max(abs(np.vdot(a, rep.unitary(g) @ zero)) for g in rep.elements)
        self_ov = max(abs(np.vdot(a, rep.unitary(g) @ a)) for g in rep.elements
                      if not np.allclose(rep.unitary(g), rep.unitary(g)[0, 0] * np.eye(rep.dim),
                                         rtol=0, atol=1e-10))
        assert abs(diag["max_hiding_overlap"] - hiding) < 1e-12
        assert abs(diag["max_self_overlap"] - self_ov) < 1e-12

    def test_brick_layer_shape(self):
        rng = np.random.default_rng(9)
        c = brick_layer_circuit(3, 4, rng)
        assert c.n_qubits == 3
        run_circuit(c)  # executes without error


class TestDistinguishability:
    def test_msgi_padding_halves_distance(self):
        s1, s2 = random_density(4, RNG), random_density(4, RNG)
        inst = qsd_to_msgi(s1, s2, pauli_group(2), seed=0)
        lhs = trace_norm(inst.sigma1.matrix - inst.sigma2.matrix)
        rhs = trace_norm(s1.matrix - s2.matrix)
        assert abs(lhs - 0.5 * rhs) < 1e-10
        assert 0 <= inst.diagnostics["identity_fidelity"] <= 1 + 1e-9
        assert inst.diagnostics["max_fidelity"] >= inst.diagnostics["identity_fidelity"] - 1e-9

    @pytest.mark.parametrize("make", [lambda: pauli_group(1), lambda: pauli_group(2),
                                      lambda: clifford_group(1), lambda: clifford_group(2)],
                             ids=["pauli1", "pauli2", "clifford1", "clifford2"])
    def test_max_fidelity_matches_element_loop(self, make):
        rep = make()
        s1, s2 = random_density(rep.dim, RNG), random_density(rep.dim, RNG)
        inst = qsd_to_msgi(s1, s2, rep, seed=3)
        a, b = inst.sigma1.matrix, inst.sigma2
        want = max(sqrt_fidelity(DensityMatrix(b.n_qubits, u @ a @ u.conj().T), b)
                   for u in map(rep.unitary, rep.elements))
        assert abs(inst.diagnostics["max_fidelity"] - want) < 1e-12

    def test_msgi_seed_reproducible(self):
        s1, s2 = random_density(2, RNG), random_density(2, RNG)
        a = qsd_to_msgi(s1, s2, pauli_group(1), seed=4)
        b = qsd_to_msgi(s1, s2, pauli_group(1), seed=4)
        assert np.allclose(a.sigma1.matrix, b.sigma1.matrix)

    def test_mixed_hsp_label_vectors(self):
        rep = cyclic_group(4, "shift")
        h = rep.elements[2]  # order-2 element of Z4
        s1, s2 = random_density(4, RNG), random_density(4, RNG)
        inst = qsd_to_mixed_hsp(s1, s2, rep, h)
        rh = rep.unitary(h)
        assert np.allclose(rh @ inst.v1, inst.v2, atol=1e-10)
        assert abs(np.trace(inst.rho.matrix) - 1) < 1e-10

    def test_trace_distance_transfer_identity(self):
        rep = cyclic_group(4, "shift")
        h = rep.elements[2]
        for _ in range(20):
            s1, s2 = random_density(4, RNG), random_density(4, RNG)
            inst = qsd_to_mixed_hsp(s1, s2, rep, h)
            lhs, rhs = trace_distance_transfer(inst, s1, s2)
            assert abs(lhs - rhs) < 1e-7

    def test_non_involution_rejected(self):
        rep = cyclic_group(4, "shift")
        h = rep.elements[1]  # order 4, not an involution
        with pytest.raises(ReductionError):
            qsd_to_mixed_hsp(random_density(4, RNG), random_density(4, RNG), rep, h)

    def test_dimension_mismatch(self):
        with pytest.raises(ReductionError):
            qsd_to_msgi(random_density(2, RNG), random_density(2, RNG), pauli_group(2), 0)


class TestThresholdHelpers:
    def test_lowrank_thresholds(self):
        th = lowrank_thresholds(4)
        assert th.alpha == pytest.approx(1 - 1 / 98304)
        assert th.beta == 1.0

    def test_gi_thresholds(self):
        assert GI_THRESHOLDS.alpha == 0.99999
        assert GI_THRESHOLDS.beta == 1.0
