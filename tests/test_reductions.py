import math

import numpy as np
import pytest

from stateiso.graphs import Graph
from stateiso.groups import cyclic_group, pauli_group
from stateiso.linalg import Circuit, random_density, run_circuit, trace_norm
from stateiso.paulis import (
    CliffordElement,
    random_clifford,
)
from stateiso.psgi import PsgiVerdict
from stateiso.reductions import (
    GI_THRESHOLDS,
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
        assert c == CliffordElement.identity(6)

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

    def test_first_qubit_claim(self):
        pairs = [(Graph.path(3), Graph.path(3).relabel((1, 0, 2))),
                 (Graph.cycle(4), Graph.cycle(4))]
        report = verify_first_qubit_claim([gi_to_clifford(*p) for p in pairs])
        assert report["passed"]
        assert report["high_overlap_permutations"]
        for rec in report["high_overlap_permutations"]:
            assert rec["fixes_control"]


class TestLowRank:
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
