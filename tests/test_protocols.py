import json

import numpy as np
import pytest

from stateiso.graphs import Graph
from stateiso.groups import DecisionThresholds, clifford_group, pauli_group
from stateiso.linalg import DensityMatrix
from stateiso.protocols import (
    DEFAULT_SHADOW_DELTA,
    ProtocolError,
    ProtocolTranscript,
    _shadow_estimates,
    qcszk_context,
    qcszk_round,
    qszk_mixed_context,
    qszk_mixed_round,
    run_trials,
    szk_lowrank_context,
    szk_lowrank_round,
    wilson_interval,
    write_summary_csv,
)
from stateiso.psgi import random_pauli_psgi_instance, random_state
from stateiso.reductions import MsgiInstance, lowrank_gi_instance

THRESHOLDS = DecisionThresholds(0.6, 0.99)


class TestRecords:
    def test_transcript_accept_invariant(self):
        with pytest.raises(ProtocolError):
            ProtocolTranscript(j=1, g=None, message={}, j_prime=2, accept=True)

    def test_transcript_json(self):
        t = ProtocolTranscript(j=1, g=None, message={"k": 2}, j_prime=1,
                               accept=True)
        back = json.loads(t.to_json())
        assert back["accept"] is True and back["j"] == 1


def _estimates(psi, targets, n_shadows, seed):
    target_mat = np.stack([t.amplitudes for t in targets]).T
    return _shadow_estimates(psi.amplitudes, target_mat, n_shadows,
                             np.random.default_rng(seed), DEFAULT_SHADOW_DELTA)


class TestShadows:
    def test_seed_reproducible(self):
        rng = np.random.default_rng(0)
        psi = random_state(2, rng)
        a = _estimates(psi, [psi], 10, seed=7)
        b = _estimates(psi, [psi], 10, seed=7)
        assert np.array_equal(a, b)

    def test_estimator_unbiased_single_qubit(self):
        # enumerate all 24 Cliffords x outcomes: the single-shadow
        # estimator has expectation exactly |<t|psi>|^2
        from stateiso.paulis import enumerate_cliffords
        rng = np.random.default_rng(1)
        psi = random_state(1, rng)
        t = random_state(1, rng)
        total = 0.0
        for c in enumerate_cliffords(1):
            u = c.to_unitary().matrix
            rotated = u @ psi.amplitudes
            for b in range(2):
                p = abs(rotated[b]) ** 2
                est = 3 * abs(np.vdot(u[b].conj(), t.amplitudes)) ** 2 - 1
                total += p * est / 24
        assert abs(total - abs(np.vdot(t.amplitudes, psi.amplitudes)) ** 2) < 1e-10

    def test_fidelity_from_shadows_converges(self):
        rng = np.random.default_rng(2)
        psi = random_state(2, rng)
        other = random_state(2, rng)
        ests = _estimates(psi, [psi, other], 6000, seed=3)
        assert abs(ests[0] - 1) < 0.15
        want = abs(np.vdot(other.amplitudes, psi.amplitudes)) ** 2
        assert abs(ests[1] - want) < 0.15

    def test_empty_shadows_rejected(self):
        rng = np.random.default_rng(4)
        psi = random_state(1, rng)
        with pytest.raises(ProtocolError):
            _estimates(psi, [psi], 0, seed=0)


class TestQcszk:
    def test_isomorphic_accept_near_half(self):
        rng = np.random.default_rng(6)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "yes", rng)
        ctx = qcszk_context(inst)
        report = run_trials(
            lambda s: qcszk_round(inst, n_shadows=500, seed=s, context=ctx),
            trials=400, seed=0)
        assert 0.40 <= report["accept_rate"] <= 0.60

    def test_non_isomorphic_accept_high(self):
        rng = np.random.default_rng(7)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "no", rng)
        ctx = qcszk_context(inst)
        report = run_trials(
            lambda s: qcszk_round(inst, n_shadows=800, seed=s, context=ctx),
            trials=200, seed=0)
        assert report["accept_rate"] >= 0.9

    def test_context_orbit_split(self):
        rng = np.random.default_rng(8)
        inst = random_pauli_psgi_instance(1, THRESHOLDS, "yes", rng)
        ctx = qcszk_context(inst)
        assert ctx["targets"].shape[0] == 2
        assert 1 <= ctx["split"] <= 16


class TestQszkMixed:
    @staticmethod
    def _far_instance():
        # |00><00| vs the maximally mixed state
        p = np.zeros((4, 4), dtype=complex)
        p[0, 0] = 1.0
        return MsgiInstance(DensityMatrix(2, p),
                            DensityMatrix(2, np.eye(4) / 4),
                            pauli_group(2), THRESHOLDS)

    @staticmethod
    def _iso_instance(seed=0):
        rng = np.random.default_rng(seed)
        rep = clifford_group(1)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = a @ a.conj().T
        s1 = m / np.trace(m).real
        g = rep.elements[int(rng.integers(rep.order))]
        u = rep.unitary(g)
        s2 = u @ s1 @ u.conj().T
        return MsgiInstance(DensityMatrix(1, s1), DensityMatrix(1, s2),
                            rep, THRESHOLDS)

    def test_isomorphic_twirls_identical(self):
        inst = self._iso_instance()
        ctx = qszk_mixed_context(inst, k=2)
        assert ctx["distance"] < 1e-10

    def test_far_pair_distance_grows_with_k(self):
        inst = self._far_instance()
        dists = [qszk_mixed_context(inst, k)["distance"] for k in (1, 2)]
        assert dists[1] >= dists[0] - 1e-12

    def test_round_accept_rates(self):
        iso = self._iso_instance()
        ctx = qszk_mixed_context(iso, k=2)
        report = run_trials(
            lambda s: qszk_mixed_round(iso, k=2, seed=s, context=ctx),
            trials=2000, seed=1)
        assert abs(report["accept_rate"] - 0.5) < 0.05

    def test_helstrom_rate_matches_distance(self):
        far = self._far_instance()
        ctx = qszk_mixed_context(far, k=2)
        want = 0.5 + ctx["distance"] / 2
        report = run_trials(
            lambda s: qszk_mixed_round(far, k=2, seed=s, context=ctx),
            trials=2000, seed=2)
        assert abs(report["accept_rate"] - want) < 0.05


class TestSzkLowrank:
    def test_distinguishes_at_large_graph_weight(self):
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(4), Graph.star(4),
                                          graph_weight=0.7)
        ctx = szk_lowrank_context(lr1, lr2)
        report = run_trials(
            lambda s: szk_lowrank_round(lr1, lr2, seed=s, context=ctx),
            trials=60, seed=0)
        assert report["accept_rate"] >= 0.85

    def test_isomorphic_near_half(self):
        g1 = Graph.path(4)
        g2 = g1.relabel((2, 0, 3, 1))
        lr1, lr2, _ = lowrank_gi_instance(g1, g2, graph_weight=0.7)
        ctx = szk_lowrank_context(lr1, lr2)
        report = run_trials(
            lambda s: szk_lowrank_round(lr1, lr2, seed=s, context=ctx),
            trials=80, seed=0)
        assert 0.3 <= report["accept_rate"] <= 0.7

    def test_gamma_validation(self):
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(4), Graph.star(4))
        with pytest.raises(ProtocolError):
            szk_lowrank_round(lr1, lr2, gamma=2.0)


class TestAggregation:
    def test_wilson_interval_contains_rate(self):
        low, high = wilson_interval(50, 100)
        assert low < 0.5 < high
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0
        with pytest.raises(ProtocolError):
            wilson_interval(0, 0)

    def test_run_trials_fair_coin(self):
        def coin(seed):
            accept = bool(np.random.default_rng(seed).integers(2))
            return ProtocolTranscript(j=1, g=None, message={},
                                      j_prime=1 if accept else 2,
                                      accept=accept)
        report = run_trials(coin, trials=2000, seed=3)
        assert abs(report["accept_rate"] - 0.5) < 0.05
        assert report["wilson_low"] < report["accept_rate"] < report["wilson_high"]

    def test_run_trials_transcript_file(self, tmp_path):
        def always(seed):
            return ProtocolTranscript(j=1, g=None, message={}, j_prime=1,
                                      accept=True)
        path = tmp_path / "t.jsonl"
        report = run_trials(always, trials=5, seed=0, transcript_file=str(path))
        assert report["accepts"] == 5
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(ln)["accept"] for ln in lines)

    def test_write_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(str(path), [
            {"instance": "iso", "trials": 10, "accepts": 5,
             "accept_rate": 0.5, "wilson_low": 0.2, "wilson_high": 0.8},
        ])
        text = path.read_text()
        assert text.splitlines()[0].startswith("instance,")
        assert "iso" in text
