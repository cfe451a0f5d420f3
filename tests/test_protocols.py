import tracemalloc

import numpy as np
import pytest

from stateiso.graphs import Graph
from stateiso.groups import DecisionThresholds, clifford_group, pauli_group
from stateiso.linalg import DensityMatrix, StateVector
from stateiso.paulis import batch_unitaries, qubit_permutation_batch
from stateiso.protocols import (
    DEFAULT_SHADOW_DELTA,
    ProtocolError,
    ProtocolTranscript,
    _context,
    _median_of_means,
    _shadow_estimates,
    qcszk_context,
    qcszk_round,
    qszk_mixed_context,
    qszk_mixed_round,
    run_trials,
    shadow_single_shots,
    szk_lowrank_context,
    szk_lowrank_round,
    wilson_interval,
)
from stateiso.psgi import PsgiInstance, random_pauli_psgi_instance, random_state
from stateiso.reductions import MsgiInstance, lowrank_gi_instance

THRESHOLDS = DecisionThresholds(0.6, 0.99)


class TestRecords:
    def test_transcript_accept_invariant(self):
        # accept is j == j_prime, never set on its own
        for j in (1, 2):
            for j_prime in (1, 2):
                t = ProtocolTranscript(j=j, j_prime=j_prime)
                assert t.accept is (j == j_prime)
        with pytest.raises(TypeError):
            ProtocolTranscript(j=1, j_prime=2, accept=True)


def _estimates(psi, targets, n_shadows, seed):
    target_mat = np.stack([t.amplitudes for t in targets]).T
    return _shadow_estimates(psi.amplitudes, target_mat, n_shadows,
                             np.random.default_rng(seed), DEFAULT_SHADOW_DELTA)


class TestShadows:
    def test_median_of_means_is_numpy_median(self):
        # the partition median equals np.median bit for bit, at odd and even
        # bucket counts, with ties among the means
        rng = np.random.default_rng(17)
        for trial in range(300):
            n, m = int(rng.integers(1, 200)), int(rng.integers(1, 6))
            delta = float(rng.choice([0.01, 0.05, 0.3]))
            singles = rng.normal(size=(n, m))
            if trial % 3 == 0:
                singles = np.round(singles)
            k = min(max(1, 2 * int(np.ceil(np.log(2 * m / delta)))), n)
            means = singles[: k * (n // k)].reshape(k, n // k, -1).mean(axis=1)
            got, want = _median_of_means(singles, m, delta), np.median(means, axis=0)
            assert got.tobytes() == want.tobytes()

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
                est = shadow_single_shots(u[b:b + 1], t.amplitudes[:, None])[0, 0]
                total += p * est / 24
        assert abs(total - abs(np.vdot(t.amplitudes, psi.amplitudes)) ** 2) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_single_shots_unbiased_over_the_group(self, n):
        # the exact mean of the estimator's rule over all 24 or 11,520
        # Cliffords U and the Born-rule outcomes b of U|psi> is |<phi|psi>|^2
        unitaries = clifford_group(n).unitaries
        rows = unitaries.reshape(-1, 1 << n)         # every <b|U
        rng = np.random.default_rng(12)
        for _ in range(5):
            psi, phi = random_state(n, rng).amplitudes, random_state(n, rng).amplitudes
            born = np.abs(rows @ psi) ** 2 / len(unitaries)
            expect = born @ shadow_single_shots(rows, phi[:, None])[:, 0]
            assert abs(expect - abs(np.vdot(phi, psi)) ** 2) < 1e-12

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


    def test_shadow_count_over_budget_refused_before_drawing(self):
        # 10^8 shadows need a 25 GiB (two qubits) or 95 GiB (three qubits)
        # unitary stack; refused before any Clifford is drawn
        rng = np.random.default_rng(5)
        for n in (2, 3):
            psi = random_state(n, rng)
            tracemalloc.start()
            try:
                with pytest.raises(ProtocolError, match="budget"):
                    _estimates(psi, [psi], 10**8, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

class TestQcszk:
    def test_isomorphic_accept_near_half(self):
        rng = np.random.default_rng(6)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "yes", rng)
        ctx = qcszk_context(inst)
        report = run_trials(
            lambda s: qcszk_round(ctx, n_shadows=500, seed=s),
            trials=400, seed=0)
        assert 0.40 <= report["accept_rate"] <= 0.60

    def test_non_isomorphic_accept_high(self):
        rng = np.random.default_rng(7)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "no", rng)
        ctx = qcszk_context(inst)
        report = run_trials(
            lambda s: qcszk_round(ctx, n_shadows=800, seed=s),
            trials=200, seed=0)
        assert report["accept_rate"] >= 0.9

    def test_context_orbit_split(self):
        rng = np.random.default_rng(8)
        inst = random_pauli_psgi_instance(1, THRESHOLDS, "yes", rng)
        ctx = qcszk_context(inst)
        assert ctx["targets"].shape[0] == 2
        assert 1 <= ctx["split"] <= 16

    @staticmethod
    def _reference_orbit(unitaries, psi):
        # one key per vector: |v| to 10 decimals, the angle relative to the
        # first largest entry to 8; the first vector of each key is kept
        seen = {}
        for vec in unitaries @ psi:
            key = tuple(np.round(np.abs(vec), 10)) + tuple(
                np.round(np.angle(vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))), 8)
            )
            seen.setdefault(key, vec)
        return list(seen.values())

    def test_context_matches_per_vector_orbit(self):
        rng = np.random.default_rng(9)
        # alpha 0.75: at n = 1 no pair has every Pauli overlap below 1/sqrt(2)
        loose = DecisionThresholds(0.75, 0.99)
        insts = [random_pauli_psgi_instance(n, loose, kind, rng)
                 for n in (1, 2, 3) for kind in ("yes", "no")]
        rep = clifford_group(1)
        psi = random_state(1, rng)
        insts.append(PsgiInstance(psi, StateVector(1, rep.unitaries[7] @ psi.amplitudes),
                                  rep, THRESHOLDS))
        for inst in insts:
            o1 = self._reference_orbit(inst.rep.unitaries, inst.psi1.amplitudes)
            o2 = self._reference_orbit(inst.rep.unitaries, inst.psi2.amplitudes)
            ctx = qcszk_context(inst)
            assert ctx["split"] == len(o1)
            assert np.array_equal(ctx["targets"], np.stack(o1 + o2).T)


def _unique_context_reps(orbit):
    """The representatives by the np.unique(axis=0) pass that _context used
    before its dictionary pass: the first index of each sorted key row."""
    mag = np.abs(orbit)
    top = orbit[np.arange(len(orbit)), mag.argmax(axis=1)]
    rel = np.angle(orbit * np.exp(-1j * np.angle(top))[:, None])
    key = np.hstack((np.round(mag, 10), np.round(rel, 8))) + 0.0
    return orbit[np.sort(np.unique(key, axis=0, return_index=True)[1])]


class TestContextDedup:
    def test_first_rows_match_np_unique(self):
        # rows drawn from a small pool, each under a random global phase and
        # with one entry's angle nudged by +-1e-12, so that its key rounds to
        # -0.0 or 0.0; two rows of the pool are equal up to phase
        rng = np.random.default_rng(61)
        for n, pool_size, rows in ((1, 3, 40), (2, 6, 200), (3, 20, 500)):
            d = 1 << n
            pool = rng.normal(size=(pool_size, d)) + 1j * rng.normal(size=(pool_size, d))
            pool[1] = pool[2] * np.exp(0.7j)
            pick = rng.integers(pool_size, size=rows)
            orbit = pool[pick] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(rows, 1)))
            nudge = np.ones((rows, d), dtype=complex)
            nudge[np.arange(rows), rng.integers(d, size=rows)] = np.exp(
                1j * rng.choice([-1e-12, 1e-12], size=rows))
            orbit = orbit * nudge
            other = orbit[rng.permutation(rows)]
            ctx = _context((orbit, other), None)
            want = [_unique_context_reps(o) for o in (orbit, other)]
            assert ctx["split"] == len(want[0])
            assert np.array_equal(ctx["targets"], np.vstack(want).T)
            # signed zeros and phases merge: one representative per distinct
            # pool row drawn, less the pair equal up to phase
            drawn = set(pick.tolist())
            assert ctx["split"] == len(drawn) - ({1, 2} <= drawn)


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
            lambda s: qszk_mixed_round(ctx, seed=s),
            trials=2000, seed=1)
        assert abs(report["accept_rate"] - 0.5) < 0.05

    def test_helstrom_rate_matches_distance(self):
        far = self._far_instance()
        ctx = qszk_mixed_context(far, k=2)
        want = 0.5 + ctx["distance"] / 2
        report = run_trials(
            lambda s: qszk_mixed_round(ctx, seed=s),
            trials=2000, seed=2)
        assert abs(report["accept_rate"] - want) < 0.05


class TestSzkLowrank:
    def test_distinguishes_at_large_graph_weight(self):
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(4), Graph.star(4),
                                          graph_weight=0.7)
        ctx = szk_lowrank_context(lr1, lr2)
        report = run_trials(
            lambda s: szk_lowrank_round(ctx, seed=s),
            trials=60, seed=0)
        assert report["accept_rate"] >= 0.85

    def test_isomorphic_near_half(self):
        g1 = Graph.path(4)
        g2 = g1.relabel((2, 0, 3, 1))
        lr1, lr2, _ = lowrank_gi_instance(g1, g2, graph_weight=0.7)
        ctx = szk_lowrank_context(lr1, lr2)
        report = run_trials(
            lambda s: szk_lowrank_round(ctx, seed=s),
            trials=80, seed=0)
        assert 0.3 <= report["accept_rate"] <= 0.7

    @pytest.mark.parametrize("n, reversed_sizes, star_sizes", [
        (4, (12, 24), (12, 16)),
        (5, (60, 120), (60, 65)),
        (6, (360, 720), (360, 366)),
    ])
    def test_orbit_sizes(self, n, reversed_sizes, star_sizes):
        # split and total orbit targets of P_n against its reversal and S_n
        p = Graph.path(n)
        for g2, sizes in ((p.relabel(tuple(range(n - 1, -1, -1))), reversed_sizes),
                          (Graph.star(n), star_sizes)):
            lr1, lr2, _ = lowrank_gi_instance(p, g2, graph_weight=0.7)
            ctx = szk_lowrank_context(lr1, lr2)
            assert (ctx["split"], ctx["targets"].shape[1]) == sizes

    def test_permutation_orbit_budget(self):
        # the orbits take 16 n! 2^n bytes each and peak near 6.7 of them:
        # 66 MiB at n = 7, admitted; 1.3 GiB at n = 8, refused before
        # anything is built
        class Unbuilt:
            def __init__(self, n):
                self.n_qubits = n

            def materialize(self):
                raise AssertionError("materialized")

        for n in (8, 12, 40):
            with pytest.raises(ProtocolError, match="budget"):
                szk_lowrank_context(Unbuilt(n), Unbuilt(n))
        with pytest.raises(AssertionError, match="materialized"):
            szk_lowrank_context(Unbuilt(7), Unbuilt(7))
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(6), Graph.star(6), graph_weight=0.7)
        tracemalloc.start()
        try:
            ctx = szk_lowrank_context(lr1, lr2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (720, 64, 64) unitary stack alone would take 45 MiB
        assert peak < 8 << 20
        assert len(ctx["labels"]) == len(ctx["orbits"][0]) == len(ctx["orbits"][1]) == 720
        assert ctx["labels"][0] == tuple(range(6)) and ctx["labels"][-1] == tuple(range(5, -1, -1))
        t = szk_lowrank_round(ctx, seed=1, n_shadows=50)
        assert t.accept == (t.j == t.j_prime)

    def test_orbit_rows_equal_stack_product(self):
        # each round sends row g of a kept orbit; it must equal the dense
        # stack product U[g] psi bit for bit, or the pinned rounds move
        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        rng = np.random.default_rng(11)
        loose = DecisionThresholds(0.75, 0.99)
        for n in (1, 2, 3):
            for kind in ("yes", "no"):
                inst = random_pauli_psgi_instance(n, loose, kind, rng)
                ctx = qcszk_context(inst)
                for orbit, psi in zip(ctx["orbits"], (inst.psi1, inst.psi2)):
                    ref = np.stack([u @ psi.amplitudes for u in inst.rep.unitaries])
                    assert np.array_equal(bits(orbit), bits(ref))
        for n in (4, 5, 6):
            lr1, lr2, _ = lowrank_gi_instance(Graph.path(n), Graph.star(n), graph_weight=0.7)
            ctx = szk_lowrank_context(lr1, lr2)
            us = batch_unitaries(qubit_permutation_batch(ctx["labels"], n))
            for orbit, lr in zip(ctx["orbits"], (lr1, lr2)):
                psi = lr.materialize().amplitudes
                assert np.array_equal(bits(orbit), bits(np.stack([u @ psi for u in us])))

    def test_gamma_validation(self):
        lr1, lr2, _ = lowrank_gi_instance(Graph.path(4), Graph.star(4))
        ctx = szk_lowrank_context(lr1, lr2)
        for gamma in (0.0, 1.0, 2.0):
            with pytest.raises(ProtocolError, match="gamma must be in"):
                szk_lowrank_round(ctx, gamma=gamma)


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
            return ProtocolTranscript(j=1, j_prime=1 if accept else 2)
        report = run_trials(coin, trials=2000, seed=3)
        assert abs(report["accept_rate"] - 0.5) < 0.05
        assert report["wilson_low"] < report["accept_rate"] < report["wilson_high"]
