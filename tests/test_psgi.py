import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from stateiso import obs
from stateiso.groups import (DecisionThresholds, GroupError, clifford_group, cyclic_group,
                             dihedralize, pauli_group, z2k_group)
from stateiso.linalg import StateVector
from stateiso.paulis import PauliOp, walsh_hadamard
from stateiso.psgi import (
    PsgiError,
    PsgiInstance,
    PsgiVerdict,
    _kernel,
    character_distribution,
    pauli_psgi_quantum,
    psgi_oracle,
    psgi_to_statehsp,
    random_pauli_psgi_instance,
    random_state,
)

THRESHOLDS = DecisionThresholds(0.6, 0.99)


class TestOracle:
    def test_same_state_is_yes_with_identity(self):
        rng = np.random.default_rng(0)
        psi = random_state(2, rng)
        inst = PsgiInstance(psi, psi, pauli_group(2), THRESHOLDS)
        verdict = psgi_oracle(inst)
        assert verdict.decision == "YES"
        assert verdict.witness == pauli_group(2).identity
        assert abs(verdict.achieved_overlap - 1) < 1e-12

    def test_planted_witness_found(self):
        rng = np.random.default_rng(1)
        rep = pauli_group(2)
        psi1 = random_state(2, rng)
        label = (0, 0b01, 0b10)  # +XZ on two qubits
        p = PauliOp(2, *label)
        psi2 = StateVector(2, p.hermitian_conjugate().apply(psi1.amplitudes))
        inst = PsgiInstance(psi1, psi2, rep, THRESHOLDS)
        verdict = psgi_oracle(inst)
        assert verdict.decision == "YES"
        g = verdict.witness
        assert np.allclose(rep.unitary(g) @ psi2.amplitudes, psi1.amplitudes)

    def test_flat_pair_is_no(self):
        # |00> vs the two-qubit graph state: every Pauli overlap has
        # modulus exactly 1/2, below alpha
        from stateiso.graphs import Graph
        from stateiso.paulis import graph_state

        a1 = np.zeros(4, dtype=complex)
        a1[0] = 1
        inst = PsgiInstance(StateVector(2, a1), graph_state(Graph.complete(2)),
                            pauli_group(2), THRESHOLDS)
        assert psgi_oracle(inst).decision == "NO"

    def test_promise_violation_detected(self):
        # overlap ~0.9 with no group element reaching beta
        rng = np.random.default_rng(3)
        psi1 = random_state(1, rng)
        mix = 0.9 * psi1.amplitudes + 0.45 * random_state(1, rng).amplitudes
        psi2 = StateVector(1, mix / np.linalg.norm(mix))
        inst = PsgiInstance(psi1, psi2, pauli_group(1),
                            DecisionThresholds(0.05, 0.999999))
        assert psgi_oracle(inst).decision == "PROMISE_VIOLATED"

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(PsgiError):
            PsgiInstance(random_state(1, rng), random_state(1, rng),
                         pauli_group(2), THRESHOLDS)

    def test_stack_over_budget_refused(self):
        # pauli(7)'s orbit of psi2 is 65,536 rows of 128 entries, 128 MiB,
        # with a modelled peak of 448 MiB
        rng = np.random.default_rng(5)
        psi = random_state(7, rng)
        inst = PsgiInstance(psi, psi, pauli_group(7), THRESHOLDS)
        tracemalloc.start()
        try:
            with pytest.raises(GroupError):
                psgi_oracle(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _oracle_reference(inst):
    """The per-element scan the stacked oracle replaced."""
    best_re, best_g, best_ov, max_abs = -np.inf, None, 0j, 0.0
    for g in inst.rep.elements:
        ov = complex(np.vdot(inst.psi1.amplitudes,
                             inst.rep.unitary(g) @ inst.psi2.amplitudes))
        if ov.real > best_re + 1e-15:
            best_re, best_g, best_ov = ov.real, g, ov
        max_abs = max(max_abs, abs(ov))
    th = inst.thresholds
    if best_re >= th.beta:
        return PsgiVerdict("YES", best_g, best_ov)
    if max_abs <= th.alpha:
        return PsgiVerdict("NO", None, best_ov)
    return PsgiVerdict("PROMISE_VIOLATED", best_g, best_ov)


class TestOracleMatchesElementLoop:
    @pytest.mark.parametrize("make", [
        lambda: pauli_group(1), lambda: pauli_group(2), lambda: pauli_group(3),
        lambda: clifford_group(1), lambda: clifford_group(2),
        lambda: cyclic_group(6, "shift"), lambda: dihedralize(cyclic_group(4, "shift")),
    ], ids=["pauli1", "pauli2", "pauli3", "clifford1", "clifford2", "cyclic6-shift",
            "dihedral-cyclic4"])
    def test_same_decision_witness_and_overlap(self, make):
        rep = make()
        rng = np.random.default_rng(31)
        for trial in range(16):
            a1 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
            a1 /= np.linalg.norm(a1)
            if trial % 4 == 0:         # planted: psi1 = R(g) psi2
                a2 = rep.unitary(rep.elements[int(rng.integers(rep.order))]).conj().T @ a1
            elif trial % 4 == 1:
                a2 = a1
            else:
                a2 = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
                a2 /= np.linalg.norm(a2)
            # a high alpha turns the last random pair of each four into a NO
            alpha = 0.985 if trial % 4 == 3 else 0.3
            # cyclic(6) acts on C^6, which holds no qubit StateVector
            inst = SimpleNamespace(psi1=SimpleNamespace(amplitudes=a1),
                                   psi2=SimpleNamespace(amplitudes=a2), rep=rep,
                                   thresholds=DecisionThresholds(alpha, 0.99))
            got, want = psgi_oracle(inst), _oracle_reference(inst)
            assert (got.decision, got.witness) == (want.decision, want.witness)
            assert abs(got.achieved_overlap - want.achieved_overlap) < 1e-12


def _character_distribution_loop(psi1, psi2, n, m):
    """The label loop that the Pauli tables replaced: each label
    u = x | z << n | s << 2n | a << 2n+1 applied as a dense (2n+1)-qubit
    Pauli X^a (-1)^s B x B to |Psi> = (|0>|psi1 psi1> + |1>|psi2 psi2>)/sqrt(2)."""
    psi = np.concatenate([np.kron(psi1, psi1), np.kron(psi2, psi2)]) / np.sqrt(2)
    k = 2 * n + 2
    f1 = np.empty(1 << k)
    for u in range(1 << k):
        x, z = u & ((1 << n) - 1), (u >> n) & ((1 << n) - 1)
        s, a = (u >> (2 * n)) & 1, (u >> (2 * n + 1)) & 1
        p = PauliOp(2 * n + 1, 2 * s, a | (x << 1) | (x << (n + 1)), (z << 1) | (z << (n + 1)))
        f1[u] = np.vdot(psi, p.apply(psi)).real
    # walsh_hadamard is checked bit for bit against its butterfly loop in test_paulis
    return np.clip(walsh_hadamard((f1**m)[:, None])[:, 0] / (1 << k), 0.0, None)


class TestFourierSampling:
    def test_distribution_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            inst = random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
            probs = character_distribution(inst.psi1.amplitudes, inst.psi2.amplitudes, n, 2)
            assert len(probs) == 1 << (2 * n + 2)
            assert abs(probs.sum() - 1) < 1e-9
            assert (probs >= 0).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_label_loop(self, n):
        rng = np.random.default_rng(40 + n)
        for kind in ("yes", "random"):
            if kind == "yes":
                inst = random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
                a1, a2 = inst.psi1.amplitudes, inst.psi2.amplitudes
            else:
                a1, a2 = random_state(n, rng).amplitudes, random_state(n, rng).amplitudes
            for m in (1, 2, 3):
                got = character_distribution(a1, a2, n, m)
                assert np.abs(got - _character_distribution_loop(a1, a2, n, m)).max() < 1e-15

    def test_sampled_characters_annihilate_hidden_label(self):
        # for a YES instance the support of the distribution is the dual
        # of the hidden subgroup, so chi . u = 0 for the witness label
        rng = np.random.default_rng(8)
        n = 1
        psi1 = random_state(n, rng)
        p = PauliOp(n, 0, 1, 0)  # +X
        psi2 = StateVector(n, p.apply(psi1.amplitudes))
        probs = character_distribution(psi1.amplitudes, psi2.amplitudes, n, 2)
        # hidden label: x=1, z=0, s=0, a=1 -> bit positions 0 and 2n+1
        u_bits = np.zeros(2 * n + 2, dtype=np.uint8)
        u_bits[0] = 1
        u_bits[2 * n + 1] = 1
        for chi in np.flatnonzero(probs > 1e-12):
            bits = np.array([(chi >> j) & 1 for j in range(2 * n + 2)])
            assert (bits @ u_bits) % 2 == 0


class TestKernel:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            k = int(rng.integers(1, 9))
            chis = rng.integers(0, 1 << k, size=int(rng.integers(1, 7)))
            if rng.random() < 0.3:      # samples from a subgroup leave a larger kernel
                chis &= int(rng.integers(0, 1 << k))
            labels = np.arange(1 << k)
            want = np.array([all(bin(c & u).count("1") % 2 == 0 for c in chis)
                             for u in labels])
            assert np.array_equal(_kernel(chis, 1 << k), want)

    def test_zero_samples_give_full_space(self):
        assert _kernel(np.zeros(3, dtype=np.int64), 16).all()


def _solver_instances():
    """The YES and NO instances of the exact-mode solver tests below."""
    rng = np.random.default_rng(12)
    yes = [random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
           for n in (1, 2) for _ in range(10)]
    rng = np.random.default_rng(13)
    no = [random_pauli_psgi_instance(2, THRESHOLDS, "no", rng) for _ in range(10)]
    return yes + no


class TestQuantumSolver:
    def test_yes_instances_accepted_with_valid_witness(self):
        rng = np.random.default_rng(12)
        for n in (1, 2):
            for trial in range(10):
                inst = random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
                verdict = pauli_psgi_quantum(inst, seed=trial)
                assert verdict.decision == "YES"
                ph, x, z = verdict.witness
                p = PauliOp(n, ph, x, z)
                ov = np.vdot(inst.psi1.amplitudes,
                             p.apply(inst.psi2.amplitudes))
                assert ov.real >= THRESHOLDS.beta - 1e-8

    def test_no_instances_rejected(self):
        rng = np.random.default_rng(13)
        for trial in range(10):
            inst = random_pauli_psgi_instance(2, THRESHOLDS, "no", rng)
            assert pauli_psgi_quantum(inst, seed=trial).decision == "NO"

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            kind = "yes" if trial % 2 == 0 else "no"
            inst = random_pauli_psgi_instance(2, THRESHOLDS, kind, rng)
            assert (pauli_psgi_quantum(inst, seed=trial).decision
                    == psgi_oracle(inst).decision)

    def test_shot_mode_smoke(self):
        rng = np.random.default_rng(15)
        inst = random_pauli_psgi_instance(1, THRESHOLDS, "yes", rng)
        verdict = pauli_psgi_quantum(inst, seed=0, shot_mode=True, shots=8192)
        assert verdict.decision == "YES"

    def test_shot_mode_matches_exact_mode(self):
        # 200,000 shots put every label's estimate within ~0.01 of exact
        for trial, inst in enumerate(_solver_instances()):
            exact = pauli_psgi_quantum(inst, seed=trial)
            shot = pauli_psgi_quantum(inst, seed=trial, shot_mode=True, shots=200_000)
            assert (shot.decision, shot.witness) == (exact.decision, exact.witness)

    @pytest.mark.parametrize("make", [lambda: clifford_group(1), lambda: z2k_group(1),
                                      lambda: cyclic_group(2, "shift")],
                             ids=["clifford1", "z2k1", "cyclic2"])
    def test_non_pauli_group_refused(self, make):
        psi = random_state(1, np.random.default_rng(16))
        with pytest.raises(PsgiError):
            pauli_psgi_quantum(PsgiInstance(psi, psi, make(), THRESHOLDS))

    def test_counts_repeat_and_leave_verdicts_unchanged(self):
        insts = _solver_instances()[::4]
        plain = [pauli_psgi_quantum(inst, seed=i) for i, inst in enumerate(insts)]
        counts = []
        for _ in range(2):
            with obs.recording() as rec:
                traced = [pauli_psgi_quantum(inst, seed=i) for i, inst in enumerate(insts)]
            assert traced == plain
            counts.append(rec.counts)
        assert counts[0] == counts[1]
        # six characters per label bit; a YES instance's kernel holds the
        # witness label at both signs s
        assert counts[0]["psgi.characters_sampled"] == sum(
            6 * (2 * inst.psi1.n_qubits + 2) for inst in insts)
        assert counts[0]["psgi.kernel_labels"] >= 2 * sum(v.decision == "YES" for v in plain)


class TestStateHspReduction:
    def test_requires_abelian(self):
        rng = np.random.default_rng(17)
        psi = random_state(1, rng)
        inst = PsgiInstance(psi, psi, pauli_group(1), THRESHOLDS)
        with pytest.raises(PsgiError):
            psgi_to_statehsp(inst)

    def test_odd_overlap_identity(self):
        # <Phi|R'(h,1)|Phi> = Re<psi1|R(h)|psi2> for each h, and the m-copy
        # version raises that to the m-th power
        rng = np.random.default_rng(18)
        rep = cyclic_group(4, "shift")
        psi1, psi2 = random_state(2, rng), random_state(2, rng)
        inst = PsgiInstance(psi1, psi2, rep, THRESHOLDS)
        for m in (1, 2):
            phi, drep, bounds = psgi_to_statehsp(inst, m=m)
            assert bounds["m"] == m
            for h in rep.elements:
                u = drep.unitary((h, 1))
                um = np.ones((1, 1), dtype=complex)
                for _ in range(m):
                    um = np.kron(um, u)
                got = np.vdot(phi.amplitudes, um @ phi.amplitudes)
                want = np.vdot(psi1.amplitudes,
                               rep.unitary(h) @ psi2.amplitudes).real ** m
                assert abs(got - want) < 1e-10

    def test_phi_is_the_kron_power_bit_for_bit(self):
        rng = np.random.default_rng(21)
        psi1, psi2 = random_state(2, rng), random_state(2, rng)
        inst = PsgiInstance(psi1, psi2, cyclic_group(4, "shift"), THRESHOLDS)
        single = np.concatenate([psi1.amplitudes, psi2.amplitudes]) / np.sqrt(2)
        want = np.ones(1, dtype=complex)
        for m in (1, 2, 3):
            want = np.kron(want, single)
            assert psgi_to_statehsp(inst, m=m)[0].amplitudes.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("m", [0, -1, 30, 10**9])
    def test_copies_refused_before_building(self, m):
        # no copies is no state; 30 copies of a 2-qubit |Phi> would take 16 EiB,
        # and the check itself builds no 2^m-sized number
        rng = np.random.default_rng(20)
        psi = random_state(1, rng)
        inst = PsgiInstance(psi, psi, cyclic_group(2, "shift"), THRESHOLDS)
        tracemalloc.start()
        try:
            with pytest.raises(PsgiError, match="copy|copies"):
                psgi_to_statehsp(inst, m=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bounds_shape(self):
        rng = np.random.default_rng(19)
        psi = random_state(1, rng)
        inst = PsgiInstance(psi, psi, cyclic_group(2, "shift"), THRESHOLDS)
        _, _, bounds = psgi_to_statehsp(inst, m=3)
        assert bounds["soundness"] == pytest.approx(THRESHOLDS.alpha**3)
        assert bounds["completeness"] >= bounds["completeness_lower"] - 1e-12


class TestInstanceGeneration:
    def test_yes_instances_exact(self):
        rng = np.random.default_rng(20)
        for n in (1, 2):
            inst = random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
            v = psgi_oracle(inst)
            assert v.decision == "YES"
            assert abs(v.achieved_overlap - 1) < 1e-10

    @pytest.mark.parametrize("make", [lambda: clifford_group(2), lambda: z2k_group(2),
                                      lambda: cyclic_group(4, "shift")],
                             ids=["clifford2", "z2k2", "cyclic4"])
    def test_yes_instances_planted_in_any_group(self, make):
        rep = make()
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "yes", np.random.default_rng(24),
                                          rep=rep)
        v = psgi_oracle(inst)
        assert v.decision == "YES"
        assert abs(v.achieved_overlap - 1) < 1e-10

    def test_no_instances_verified(self):
        rng = np.random.default_rng(21)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "no", rng)
        assert psgi_oracle(inst).decision == "NO"

    def test_no_instance_pinned(self):
        # amplitudes recorded when the |0> base went through CliffordElement.apply
        inst = random_pauli_psgi_instance(2, DecisionThresholds(0.9, 1.0), "no",
                                          np.random.default_rng(5))
        want1 = [-0.053266216033562186 + 0.004412432569892447j,
                 -0.009989197687819364 - 0.022227682722908558j,
                 0.7279129708790413 - 0.031564160537028076j,
                 0.04569221806438608 - 0.6808876695333841j]
        want2 = [0.06773216050239468 + 0.06629182398837075j,
                 -0.7211180324285923 + 0.008405804111337845j,
                 0.6813202153427025 - 0.07176563010317498j,
                 -0.039702744029564765 - 0.0034676919299717777j]
        assert np.allclose(inst.psi1.amplitudes, want1, rtol=0, atol=1e-15)
        assert np.allclose(inst.psi2.amplitudes, want2, rtol=0, atol=1e-15)

    def test_no_at_one_qubit_infeasible_at_low_alpha(self):
        # at n=1 every state pair has some Pauli overlap >= 1/sqrt(2)
        rng = np.random.default_rng(22)
        with pytest.raises(PsgiError, match="in 200 tries"):
            random_pauli_psgi_instance(1, THRESHOLDS, "no", rng)

    def test_bad_kind(self):
        rng = np.random.default_rng(23)
        with pytest.raises(PsgiError):
            random_pauli_psgi_instance(1, THRESHOLDS, "maybe", rng)
