import numpy as np
import pytest

from stateiso.groups import DecisionThresholds, cyclic_group, pauli_group
from stateiso.linalg import StateVector
from stateiso.paulis import PauliOp
from stateiso.psgi import (
    PsgiError,
    PsgiInstance,
    _build_psi,
    character_distribution,
    f2_solve,
    fourier_sample,
    hadamard_estimate,
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

    def test_order_cap(self):
        rng = np.random.default_rng(5)
        psi = random_state(1, rng)
        inst = PsgiInstance(psi, psi, pauli_group(1), THRESHOLDS)
        with pytest.raises(PsgiError):
            psgi_oracle(inst, max_order=3)


class TestF2Solve:
    def test_kernel_membership_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            width = int(rng.integers(3, 9))
            rows = rng.integers(0, 2, size=(int(rng.integers(1, 7)), width))
            basis = f2_solve(list(rows))
            # every basis vector annihilates every row
            for v in basis:
                assert not ((rows @ v) % 2).any()
            # dimension matches rank-nullity over F2
            rank = width - len(basis)
            assert rank == _f2_rank(rows)

    def test_zero_rows_give_full_space(self):
        basis = f2_solve([np.zeros(4, dtype=np.uint8)])
        assert len(basis) == 4

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(PsgiError):
            f2_solve([[1, 0], [1, 0, 1]])


def _f2_rank(rows):
    a = np.array(rows, dtype=np.uint8) % 2
    rank = 0
    for col in range(a.shape[1]):
        piv = None
        for r in range(rank, a.shape[0]):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r, col]:
                a[r] ^= a[rank]
        rank += 1
    return rank


class TestFourierSampling:
    def test_distribution_normalized_and_nonnegative(self):
        rng = np.random.default_rng(7)
        for n in (1, 2):
            inst = random_pauli_psgi_instance(n, THRESHOLDS, "yes", rng)
            psi = _build_psi(inst.psi1, inst.psi2)
            probs = character_distribution(psi, n, 2)
            assert len(probs) == 1 << (2 * n + 2)
            assert abs(probs.sum() - 1) < 1e-9
            assert (probs >= 0).all()

    def test_sampled_characters_annihilate_hidden_label(self):
        # for a YES instance the support of the distribution is the dual
        # of the hidden subgroup, so chi . u = 0 for the witness label
        rng = np.random.default_rng(8)
        n = 1
        psi1 = random_state(n, rng)
        p = PauliOp(n, 0, 1, 0)  # +X
        psi2 = StateVector(n, p.apply(psi1.amplitudes))
        inst = PsgiInstance(psi1, psi2, pauli_group(n), THRESHOLDS)
        psi = _build_psi(inst.psi1, inst.psi2)
        probs = character_distribution(psi, n, 2)
        # hidden label: x=1, z=0, s=0, a=1 -> bit positions 0 and 2n+1
        u_bits = np.zeros(2 * n + 2, dtype=np.uint8)
        u_bits[0] = 1
        u_bits[2 * n + 1] = 1
        for chi in np.flatnonzero(probs > 1e-12):
            bits = np.array([(chi >> j) & 1 for j in range(2 * n + 2)])
            assert (bits @ u_bits) % 2 == 0

    def test_fourier_sample_respects_support(self):
        probs = np.array([0.0, 0.5, 0.5, 0.0])
        rng = np.random.default_rng(9)
        for _ in range(20):
            chi = fourier_sample(probs, rng)
            idx = sum(b << j for j, b in enumerate(chi))
            assert idx in (1, 2)
            assert probs[idx] == 0.5


class TestHadamardEstimate:
    def test_exact_value(self):
        rng = np.random.default_rng(10)
        psi = random_state(2, rng).amplitudes
        p = PauliOp(2, 0, 0b10, 0b01)
        want = np.vdot(psi, p.apply(psi)).real
        assert abs(hadamard_estimate(psi, p.apply) - want) < 1e-12

    def test_rejects_non_involution(self):
        psi = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        s = np.diag([1, 1j])
        with pytest.raises(PsgiError):
            hadamard_estimate(psi, lambda v: s @ v)

    def test_shot_mode_concentrates(self):
        rng = np.random.default_rng(11)
        psi = random_state(1, rng).amplitudes
        p = PauliOp(1, 0, 1, 0)
        want = np.vdot(psi, p.apply(psi)).real
        est = hadamard_estimate(psi, p.apply, shots=200_000, rng=rng)
        assert abs(est - want) < 0.02


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

    def test_qubit_guard(self):
        rng = np.random.default_rng(16)
        inst = random_pauli_psgi_instance(2, THRESHOLDS, "yes", rng)
        with pytest.raises(PsgiError):
            pauli_psgi_quantum(inst, m=8)


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
        with pytest.raises(PsgiError):
            random_pauli_psgi_instance(1, THRESHOLDS, "no", rng, max_tries=20)

    def test_bad_kind(self):
        rng = np.random.default_rng(23)
        with pytest.raises(PsgiError):
            random_pauli_psgi_instance(1, THRESHOLDS, "maybe", rng)
