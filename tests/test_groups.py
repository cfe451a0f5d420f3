import numpy as np
import pytest

from stateiso.groups import (
    DecisionThresholds,
    GroupError,
    check_twirl_fidelity_bound,
    clifford_group,
    cyclic_group,
    dihedralize,
    explicit_group,
    group_from_spec,
    k_twirl,
    max_trace_ratio,
    pauli_group,
    twirl,
    two_copy_pauli,
    z2k_group,
)
from stateiso.linalg import fidelity_matrices, random_density

RNG = np.random.default_rng(99)


class TestThresholds:
    def test_valid(self):
        t = DecisionThresholds(0.6, 0.99)
        assert t.alpha == 0.6 and t.beta == 0.99

    def test_rejects_crossed(self):
        with pytest.raises(GroupError):
            DecisionThresholds(0.9, 0.6)

    def test_rejects_out_of_range(self):
        with pytest.raises(GroupError):
            DecisionThresholds(-0.1, 0.5)


class TestGroupConstructions:
    def test_pauli_group_order(self):
        for n in (1, 2):
            rep = pauli_group(n)
            assert rep.order == 4 ** (n + 1)
            assert rep.check_homomorphism(np.random.default_rng(1), samples=60) < 1e-8
            assert not rep.is_abelian()

    @pytest.mark.parametrize("n", [0, -1])
    def test_pauli_group_needs_a_qubit(self, n):
        with pytest.raises(GroupError):
            pauli_group(n)

    def test_two_copy_pauli(self):
        rep = two_copy_pauli(1)
        assert rep.order == 2 ** 3
        assert rep.is_abelian()
        assert rep.check_homomorphism(np.random.default_rng(1)) < 1e-8
        for g in rep.elements:          # every element is an involution
            assert rep.multiply(g, g) == rep.identity

    def test_cyclic_groups(self):
        for kind in ("phase", "shift"):
            rep = cyclic_group(6, kind)
            assert rep.order == 6
            assert rep.is_abelian()
            assert rep.check_homomorphism(np.random.default_rng(1)) < 1e-8

    def test_z2k(self):
        rep = z2k_group(3)
        assert rep.order == 8
        assert rep.is_abelian()

    def test_clifford_group_small(self):
        rep = clifford_group(1)
        assert rep.order == 24
        assert rep.check_homomorphism(np.random.default_rng(1), samples=40) < 1e-8

    def test_explicit_group(self):
        mats = [np.eye(2), np.diag([1, -1])]
        rep = explicit_group(["e", "z"], mats)
        assert rep.multiply("z", "z") == "e"
        assert rep.inverse("z") == "z"

    def test_group_from_spec_roundtrip(self):
        rep = group_from_spec({"type": "pauli", "n": 1})
        assert rep.order == 16
        rep = group_from_spec({"type": "cyclic", "N": 5, "rep": "shift"})
        assert rep.order == 5
        with pytest.raises(GroupError):
            group_from_spec({"type": "nosuch"})


class TestTwirl:
    def test_pauli_twirl_depolarizes(self):
        # the Pauli group is a unitary 1-design: E(rho) = I/d
        for n in (1, 2):
            rep = pauli_group(n)
            rho = random_density(rep.dim, RNG)
            out = twirl(rep, rho)
            assert np.allclose(out.matrix, np.eye(rep.dim) / rep.dim, atol=1e-10)

    def test_twirl_is_idempotent(self):
        rep = cyclic_group(4, "shift")
        rho = random_density(4, RNG)
        once = twirl(rep, rho)
        assert np.allclose(twirl(rep, once).matrix, once.matrix, atol=1e-10)

    def test_k_twirl_reduces_to_twirl(self):
        rep = z2k_group(2)
        rho = random_density(4, RNG)
        assert np.allclose(k_twirl(rep, rho, 1).matrix, twirl(rep, rho).matrix)

    def test_k_twirl_guard(self):
        rep = pauli_group(2)
        with pytest.raises(GroupError):
            k_twirl(rep, random_density(4, RNG), 20)


def _k_twirl_reference(rep, rho, k):
    """The defining sum, one np.kron power per group element."""
    acc = 0
    for g in rep.elements:
        u = rep.unitary(g)
        term = u @ rho.matrix @ u.conj().T
        power = term
        for _ in range(k - 1):
            power = np.kron(power, term)
        acc = acc + power
    return acc / rep.order


class TestKTwirlReference:
    @pytest.mark.parametrize("group, n, ks", [
        (pauli_group, 1, (1, 2, 3, 4)),
        (pauli_group, 2, (1, 2, 3, 4)),
        (clifford_group, 1, (1, 2)),
        (clifford_group, 2, (1, 2)),    # 11,520 elements: several blocks
    ], ids=["pauli1", "pauli2", "clifford1", "clifford2"])
    def test_matches_kron_loop(self, group, n, ks):
        rep = group(n)
        rho = random_density(rep.dim, np.random.default_rng(3))
        for k in ks:
            got = k_twirl(rep, rho, k).matrix
            assert np.abs(got - _k_twirl_reference(rep, rho, k)).max() < 1e-14, k

    def test_dimension_mismatch(self):
        with pytest.raises(GroupError):
            k_twirl(pauli_group(2), random_density(2, RNG), 2)


class TestTwirlBound:
    def test_epsilon_matches_per_element_loop(self):
        rng = np.random.default_rng(17)
        for rep, count in ((pauli_group(1), 20), (pauli_group(2), 20),
                           (cyclic_group(8, "shift"), 20), (clifford_group(2), 2)):
            for _ in range(count):
                rho = random_density(rep.dim, rng)
                sigma = random_density(rep.dim, rng)
                want = 0.0
                for w in rep.elements:
                    u = rep.unitary(w)
                    want = max(want, fidelity_matrices(rho.matrix,
                                                       u @ sigma.matrix @ u.conj().T))
                assert check_twirl_fidelity_bound(rep, rho, sigma).epsilon == want

    def test_slack_nonnegative_randomized(self):
        reps = [pauli_group(1), cyclic_group(8, "shift"), z2k_group(2)]
        for _ in range(60):
            rep = reps[int(RNG.integers(len(reps)))]
            report = check_twirl_fidelity_bound(
                rep, random_density(rep.dim, RNG), random_density(rep.dim, RNG))
            assert report.satisfied
            assert report.slack >= -1e-7
            assert abs(report.bound - rep.order * report.epsilon) < 1e-12

    def test_equal_states_saturate_epsilon(self):
        rep = z2k_group(1)
        rho = random_density(2, RNG)
        report = check_twirl_fidelity_bound(rep, rho, rho)
        assert report.epsilon >= 1 - 1e-10


class TestMaxTraceRatio:
    def test_pauli_hides_perfectly(self):
        assert max_trace_ratio(pauli_group(1)) < 1e-10
        assert max_trace_ratio(pauli_group(2)) < 1e-10

    def test_shift_group_hides(self):
        assert max_trace_ratio(cyclic_group(5, "shift")) < 1e-10


class TestDihedralize:
    def test_structure(self):
        base = cyclic_group(4, "shift")
        rep = dihedralize(base)
        assert rep.order == 8
        assert rep.dim == 2 * base.dim
        assert rep.check_homomorphism(np.random.default_rng(1), samples=64) < 1e-8

    def test_reflection_swaps_blocks(self):
        base = cyclic_group(3, "shift")
        rep = dihedralize(base)
        u = rep.unitary((base.identity, 1))
        d = base.dim
        assert np.allclose(u[:d, d:], np.eye(d))
        assert np.allclose(u[d:, :d], np.eye(d))

    def test_even_elements_block_diagonal(self):
        base = cyclic_group(3, "shift")
        rep = dihedralize(base)
        g = base.elements[1]
        u = rep.unitary((g, 0))
        d = base.dim
        assert np.allclose(u[:d, d:], 0)
        assert np.allclose(u[:d, :d], base.unitary(g))
        # lower block carries the inverse element
        assert np.allclose(u[d:, d:], base.unitary(base.inverse(g)))
