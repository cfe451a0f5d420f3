import math
import tracemalloc

import numpy as np
import pytest

from stateiso.groups import (
    DecisionThresholds,
    GroupError,
    _label_bytes,
    check_twirl_fidelity_bound,
    clifford_group,
    cyclic_group,
    dihedralize,
    explicit_group,
    group_from_spec,
    k_twirl,
    pauli_group,
    twirl,
    two_copy_pauli,
    z2k_group,
)
from stateiso.linalg import StateVector, fidelity_matrices, random_density
from stateiso.paulis import (batch_unitaries, clifford_batches, clifford_elements,
                             qubit_permutation_clifford)

RNG = np.random.default_rng(99)


def _homomorphism_error(rep, samples=100, phase_free=False):
    """Max deviation of R(g)R(h) from R(gh) over pairs drawn with seed 1,
    and of R(identity) from I; with ``phase_free`` each product is
    compared after aligning its global phase."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(samples):
        g = rep.elements[int(rng.integers(rep.order))]
        h = rep.elements[int(rng.integers(rep.order))]
        lhs = rep.unitary(g) @ rep.unitary(h)
        rhs = rep.unitary(rep.multiply(g, h))
        if phase_free:
            tr = np.trace(rhs.conj().T @ lhs)
            if abs(tr) > 1e-12:
                lhs = lhs * (abs(tr) / tr)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return max(worst, float(np.max(np.abs(rep.unitary(rep.identity) - np.eye(rep.dim)))))


def _max_trace_ratio(rep):
    """mu = max over the elements that act nontrivially of |Tr R(g)| / dim,
    from the stack and the trivial mask."""
    ratio = np.abs(np.trace(rep.unitaries, axis1=1, axis2=2) / rep.dim)
    return float(ratio[~rep.trivial_mask()].max(initial=0.0))


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
            assert _homomorphism_error(rep, samples=60) < 1e-8
            assert not rep.is_abelian()

    @pytest.mark.parametrize("n", [0, -1])
    def test_pauli_group_needs_a_qubit(self, n):
        with pytest.raises(GroupError):
            pauli_group(n)

    def test_two_copy_pauli(self):
        rep = two_copy_pauli(1)
        assert rep.order == 2 ** 3
        assert rep.is_abelian()
        assert _homomorphism_error(rep) < 1e-8
        for g in rep.elements:          # every element is an involution
            assert rep.multiply(g, g) == rep.identity

    @pytest.mark.parametrize("n", [1, 2])
    def test_two_copy_pauli_stack_is_kron(self, n):
        # each element is one 2n-qubit Pauli; it equals +-B x B, with
        # B = X^x Z^z the kron of its single-qubit factors, qubit 0 first
        x1, z1 = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        rep = two_copy_pauli(n)
        for (x, z, s), u in zip(rep.elements, rep.unitaries):
            b = np.eye(1)
            for q in range(n):
                b = np.kron(b, np.linalg.matrix_power(x1, x >> q & 1)
                            @ np.linalg.matrix_power(z1, z >> q & 1))
            assert np.array_equal(u, (-1) ** s * np.kron(b, b)), (x, z, s)

    def test_cyclic_groups(self):
        for kind in ("phase", "shift"):
            rep = cyclic_group(6, kind)
            assert rep.order == 6
            assert rep.is_abelian()
            assert _homomorphism_error(rep) < 1e-8

    def test_z2k(self):
        rep = z2k_group(3)
        assert rep.order == 8
        assert rep.is_abelian()

    def test_is_abelian_samples_large_groups(self):
        # over 512 elements the pairs are sampled
        assert z2k_group(10).order == pauli_group(4).order == 1024
        assert z2k_group(10).is_abelian()
        assert not pauli_group(4).is_abelian()

    def test_clifford_group_small(self):
        rep = clifford_group(1)
        assert rep.order == 24
        assert _homomorphism_error(rep, samples=40, phase_free=True) < 1e-8

    def test_explicit_group(self):
        mats = [np.eye(2), np.diag([1, -1])]
        rep = explicit_group(["e", "z"], mats)
        assert rep.multiply("z", "z") == "e"
        assert rep.inverse("z") == "z"

    @pytest.mark.parametrize("labels, identity, match", [
        (["a", "a"], None, "distinct"),
        (["e", "x"], "x", "names no identity matrix"),
        (["e", "x"], "q", "names no identity matrix"),
    ], ids=["repeated-label", "identity-not-I", "identity-not-a-label"])
    def test_explicit_group_refusals(self, labels, identity, match):
        # with X at a repeated label, or declared the identity, the oracle
        # decided |1> ~ |0> by the "identity" witness X
        with pytest.raises(GroupError, match=match):
            explicit_group(labels, [np.eye(2), np.array([[0, 1], [1, 0]])], identity)
        rep = explicit_group(["e", "x"], [np.eye(2), np.array([[0, 1], [1, 0]])], "e")
        assert rep.identity == "e" and rep.multiply("x", "x") == "e"

    def test_group_from_spec_roundtrip(self):
        rep = group_from_spec({"type": "pauli", "n": 1})
        assert rep.order == 16
        rep = group_from_spec({"type": "cyclic", "N": 5, "rep": "shift"})
        assert rep.order == 5
        with pytest.raises(GroupError):
            group_from_spec({"type": "nosuch"})

    @pytest.mark.parametrize("spec", [
        {"type": "pauli", "n": None}, {"type": "pauli", "n": [1]},
        {"type": "pauli", "n": True}, {"type": "pauli", "n": 1.0},
        {"type": "cyclic", "N": 0}, {"type": "z2k", "k": -2},
        {"type": "explicit", "elements": [["e"]], "matrices": [[[[1, 0]]]]},
        {"type": "explicit", "elements": ["e"], "matrices": 5},
        {"type": "explicit", "elements": ["e"], "matrices": [[[[1, 0]]]], "identity": []},
        {"type": "explicit", "elements": ["e", "z"], "matrices": [[[[1, 0]]]]},
        {"type": "explicit", "elements": [], "matrices": []},
        {"type": "explicit", "elements": ["e"], "matrices": [[[[1, 0], [0, 0]]]]},
        {"type": "explicit", "elements": ["e"], "matrices": [[[[float("nan"), 0]]]]},
    ])
    def test_malformed_spec_raises_group_error(self, spec):
        with pytest.raises(GroupError):
            group_from_spec(spec)

    @pytest.mark.parametrize("make", [
        lambda: pauli_group(10), lambda: pauli_group(12), lambda: two_copy_pauli(14),
        lambda: z2k_group(40), lambda: cyclic_group(1 << 40), lambda: pauli_group(10**18),
    ], ids=["pauli10", "pauli12", "two-copy14", "z2k40", "cyclic2^40", "pauli10^18"])
    def test_label_lists_over_budget_refused(self, make):
        tracemalloc.start()
        try:
            with pytest.raises(GroupError):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("make, bits, label", [
        (lambda: pauli_group(6), 14, (0, 0, 0)),
        (lambda: cyclic_group(300_000, "shift"), math.log2(300_000), 0),
    ], ids=["pauli6", "cyclic300000"])
    def test_label_estimate_covers_traced_bytes(self, make, bits, label):
        tracemalloc.start()
        try:
            rep = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.order * _label_bytes(bits, label) >= peak

    def test_two_copy_pauli_has_no_qubit_cap(self):
        assert two_copy_pauli(5).order == 2 ** 11


def _acts_trivially(rep, g):
    """The per-element check the stacked mask replaced."""
    u = rep.unitary(g)
    tr = np.trace(u) / rep.dim
    return bool(abs(tr) > 1 - 1e-10
                and np.max(np.abs(u - tr * np.eye(rep.dim))) < 1e-10)


STACK_GROUPS = [
    lambda: pauli_group(1), lambda: pauli_group(2), lambda: clifford_group(1),
    lambda: cyclic_group(5, "shift"), lambda: cyclic_group(6, "phase"),
    lambda: two_copy_pauli(1), lambda: z2k_group(2),
    lambda: dihedralize(cyclic_group(4, "shift")),
    lambda: explicit_group(["e", "m"], [np.eye(2), -np.eye(2)]),
]
STACK_IDS = ["pauli1", "pauli2", "clifford1", "cyclic5-shift", "cyclic6-phase",
             "two-copy1", "z2k2", "dihedral-cyclic4", "explicit-sign"]


class TestUnitaryStack:
    @pytest.mark.parametrize("make", STACK_GROUPS, ids=STACK_IDS)
    def test_rows_equal_unitary_bitwise(self, make):
        rep = make()
        stack = rep.unitaries
        assert stack.shape == (rep.order, rep.dim, rep.dim)
        assert not stack.flags.writeable
        for i, g in enumerate(rep.elements):
            assert np.array_equal(stack[i], rep.unitary(g))

    @pytest.mark.parametrize("make", STACK_GROUPS, ids=STACK_IDS)
    def test_trivial_mask_matches_element_loop(self, make):
        rep = make()
        want = [g == rep.identity or _acts_trivially(rep, g) for g in rep.elements]
        assert rep.trivial_mask().tolist() == want

    @pytest.mark.parametrize("make", STACK_GROUPS, ids=STACK_IDS)
    def test_max_trace_ratio_matches_element_loop(self, make):
        rep = make()
        want = max((abs(np.trace(rep.unitary(g)) / rep.dim) for g in rep.elements
                    if g != rep.identity and not _acts_trivially(rep, g)), default=0.0)
        assert _max_trace_ratio(rep) == pytest.approx(want, rel=0, abs=1e-15)


_X1, _Z1 = np.array([[0, 1], [1, 0]]), np.diag([1, -1])


def _kron_pauli(n, x, z):
    """X^x Z^z as a kron chain of one-qubit factors, qubit 0 first."""
    out = np.eye(1)
    for q in range(n):
        out = np.kron(out, np.linalg.matrix_power(_X1, x >> q & 1)
                      @ np.linalg.matrix_power(_Z1, z >> q & 1))
    return out.astype(complex)


def _dihedral(base, base_ref):
    """The dihedral group of ``base``, and the block construction of each of
    its elements from the base's matrices."""
    def ref(rep, label):
        g, a = label
        d = base.dim
        u = np.zeros((2 * d, 2 * d), dtype=complex)
        u[:d, :d] = base_ref(base, g)
        u[d:, d:] = base_ref(base, base.inverse(g))
        return np.roll(u, d, axis=1) if a else u
    return lambda: dihedralize(base), ref


def _cyclic_reference(rep, k):
    n = rep.dim
    if rep.name.endswith("phase)"):
        return np.diag(np.exp(2j * np.pi / n) ** (k * np.arange(n)))
    return np.roll(np.eye(n, dtype=complex), k, axis=0)


_CLIFFORD1 = batch_unitaries(next(clifford_batches(1, 24)))
_SIGN = [np.eye(2), -np.eye(2)]

# (make, reference): each reference builds R(g) from the label alone, the
# way each group built its matrices before it acted through ``act``
REFERENCE_GROUPS = {
    "pauli1": (lambda: pauli_group(1), lambda r, g: 1j ** g[0] * _kron_pauli(1, *g[1:])),
    "pauli2": (lambda: pauli_group(2), lambda r, g: 1j ** g[0] * _kron_pauli(2, *g[1:])),
    "pauli3": (lambda: pauli_group(3), lambda r, g: 1j ** g[0] * _kron_pauli(3, *g[1:])),
    "clifford1": (lambda: clifford_group(1), lambda r, g: _CLIFFORD1[g]),
    "cyclic5-shift": (lambda: cyclic_group(5, "shift"), _cyclic_reference),
    "cyclic6-phase": (lambda: cyclic_group(6, "phase"), _cyclic_reference),
    "two-copy1": (lambda: two_copy_pauli(1),
                  lambda r, g: (-1) ** g[2] * np.kron(*[_kron_pauli(1, *g[:2])] * 2)),
    "two-copy2": (lambda: two_copy_pauli(2),
                  lambda r, g: (-1) ** g[2] * np.kron(*[_kron_pauli(2, *g[:2])] * 2)),
    "z2k2": (lambda: z2k_group(2), lambda r, g: _kron_pauli(2, g, 0)),
    "dihedral-cyclic4": _dihedral(cyclic_group(4, "shift"), _cyclic_reference),
    "dihedral-z2k2": _dihedral(z2k_group(2), lambda r, g: _kron_pauli(2, g, 0)),
    "explicit-sign": (lambda: explicit_group(["e", "m"], _SIGN),
                      lambda r, g: _SIGN[r.elements.index(g)].astype(complex)),
}


class TestActionMatchesReference:
    """Every group acts through ``act``; its matrices and orbit rows equal
    the matrices each group used to build one label at a time.  Equality is
    of values: a matrix product with the stored Clifford stack can flip the
    sign of an exact zero."""

    @pytest.mark.parametrize("name", REFERENCE_GROUPS)
    def test_unitary_and_stack_equal_reference(self, name):
        make, ref = REFERENCE_GROUPS[name]
        rep = make()
        stack = rep.unitaries
        for i, g in enumerate(rep.elements):
            want = ref(rep, g)
            assert np.array_equal(rep.unitary(g), want), g
            assert np.array_equal(stack[i], want), g

    @pytest.mark.parametrize("name", REFERENCE_GROUPS)
    @pytest.mark.parametrize("cols", [None, 3], ids=["vector", "three-columns"])
    def test_orbit_rows_equal_reference_products(self, name, cols):
        make, ref = REFERENCE_GROUPS[name]
        rep = make()
        rng = np.random.default_rng(8)
        shape = (rep.dim,) if cols is None else (rep.dim, cols)
        amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        orbit = rep.orbit(amps)
        assert orbit.shape == (rep.order,) + shape
        want = np.stack([ref(rep, g) @ amps for g in rep.elements])
        if name == "cyclic6-phase":
            # a product with the diagonal matrix rounds through BLAS, the
            # phases multiply entry by entry: equal to the last bit or so
            assert np.abs(orbit - want).max() <= 4e-16
        else:
            assert np.array_equal(orbit.view(np.float64), want.view(np.float64))

    @pytest.mark.parametrize("name", REFERENCE_GROUPS)
    def test_act_at_any_positions(self, name):
        rep = REFERENCE_GROUPS[name][0]()
        at = np.random.default_rng(2).integers(rep.order, size=7)
        amps = np.random.default_rng(3).normal(size=rep.dim) + 0j
        assert np.array_equal(rep.act(at, amps), rep.orbit(amps)[at])


class TestOrbitBudget:
    def test_refused_before_allocating(self):
        # pauli(7)'s orbit of one state is 128 MiB, with a peak model of 448
        rep, six = pauli_group(7), pauli_group(6)
        psi = np.ones(rep.dim, dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(GroupError, match="orbit"):
                rep.orbit(psi)
            with pytest.raises(GroupError, match="orbit"):
                six.unitaries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("make, cols", [
        (lambda: pauli_group(6), None), (lambda: z2k_group(10), None),
        (lambda: pauli_group(4), "eye"), (lambda: two_copy_pauli(4), 4),
    ], ids=["pauli6-vector", "z2k10-vector", "pauli4-identity", "two-copy4-columns"])
    def test_estimate_covers_traced_bytes(self, make, cols):
        # the budget's model: 16 bytes per output entry and 40 per basis
        # state, per element
        rep = make()
        if cols == "eye":
            amps = np.eye(rep.dim, dtype=complex)
        else:
            shape = (rep.dim,) if cols is None else (rep.dim, cols)
            amps = np.ones(shape, dtype=complex)
        tracemalloc.start()
        try:
            rep.orbit(amps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.order * (16 * amps.size + 40 * rep.dim) >= peak


class TestCliffordGroupCache:
    def test_cached_and_element_zero_is_identity(self):
        for n in (1, 2):
            assert clifford_group(n) is clifford_group(n)
            rep = clifford_group(n)
            assert rep.identity == 0
            assert np.array_equal(rep.unitaries[0], np.eye(1 << n))
            assert rep.multiply(0, 5) == rep.multiply(5, 0) == 5
        three = clifford_elements(3, np.array([0]))
        assert three.row(0) == qubit_permutation_clifford(range(3), 3)

    def test_inverse_through_the_index(self):
        rep = clifford_group(2)
        for g in (1, 77, 11519):
            assert rep.multiply(g, rep.inverse(g)) == rep.identity


class TestExplicitGroupIsUnitary:
    @pytest.mark.parametrize("mats", [
        [np.eye(2), 2 * np.array([[0, 1], [1, 0]])],
        [np.eye(2), np.array([[1, 1], [0, 1]])],
        [np.eye(2)[:, :1]],
        [np.ones(2)],
    ], ids=["scaled-x", "shear", "not-square", "vectors"])
    def test_refused(self, mats):
        with pytest.raises(GroupError, match="unitary"):
            explicit_group(list(range(len(mats))), mats)

    def test_within_tolerance_accepted(self):
        eps = 1e-10
        rep = explicit_group(["e", "z"], [np.eye(2), np.diag([1, -1 + eps])])
        assert rep.order == 2


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

    def test_k_twirl_over_budget_refused_before_allocating(self):
        # d^k = 4^6 = 4096: a 256 MiB accumulator with a ~1 GiB peak
        rep = pauli_group(2)
        rho = random_density(4, RNG)
        rep.unitaries
        tracemalloc.start()
        try:
            with pytest.raises(GroupError):
                k_twirl(rep, rho, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    @pytest.mark.parametrize("n", [1, 2])
    def test_pauli_twirls_are_density_matrices(self, n):
        # k_twirl's DensityMatrix skips the constructor's checks, so check them here,
        # on a mixed state and on a pure one, whose twirls have zero eigenvalues
        rep = pauli_group(n)
        rng = np.random.default_rng(5)
        v = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
        pure = StateVector(n, v / np.linalg.norm(v)).density()
        for rho in (random_density(rep.dim, rng), pure):
            for k in range(1, 5):
                m = k_twirl(rep, rho, k).matrix
                assert m.shape == (rep.dim**k, rep.dim**k), k
                assert np.abs(m - m.conj().T).max() <= 1e-8, k
                assert abs(np.trace(m).real - 1) <= 1e-6, k
                assert np.linalg.eigvalsh(m).min() >= -1e-7, k


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
        assert _max_trace_ratio(pauli_group(1)) < 1e-10
        assert _max_trace_ratio(pauli_group(2)) < 1e-10

    def test_shift_group_hides(self):
        assert _max_trace_ratio(cyclic_group(5, "shift")) < 1e-10


class TestDihedralize:
    def test_structure(self):
        base = cyclic_group(4, "shift")
        rep = dihedralize(base)
        assert rep.order == 8
        assert rep.dim == 2 * base.dim
        assert _homomorphism_error(rep, samples=64) < 1e-8

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
