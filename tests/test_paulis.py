import hashlib
import tracemalloc

import numpy as np
import pytest

from stateiso.linalg import StateVector
from stateiso.graphs import Graph
from stateiso.paulis import (
    COS8,
    SIN8,
    CliffordBatch,
    CliffordElement,
    PauliError,
    PauliOp,
    batch_element,
    batch_of,
    batch_overlaps,
    batch_r_overlap_sq,
    batch_unitaries,
    clifford_batches,
    clifford_group_order,
    enumerate_cliffords,
    graph_stabilizer,
    graph_state,
    pauli_expectation,
    qubit_permutation_clifford,
    r_overlap_sq,
    r_state,
    r_state_pauli_expectation,
    r_state_product,
    random_clifford,
    random_clifford_batch,
    symplectic_group_order,
)

RNG = np.random.default_rng(7)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1, -1]).astype(complex)
I2 = np.eye(2, dtype=complex)
DENSE = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense_pauli(p: PauliOp) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    text = repr(p)
    phase = {"+": 1, "+i": 1j, "-": -1, "-i": -1j}[text[:-p.n]]
    for ch in text[-p.n:]:
        out = np.kron(out, DENSE[ch])
    return phase * out


class TestPauliOp:
    def test_from_string_roundtrip(self):
        for s in ("+XZ", "-iYI", "+IIZ", "-XYZ"):
            assert repr(PauliOp.from_string(s)) == s

    def test_multiplication_matches_dense(self):
        for _ in range(200):
            n = int(RNG.integers(1, 4))
            a = _random_pauli(n)
            b = _random_pauli(n)
            assert np.allclose(dense_pauli(a * b), dense_pauli(a) @ dense_pauli(b))

    def test_xz_equals_minus_iy(self):
        x = PauliOp.single(1, 0, "X")
        z = PauliOp.single(1, 0, "Z")
        assert np.allclose(dense_pauli(x * z), -1j * Y)

    def test_commutation_matches_dense(self):
        for _ in range(100):
            n = int(RNG.integers(1, 4))
            a, b = _random_pauli(n), _random_pauli(n)
            da, db = dense_pauli(a), dense_pauli(b)
            assert a.commutes(b) == np.allclose(da @ db, db @ da)

    def test_apply_matches_matrix(self):
        for _ in range(50):
            n = int(RNG.integers(1, 4))
            p = _random_pauli(n)
            v = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
            assert np.allclose(p.apply(v), dense_pauli(p) @ v)

    def test_hermitian_detection(self):
        for _ in range(100):
            p = _random_pauli(2)
            m = dense_pauli(p)
            assert p.is_hermitian() == np.allclose(m, m.conj().T)

    def test_expectation(self):
        plus = StateVector(1, np.full(2, 1 / np.sqrt(2)))
        assert abs(pauli_expectation(plus, PauliOp.single(1, 0, "X")) - 1) < 1e-12
        assert abs(pauli_expectation(plus, PauliOp.single(1, 0, "Z"))) < 1e-12


def _random_pauli(n):
    return PauliOp(n, int(RNG.integers(4)), int(RNG.integers(1 << n)),
                   int(RNG.integers(1 << n)))


class TestCliffordElement:
    def test_group_orders(self):
        assert symplectic_group_order(1) == 6
        assert symplectic_group_order(2) == 720
        assert clifford_group_order(1) == 24
        assert clifford_group_order(2) == 11520

    def test_enumeration_distinct_and_complete(self):
        seen = {c.key() for c in enumerate_cliffords(1)}
        assert len(seen) == 24
        count = sum(1 for _ in enumerate_cliffords(2))
        assert count == 11520

    def test_conjugation_matches_unitary(self):
        # the dense Paulis here are built by Kronecker products, independent
        # of the tableau action kernel
        rng = np.random.default_rng(12)
        for n in range(1, 6):
            for _ in range(6 if n < 5 else 2):
                c = random_clifford(n, rng)
                u = c.to_unitary().matrix
                for j in range(n):
                    for kind, img in (("X", c.images[j]), ("Z", c.images[n + j])):
                        gen = dense_pauli(PauliOp.single(n, j, kind))
                        assert np.allclose(u @ gen @ u.conj().T, dense_pauli(img),
                                           atol=1e-10)
                lead = u[np.flatnonzero(np.abs(u[:, 0]) > 1e-12)[0], 0]
                assert abs(lead.imag) < 1e-12 and lead.real > 0
        for _ in range(30):
            n = int(RNG.integers(1, 4))
            c = random_clifford(n, RNG)
            u = c.to_unitary().matrix
            p = _random_pauli(n)
            if not p.is_hermitian():
                p = p * p  # squares are Hermitian (+-identity); use X instead
                p = PauliOp.single(n, 0, "X")
            lhs = dense_pauli(c.conjugate(p))
            assert np.allclose(lhs, u @ dense_pauli(p) @ u.conj().T, atol=1e-10)
        # every element at n = 1 (24) and n = 2 (11,520), through batch_unitaries
        for n in (1, 2):
            d = 1 << n
            strings = {(x, z): dense_pauli(PauliOp(n, 0, x, z))
                       for x in range(d) for z in range(d)}
            for batch in clifford_batches(n, 2000):
                us = batch_unitaries(batch)
                for j in range(2 * n):
                    gen = dense_pauli(PauliOp.single(n, j % n, "XZ"[j // n]))
                    want = np.stack([(1, 1j, -1, -1j)[p] * strings[x, z] for p, x, z in
                                     zip(batch.ph[:, j], batch.x[:, j], batch.z[:, j])])
                    assert np.allclose(us @ gen @ us.conj().transpose(0, 2, 1), want,
                                       rtol=0, atol=1e-12)
                first = (np.abs(us[:, :, 0]) > 1e-12).argmax(axis=1)
                lead = us[np.arange(len(us)), first, 0]
                assert (lead.imag == 0).all() and (lead.real > 0).all()

    def test_compose_matches_unitary_product(self):
        for _ in range(20):
            n = int(RNG.integers(1, 3))
            a, b = random_clifford(n, RNG), random_clifford(n, RNG)
            ua, ub = a.to_unitary().matrix, b.to_unitary().matrix
            uc = a.compose(b).to_unitary().matrix
            # unitaries agree up to the canonical global phase
            prod = ua @ ub
            ratio = prod[np.abs(prod) > 1e-9][0] / uc[np.abs(prod) > 1e-9][0]
            assert np.allclose(prod, ratio * uc, atol=1e-10)
            assert abs(abs(ratio) - 1) < 1e-10

    def test_inverse(self):
        for _ in range(20):
            n = int(RNG.integers(1, 4))
            c = random_clifford(n, RNG)
            assert c.compose(c.inverse()) == CliffordElement.identity(n)

    def test_unitary_is_unitary(self):
        for n in (1, 2, 3):
            c = random_clifford(n, RNG)
            u = c.to_unitary().matrix
            assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)

    def test_seed_reproducibility(self):
        assert random_clifford(2, 5) == random_clifford(2, 5)

    def test_repr_is_deterministic(self):
        c = qubit_permutation_clifford((1, 0), 2)
        assert repr(c) == "CliffordElement(X -> +IX +XI; Z -> +IZ +ZI)"
        assert repr(random_clifford(3, 4)) == repr(random_clifford(3, 4))

    def test_apply_memory_at_twelve_qubits(self):
        n = 12
        c = random_clifford(n, 3)
        psi = r_state_product(n)
        tracemalloc.start()
        try:
            out = c.apply(psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-9

    def test_dense_unitary_size_guard(self):
        # 13 qubits would need a 1 GiB matrix; refused before any allocation
        c = CliffordElement.identity(13)
        tracemalloc.start()
        try:
            with pytest.raises(PauliError, match="budget"):
                c.to_unitary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStreamPins:
    """Literal keys recorded before the sampler and action were unified;
    they pin the Koenig-Smolin ordering and the random stream."""

    def test_random_clifford_keys(self):
        assert random_clifford(3, 0).key() == (
            (0, 5, 2), (1, 6, 4), (1, 7, 4), (2, 2, 0), (1, 7, 1), (3, 4, 5))
        assert random_clifford(3, 1).key() == (
            (0, 5, 0), (0, 6, 7), (0, 4, 2), (0, 6, 6), (1, 7, 7), (2, 6, 0))
        assert random_clifford(3, 2).key() == (
            (0, 3, 7), (0, 6, 7), (1, 4, 5), (1, 3, 6), (2, 0, 3), (0, 0, 7))

    def test_enumeration_keys(self):
        table = list(enumerate_cliffords(2))
        assert table[0].key() == ((0, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2))
        assert table[1].key() == ((2, 1, 0), (0, 2, 0), (0, 0, 1), (0, 0, 2))
        assert table[5000].key() == ((1, 3, 2), (1, 3, 1), (0, 2, 0), (2, 2, 1))
        assert table[11519].key() == ((2, 3, 3), (3, 2, 2), (2, 1, 0), (2, 1, 2))

    def test_unitaries_digest(self):
        # sha256 of batch_unitaries over every element at n = 1 and n = 2,
        # recorded before the action was factored as F1 H_S F2; adding 0.0
        # maps -0.0 to +0.0, the only freedom the amplitudes i^k / sqrt(2^h)
        # leave
        digests = {
            1: "19653b5f8254948f36061e803929e4ecab89e0b01f0bf947c9846f594febbd4e",
            2: "a74ff938cfe8e3530ac2d1008bc7c5753b62c8fcdc2b22896be4847c9c009fcb",
        }
        for n, want in digests.items():
            us = batch_unitaries(next(clifford_batches(n, clifford_group_order(n))))
            got = hashlib.sha256((us.view(np.float64) + 0.0).tobytes()).hexdigest()
            assert got == want

    def test_wide_index_keys(self):
        # n >= 6 draws its index in 32-bit words; keys recorded with one
        # Generator.integers call per word
        assert random_clifford(6, 0).key() == (
            (3, 31, 1), (2, 53, 46), (3, 42, 62), (0, 23, 25), (0, 36, 55), (3, 55, 57),
            (0, 22, 7), (3, 18, 10), (0, 15, 31), (1, 27, 58), (0, 44, 42), (0, 34, 17))
        rng = np.random.default_rng(11)
        keys = [random_clifford(7, rng).key() for _ in range(3)]
        assert keys[2] == (
            (0, 124, 98), (3, 55, 24), (1, 21, 43), (0, 82, 12), (3, 4, 118), (1, 75, 24),
            (0, 104, 2), (3, 33, 62), (3, 85, 6), (3, 87, 122), (3, 24, 117), (1, 109, 1),
            (3, 123, 64), (2, 47, 22))
        assert int(rng.integers(1 << 40)) == 562279275301

    def test_block_draws_match_scalar_draws(self):
        # the one-call word draws at 6 <= n <= 16 against the per-Clifford
        # scalar calls: index words, then the 4^n sign draw
        for n in (6, 7, 9, 16):
            order = symplectic_group_order(n)
            words = (order.bit_length() + 64 + 31) // 32
            for seed in range(3):
                rng = np.random.default_rng(seed)
                batch = random_clifford_batch(n, rng, 40)
                ref = np.random.default_rng(seed)
                for b in range(40):
                    i = 0
                    for _ in range(words):
                        i = i << 32 | int(ref.integers(1 << 32))
                    signs = int(ref.integers(1 << (2 * n)))
                    got = batch_element(batch, b)
                    want = batch_element(_batch_from_index(n, i % order, signs), 0)
                    assert got == want
                assert rng.integers(1 << 40) == ref.integers(1 << 40)


def _batch_from_index(n, index, signs):
    from stateiso.paulis import _rows_to_batch, _symplectic_rows
    return _rows_to_batch(_symplectic_rows([index], n), np.array([signs]), n)


class TestRStates:
    def test_r_state_amplitudes(self):
        r = r_state()
        assert np.allclose(r.amplitudes,
                           np.array([1, np.exp(1j * np.pi / 8)]) / np.sqrt(2))

    def test_single_qubit_expectations(self):
        r = r_state()
        assert abs(pauli_expectation(r, PauliOp.single(1, 0, "X")) - COS8) < 1e-12
        assert abs(pauli_expectation(r, PauliOp.single(1, 0, "Y")) - SIN8) < 1e-12
        assert abs(pauli_expectation(r, PauliOp.single(1, 0, "Z"))) < 1e-12

    def test_product_rule(self):
        # <R^n|P|R^n> = sign * 0^{#Z} cos(pi/8)^{#X} sin(pi/8)^{#Y}
        for _ in range(100):
            n = int(RNG.integers(1, 4))
            p = _random_pauli(n)
            if not p.is_hermitian():
                continue
            psi = r_state_product(n)
            want = pauli_expectation(psi, p).real
            assert abs(r_state_pauli_expectation(p) - want) < 1e-12

    def test_r_overlap_matches_dense(self):
        for n in (1, 2, 3):
            psi = r_state_product(n).amplitudes
            for _ in range(20):
                c = random_clifford(n, RNG)
                dense = abs(np.vdot(psi, c.to_unitary().matrix @ psi)) ** 2
                assert abs(r_overlap_sq(c) - dense) < 1e-10


class TestFastIntPath:
    def test_rows_agree_with_element(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(30):
                c = random_clifford(n, rng)
                assert c.is_symplectic()
                images = [(p.phase, p.x, p.z) for p in c.images]
                batch = CliffordBatch(n, *(np.array([t]) for t in zip(*images)))
                psi = r_state_product(n).amplitudes
                dense = abs(np.vdot(psi, c.to_unitary().matrix @ psi)) ** 2
                assert abs(batch_r_overlap_sq(batch)[0] - dense) < 1e-12

    def test_random_rows_uniformity_smoke(self):
        # all 24 single-qubit Cliffords appear in a modest sample
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(2000):
            seen.add(random_clifford(1, rng).key())
        assert len(seen) == 24


class TestBatchedKernel:
    """The batch kernel against the element path and the dense unitary."""

    def test_random_batch_matches_successive_draws(self):
        # n >= 6 draws the symplectic index in several chunks
        for n in range(1, 9):
            rng1, rng2 = np.random.default_rng(n), np.random.default_rng(n)
            batch = random_clifford_batch(n, rng1, 12)
            assert batch.ph.shape == batch.x.shape == batch.z.shape == (12, 2 * n)
            for b in range(12):
                assert batch_element(batch, b).key() == random_clifford(n, rng2).key()
            # both generators stand at the same point of the stream
            assert rng1.integers(1 << 40) == rng2.integers(1 << 40)

    def test_enumeration_batches_cover_the_group(self):
        for n, size in ((1, 5), (2, 1000)):
            keys = [batch_element(b, r).key()
                    for b in clifford_batches(n, size) for r in range(len(b.ph))]
            assert len(keys) == len(set(keys)) == clifford_group_order(n)
            assert keys == [c.key() for c in enumerate_cliffords(n)]
            for b in clifford_batches(n, size):
                assert all(batch_element(b, r).is_symplectic() for r in range(len(b.ph)))

    def test_r_overlap_matches_dense(self):
        rng = np.random.default_rng(21)
        for n in range(1, 5):
            batch = random_clifford_batch(n, rng, 25)
            psi = r_state_product(n).amplitudes
            dense = [abs(np.vdot(psi, batch_element(batch, b).to_unitary().matrix @ psi)) ** 2
                     for b in range(25)]
            assert np.allclose(batch_r_overlap_sq(batch), dense, rtol=0, atol=1e-12)

    def test_overlaps_match_dense(self):
        rng = np.random.default_rng(22)
        for n in range(1, 7):
            d = 1 << n
            batch = random_clifford_batch(n, rng, 9)
            us = batch_unitaries(batch)
            for sparse in (False, True):
                v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
                v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
                if sparse:
                    v1[rng.random(d) < 0.5] = 0
                    v2[1:][rng.random(d - 1) < 0.7] = 0
                psi1 = StateVector(n, v1 / np.linalg.norm(v1))
                psi2 = StateVector(n, v2 / np.linalg.norm(v2))
                want = [np.vdot(psi1.amplitudes, u @ psi2.amplitudes) for u in us]
                assert np.allclose(batch_overlaps(batch, psi1, psi2), want,
                                   rtol=0, atol=1e-12)
            for b in range(9):
                assert np.array_equal(us[b], batch_element(batch, b).to_unitary().matrix)
        # edge rows, against matrices built without the kernel: H on no qubit
        # (identity, a qubit permutation) and H on every qubit
        h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for n in range(1, 9):
            d = 1 << n
            perm = tuple(int(i) for i in rng.permutation(n))
            every_h = CliffordElement(n, [PauliOp.single(n, q, "Z") for q in range(n)]
                                      + [PauliOp.single(n, q, "X") for q in range(n)])
            batch = batch_of([CliffordElement.identity(n), qubit_permutation_clifford(perm, n),
                              every_h])
            hn = np.ones((1, 1))
            for _ in range(n):
                hn = np.kron(hn, h1)
            v1 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v2 = rng.normal(size=d) + 1j * rng.normal(size=d)
            v1, v2 = v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)
            moved = [v2, np.transpose(v2.reshape([2] * n), axes=_axes_for(perm)).ravel(), hn @ v2]
            got = batch_overlaps(batch, StateVector(n, v1), StateVector(n, v2))
            assert np.allclose(got, [np.vdot(v1, m) for m in moved], rtol=0, atol=1e-12)

    def test_uniform_over_the_single_qubit_group(self):
        # 24,000 draws over the 24 elements of C_1: chi-square with 23
        # degrees of freedom stays below 49.73, its 0.999 quantile
        batch = random_clifford_batch(1, np.random.default_rng(2024), 24000)
        index = {c.key(): i for i, c in enumerate(enumerate_cliffords(1))}
        hits = np.bincount([index[batch_element(batch, b).key()] for b in range(24000)],
                           minlength=24)
        assert len(hits) == 24 and hits.min() > 0
        chi2 = float(((hits - 1000.0) ** 2 / 1000.0).sum())
        assert chi2 < 49.73


class TestGraphStates:
    def test_graph_state_is_stabilized(self):
        g = Graph.cycle(4)
        psi = graph_state(g)
        for v in range(4):
            s = graph_stabilizer(g, v)
            assert np.allclose(s.apply(psi.amplitudes), psi.amplitudes)

    def test_triangle_amplitudes(self):
        psi = graph_state(Graph.complete(3))
        signs = np.sign(psi.amplitudes.real)
        # CZ phases: sign is (-1)^{#edges inside the support}
        assert signs[0b000] > 0 and signs[0b011] < 0 and signs[0b111] < 0

    def test_qubit_permutation_clifford(self):
        perm = (1, 2, 0)
        c = qubit_permutation_clifford(perm, 3)
        assert c.is_qubit_permutation()
        u = c.to_unitary().matrix
        v = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        moved = (u @ v).reshape([2] * 3)
        # qubit i of the output holds qubit perm^{-1}(i)? check via axes
        want = np.transpose(v.reshape([2] * 3), axes=_axes_for(perm))
        assert np.allclose(moved, want)


def _axes_for(perm):
    # axis i of the output takes its data from some input axis; determine
    # the convention directly from the 3-qubit shift
    n = len(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return inv


class TestValidation:
    def test_mismatched_sizes_rejected(self):
        with pytest.raises(PauliError):
            PauliOp.single(2, 0, "X") * PauliOp.single(1, 0, "X")

    def test_bad_kind_rejected(self):
        with pytest.raises(PauliError):
            PauliOp.single(1, 0, "Q")

    def test_enumerate_large_gated(self):
        with pytest.raises(PauliError):
            list(enumerate_cliffords(3))
