import hashlib
import math
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
    batch_apply,
    batch_overlaps,
    batch_r_overlap_sq,
    batch_r_overlap_terms,
    batch_unitaries,
    batch_x_image_expectations,
    clifford_batches,
    clifford_elements,
    clifford_group_order,
    enumerate_cliffords,
    graph_state,
    pauli_expectation,
    pauli_table,
    qubit_permutation_batch,
    qubit_permutation_clifford,
    r_state,
    r_state_product,
    random_clifford,
    random_clifford_batch,
    r_overlap_bytes,
    sign_factored_r_overlap_sq,
    symplectic_group_order,
    walsh_hadamard,
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

    def test_apply_on_identity_matches_dense(self):
        # the dense matrix is apply on the identity: every Pauli at n <= 3
        for n in range(1, 4):
            for ph in range(4):
                for x in range(1 << n):
                    for z in range(1 << n):
                        p = PauliOp(n, ph, x, z)
                        assert np.array_equal(p.apply(np.eye(1 << n)), dense_pauli(p)), \
                            (n, ph, x, z)

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


def _walsh_hadamard_loop(v, mask=-1):
    """The butterfly loop that ``walsh_hadamard`` replaced, on the index bits
    of ``mask`` (every bit by default)."""
    v = v.copy()
    h = 1
    while h < len(v):
        for start in range(0, len(v), 2 * h) if mask & h else ():
            a = v[start:start + h].copy()
            b = v[start + h:start + 2 * h].copy()
            v[start:start + h] = a + b
            v[start + h:start + 2 * h] = a - b
        h *= 2
    return v


class TestPauliTable:
    @pytest.mark.parametrize("k", range(0, 11))
    def test_walsh_hadamard_matches_loop(self, k):
        rng = np.random.default_rng(k)
        v = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        assert np.array_equal(walsh_hadamard(v[:, None].copy())[:, 0], _walsh_hadamard_loop(v))
        ints = rng.integers(-9, 9, size=(3, 1 << k))
        got = walsh_hadamard(ints.T.copy()).T
        assert got.dtype == ints.dtype
        assert np.array_equal(got, [_walsh_hadamard_loop(row) for row in ints])

    @pytest.mark.parametrize("entries", [8, 1 << 14])
    @pytest.mark.parametrize("dtype", [complex, np.int64])
    @pytest.mark.parametrize("k", range(0, 9))
    def test_walsh_hadamard_masks_columns_in_place(self, k, dtype, entries, monkeypatch):
        # column b is transformed on the bits of s[b] alone, in the array
        # given; a budget of 8 entries splits each butterfly into many slabs
        from stateiso import paulis
        monkeypatch.setattr(paulis, "_BLOCK_ENTRIES", entries)
        rng = np.random.default_rng(100 + k)
        d = 1 << k
        v = rng.integers(-9, 9, size=(d, 7)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.normal(size=v.shape)
        shared = int(rng.integers(d))
        masks = [np.append(rng.integers(d, size=5), [0, d - 1]), np.full(7, shared)]
        for s in masks + [None]:
            w = v.copy()
            assert walsh_hadamard(w, s) is w
            assert w.dtype == v.dtype
            for b in range(7):
                mask = -1 if s is None else int(s[b])
                assert np.array_equal(w[:, b], _walsh_hadamard_loop(v[:, b], mask)), (s, b)
                if mask == 0:
                    assert np.array_equal(w[:, b], v[:, b])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_matches_pauli_apply(self, n):
        rng = np.random.default_rng(50 + n)
        a, c = (v / np.linalg.norm(v) for v in
                rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n)))
        t = pauli_table(a, c, n)
        want = [[np.vdot(a, PauliOp(n, 0, x, z).apply(c)) for z in range(1 << n)]
                for x in range(1 << n)]
        assert np.abs(t - np.array(want)).max() < 1e-14


def _random_pauli(n):
    return PauliOp(n, int(RNG.integers(4)), int(RNG.integers(1 << n)),
                   int(RNG.integers(1 << n)))


def _images(c):
    """The images of a CliffordElement as PauliOps, from its packed row."""
    return [PauliOp(c.n, *t) for t in c.key()]


def _conjugate(c, p):
    """C P C^dag via exact phase-tracked PauliOp products of the images: the
    scalar reference for the packed ``compose``."""
    images = _images(c)
    out = PauliOp(c.n, p.phase, 0, 0)
    for q in range(c.n):
        if (p.x >> q) & 1:
            out = out * images[q]
    for q in range(c.n):
        if (p.z >> q) & 1:
            out = out * images[c.n + q]
    return out


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
                    for kind, img in (("X", _images(c)[j]), ("Z", _images(c)[n + j])):
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
            lhs = dense_pauli(_conjugate(c, p))
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
            assert c.compose(c.inverse()) == qubit_permutation_clifford(range(n), n)

    def test_compose_every_single_qubit_pair_matches_dense(self):
        # all 24 x 24 pairs at n = 1 in one batched call, against the dense
        # products up to global phase
        group = next(clifford_batches(1, 24))
        us = batch_unitaries(group)
        a, b = np.repeat(np.arange(24), 24), np.tile(np.arange(24), 24)
        left, right = (CliffordBatch(1, *(t[idx] for t in group[1:])) for idx in (a, b))
        got = batch_unitaries(left.compose(right))
        for k in range(576):
            prod = us[a[k]] @ us[b[k]]
            ratio = prod[np.abs(prod) > 1e-9][0] / got[k][np.abs(prod) > 1e-9][0]
            assert abs(abs(ratio) - 1) < 1e-10
            assert np.allclose(prod, ratio * got[k], atol=1e-10)

    def test_inverse_of_every_two_qubit_element(self):
        # compose(c, inverse(c)) is the identity for all 11,520 elements at
        # n = 2, in one batched call; and so is compose(inverse(c), c)
        group = next(clifford_batches(2, clifford_group_order(2)))
        ident = qubit_permutation_clifford(range(2), 2)
        for prod in (group.compose(group.inverse()), group.inverse().compose(group)):
            for got, want in zip(prod[1:], ident[1:]):
                assert np.array_equal(got, np.broadcast_to(want, got.shape))

    def test_compose_matches_scalar_conjugation(self):
        # the packed compose against the PauliOp-product loop, image by image
        rng = np.random.default_rng(31)
        for n in range(1, 7):
            for _ in range(8):
                a, b = random_clifford(n, rng), random_clifford(n, rng)
                want = tuple(_conjugate(a, img).key() for img in _images(b))
                assert a.compose(b).key() == want

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
        # a 1 GiB (13 qubits) or 256 MiB (12 qubits) matrix and its work
        # arrays are over the budget; refused before any allocation
        for n in (13, 12):
            c = qubit_permutation_clifford(range(n), n)
            tracemalloc.start()
            try:
                with pytest.raises(PauliError, match="budget"):
                    c.to_unitary()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_dense_unitary_peak_within_guard(self):
        # the guard counts the matrix and three more for its work arrays:
        # 64 MiB at 10 qubits, which the build must not exceed
        c = random_clifford(10, np.random.default_rng(12))
        tracemalloc.start()
        try:
            u = c.to_unitary().matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * u.nbytes
        assert np.allclose(u[:, :4].conj().T @ u[:, :4], np.eye(4))


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
                    got = batch.row(b)
                    want = _batch_from_index(n, i % order, signs).row(0)
                    assert got == want
                assert rng.integers(1 << 40) == ref.integers(1 << 40)


def _batch_from_index(n, index, signs):
    from stateiso.paulis import _rows_to_batch, _symplectic_rows
    return _rows_to_batch(_symplectic_rows([index], n), np.array([signs]), n)


def _scalar_draws(rng, n, count):
    """The per-Clifford scalar draws the block draws reproduce: the
    symplectic index (one Generator.integers call below 2^62, else whole
    32-bit words modulo the order), then Generator.integers(4^n)."""
    order = symplectic_group_order(n)
    words = (order.bit_length() + 64 + 31) // 32
    indices, signs = [], []
    for _ in range(count):
        if order < 1 << 62:
            i = int(rng.integers(order))
        else:
            i = 0
            for _ in range(words):
                i = i << 32 | int(rng.integers(1 << 32))
            i %= order
        indices.append(i)
        signs.append(int(rng.integers(1 << (2 * n))))
    return indices, signs


class TestBlockDraws:
    """random_clifford_batch against the scalar loop it replaces, from both
    states of the generator's 32-bit buffer."""

    def test_block_draws_equal_scalar_draws(self):
        from stateiso.paulis import _rows_to_batch, _symplectic_rows
        for n in range(1, 9):
            # >= 10k draws at n <= 5, so that numpy's Lemire method rejects
            # some indices at n = 3 and 5 (a chance of 3.2e-4 and 4.9e-4 a
            # draw; at n = 1, 2 and 4 it is below 1e-7) and redraws them
            count = 10_000 if n <= 5 else 200
            for prior in (1, 2):
                # an odd number of prior 32-bit draws leaves a half word
                # buffered, an even number leaves none
                rng, ref = np.random.default_rng(1), np.random.default_rng(1)
                for g in (rng, ref):
                    for _ in range(prior):
                        g.integers(1 << 32)
                batch = random_clifford_batch(n, rng, count)
                indices, signs = _scalar_draws(ref, n, count)
                want = _rows_to_batch(_symplectic_rows(indices, n), np.array(signs), n)
                for got, expect in zip(batch[1:], want[1:]):
                    assert np.array_equal(got, expect), (n, prior)
                assert rng.bit_generator.state == ref.bit_generator.state, (n, prior)
                assert rng.integers(1 << 32) == ref.integers(1 << 32)
                assert rng.integers(1 << 40) == ref.integers(1 << 40)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.SFC64,
                                               np.random.MT19937])
    def test_short_batches_equal_scalar_draws(self, bit_generator):
        # batches of 0 to 3 from every buffer state, at each draw width, on
        # every numpy bit generator, MT19937 (which buffers no half words)
        # among them
        for n in (1, 3, 4, 5, 6):
            for count in range(4):
                for prior in range(3):
                    rng, ref = (np.random.Generator(bit_generator(prior)) for _ in range(2))
                    for g in (rng, ref):
                        for _ in range(prior):
                            g.integers(1 << 32)
                    batch = random_clifford_batch(n, rng, count)
                    indices, signs = _scalar_draws(ref, n, count)
                    for b in range(count):
                        assert batch.row(b) == _batch_from_index(n, indices[b], signs[b]).row(0)
                    assert np.array_equal(rng.integers(1 << 40, size=3),
                                          ref.integers(1 << 40, size=3))
                    assert rng.integers(1 << 32) == ref.integers(1 << 32)

    def test_draws_stop_at_sixteen_qubits(self):
        with pytest.raises(PauliError, match="n = 16"):
            random_clifford_batch(17, np.random.default_rng(0), 1)


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
            assert abs(_r_state_pauli_expectation(p) - want) < 1e-12

    def test_product_is_the_kron_chain_bit_for_bit(self):
        amps, single = np.ones(1, dtype=complex), r_state().amplitudes
        for n in range(11):
            assert r_state_product(n).amplitudes.tobytes() == amps.tobytes(), n
            amps = np.kron(amps, single)

    def test_r_overlap_matches_dense(self):
        for n in (1, 2, 3):
            psi = r_state_product(n).amplitudes
            for _ in range(20):
                c = random_clifford(n, RNG)
                dense = abs(np.vdot(psi, c.to_unitary().matrix @ psi)) ** 2
                assert abs(batch_r_overlap_sq(c)[0] - dense) < 1e-10


class TestFastIntPath:
    def test_rows_agree_with_element(self):
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(30):
                c = random_clifford(n, rng)
                assert _is_symplectic(c)
                images = c.key()
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
                assert batch.row(b).key() == random_clifford(n, rng2).key()
            # both generators stand at the same point of the stream
            assert rng1.integers(1 << 40) == rng2.integers(1 << 40)

    def test_enumeration_batches_cover_the_group(self):
        for n, size in ((1, 5), (2, 1000)):
            keys = [b.row(r).key()
                    for b in clifford_batches(n, size) for r in range(len(b.ph))]
            assert len(keys) == len(set(keys)) == clifford_group_order(n)
            assert keys == [c.key() for c in enumerate_cliffords(n)]
            for b in clifford_batches(n, size):
                assert all(_is_symplectic(b.row(r)) for r in range(len(b.ph)))

    def test_r_overlap_matches_dense(self):
        rng = np.random.default_rng(21)
        for n in range(1, 5):
            batch = random_clifford_batch(n, rng, 25)
            psi = r_state_product(n).amplitudes
            dense = [abs(np.vdot(psi, batch.row(b).to_unitary().matrix @ psi)) ** 2
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
                assert np.array_equal(us[b], batch.row(b).to_unitary().matrix)
        # edge rows, against matrices built without the kernel: H on no qubit
        # (identity, a qubit permutation) and H on every qubit
        h1 = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for n in range(1, 9):
            d = 1 << n
            perm = tuple(int(i) for i in rng.permutation(n))
            bits, zero = [1 << q for q in range(n)], [0] * n
            every_h = CliffordElement(n, np.zeros((1, 2 * n), dtype=np.int64),
                                      np.array([zero + bits]), np.array([bits + zero]))
            rows = [c[1:] for c in (qubit_permutation_clifford(range(n), n),
                                    qubit_permutation_clifford(perm, n), every_h)]
            batch = CliffordBatch(n, *map(np.concatenate, zip(*rows)))
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
        hits = np.bincount([index[batch.row(b).key()] for b in range(24000)],
                           minlength=24)
        assert len(hits) == 24 and hits.min() > 0
        chi2 = float(((hits - 1000.0) ** 2 / 1000.0).sum())
        assert chi2 < 49.73

    def test_uniform_over_the_two_qubit_group(self):
        # 115,200 draws, 10 expected in each of the 11,520 bins; the draws
        # are matched to enumeration indices by their packed (ph, x, z) rows
        # and the chi-square p-value with 11,519 degrees of freedom comes
        # from the Wilson-Hilferty normal approximation
        def packed(batch):
            return ((batch.ph << 4 | batch.x << 2 | batch.z)
                    << 6 * np.arange(4)).sum(axis=1)

        table = packed(next(clifford_batches(2, clifford_group_order(2))))
        order = np.argsort(table)
        drawn = packed(random_clifford_batch(2, np.random.default_rng(2025), 115_200))
        at = np.searchsorted(table, drawn, sorter=order)
        assert np.array_equal(table[order[at]], drawn)
        hits = np.bincount(order[at], minlength=11520)
        chi2, df = float(((hits - 10.0) ** 2 / 10.0).sum()), 11519
        z = ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))
        assert 0.5 * math.erfc(z / math.sqrt(2)) > 1e-3

    def test_apply_columns_match_single_columns(self):
        # k columns at once against k one-column calls, bit for bit; at
        # n = 8, 70 columns put d k over the block budget, so each sub-block
        # is one row
        rng = np.random.default_rng(23)
        for n, k in ((1, 3), (2, 5), (3, 5), (4, 2), (5, 5), (6, 4), (8, 70)):
            d = 1 << n
            batch = random_clifford_batch(n, rng, 3)
            amps = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            amps[rng.random((d, k)) < 0.3] = 0
            got = batch_apply(batch, amps)
            assert got.shape == (3, d, k)
            for c in range(k):
                one = batch_apply(batch, amps[:, c:c + 1])
                assert got[:, :, c].tobytes() == one[:, :, 0].tobytes()

    def test_apply_matches_unitaries(self):
        rng = np.random.default_rng(24)
        for n in range(1, 7):
            d = 1 << n
            batch = random_clifford_batch(n, rng, 9)
            amps = rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3))
            assert np.allclose(batch_apply(batch, amps), batch_unitaries(batch) @ amps,
                               rtol=0, atol=1e-12)

    def test_apply_empty_batch(self):
        rng = np.random.default_rng(25)
        for n, k in ((1, 1), (3, 2), (5, 4)):
            empty = CliffordBatch(n, *(a[:0] for a in random_clifford_batch(n, rng, 2)[1:]))
            assert batch_apply(empty, np.ones((1 << n, k), dtype=complex)).shape == (0, 1 << n, k)
            assert batch_unitaries(empty).shape == (0, 1 << n, 1 << n)

    def test_unitary_stack_size_guard(self):
        # 4,097 six-qubit matrices of 64 KiB each take 256 MiB + 64 KiB,
        # over the budget; refused before any allocation
        one = qubit_permutation_clifford(range(6), 6)
        stack = CliffordBatch(6, *(np.broadcast_to(a, (4097, 12)) for a in one[1:]))
        tracemalloc.start()
        try:
            with pytest.raises(PauliError, match="budget"):
                batch_unitaries(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sign_factored_matches_kernel(self):
        # every element at n = 1 and 2; at n = 3 every 997th symplectic
        # element with all 64 sign patterns
        for n, step in ((1, 1), (2, 1), (3, 997)):
            k = 2 * n
            indices = np.arange(0, symplectic_group_order(n), step)
            got = sign_factored_r_overlap_sq(clifford_elements(n, indices << k))
            assert got.shape == (len(indices), 1 << k)
            elements = (indices[:, None] << k | np.arange(1 << k)).ravel()
            want = batch_r_overlap_sq(clifford_elements(n, elements))
            assert np.abs(got.ravel() - want).max() <= 1e-15

    def test_sign_factored_scores_rows_at_any_sign(self):
        # column s of a row whose sign bits are t scores that row at t ^ s
        rng = np.random.default_rng(61)
        for n in (1, 2, 3):
            k = 2 * n
            elements = rng.integers(clifford_group_order(n), size=40)
            got = sign_factored_r_overlap_sq(clifford_elements(n, elements))
            flipped = (elements[:, None] ^ np.arange(1 << k)).ravel()
            want = batch_r_overlap_sq(clifford_elements(n, flipped))
            assert np.abs(got.ravel() - want).max() <= 1e-15

    def test_sign_factored_refuses_four_qubits(self):
        # its sign matrix is 4^n x 3^n
        with pytest.raises(PauliError, match="n <= 3"):
            sign_factored_r_overlap_sq(random_clifford_batch(4, np.random.default_rng(0), 1))

    def test_pauli_strings_cached_read_only(self):
        # built once per n and shared by every block of the kernel
        from stateiso.paulis import _pauli_strings
        coef, masks = _pauli_strings(3)
        assert _pauli_strings(3)[0] is coef and _pauli_strings(3)[1] is masks
        assert coef.shape == masks.shape == (27,)
        with pytest.raises(ValueError):
            coef[0] = 0.0
        with pytest.raises(ValueError):
            masks[0] = 1

    def test_product_phases_match_pauli_products(self):
        # the phase of each selected product against PauliOp multiplication
        # in order; the selector tables are cached and read-only
        from stateiso.paulis import _product_phases, _selector_bits
        rng = np.random.default_rng(12)
        for n, m in ((1, 2), (3, 3), (4, 8), (6, 12)):
            ph, x, z = (rng.integers(lim, size=(m, 5)) for lim in (4, 1 << n, 1 << n))
            sel = rng.integers(1 << m, size=(7, 5))
            got = _product_phases(sel, ph, x, z, n)
            for k, b in np.ndindex(sel.shape):
                want = PauliOp(n, 0, 0, 0)
                for q in range(m):
                    if sel[k, b] >> (m - 1 - q) & 1:
                        want = want * PauliOp(n, int(ph[q, b]), int(x[q, b]), int(z[q, b]))
                assert got[k, b] & 3 == want.phase, (n, m, k, b)
        bits, later = _selector_bits(5)
        assert _selector_bits(5)[0] is bits and _selector_bits(5)[1] is later
        with pytest.raises(ValueError):
            later[0, 1] = 0

    def test_overlap_terms_peak_within_estimate(self):
        # the kernel's measured peak at n = 10 on one Clifford is what its
        # byte budget assumes, within a factor of two
        batch = random_clifford_batch(10, np.random.default_rng(5), 1)
        tracemalloc.start()
        try:
            terms, _ = batch_r_overlap_terms(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms.shape == (1, 3 ** 10)
        assert r_overlap_bytes(1, 10) / 2 <= peak <= r_overlap_bytes(1, 10)

    def test_index_digits_match_python_divmod(self):
        # the digits against the Python-int loop, on indices up to the last
        # one of each group: int64 at n <= 5, and above that Python divmod
        # on the outer levels only
        import random
        from stateiso.paulis import _index_digits
        rng = np.random.default_rng(8)
        wide = random.Random(8)
        for n in range(1, 17):
            order = symplectic_group_order(n)
            drawn = ([int(i) for i in rng.integers(order, size=50)] if n <= 5
                     else [wide.randrange(order) for _ in range(50)])
            indices = [0, 1, order - 1] + drawn
            want = []
            for i in indices:
                for m in range(n, 0, -1):
                    i, f1 = divmod(i, (1 << 2 * m) - 1)
                    i, bits = divmod(i, 1 << 2 * m - 1)
                    want.append(f1 + ((1 << 2 * m) - 1) * bits)
            assert _index_digits(indices, n).ravel().tolist() == want


def _reference_symplectic_rows(indices, n):
    """The Koenig-Smolin rows by four transvections per level at every
    level, with Python divmod digits and the closed-form transvections."""
    from stateiso.paulis import _transvect, _transvections_from_e1
    digits = []
    for i in indices:
        i = int(i)
        for m in range(n, 0, -1):
            i, f1 = divmod(i, (1 << 2 * m) - 1)
            i, bits = divmod(i, 1 << 2 * m - 1)
            digits.append((f1 + 1, bits))
    digits = np.array(digits, dtype=np.int64).reshape(len(indices), n, 2)
    rows = np.zeros((len(indices), 0), dtype=np.int64)
    e01 = np.array([[1, 2]]).repeat(len(indices), axis=0)
    for m in range(1, n + 1):
        f1, bits = digits[:, n - m].T
        h0, h1 = _transvections_from_e1(f1)
        e = _transvect(h0, _transvect(h1, 1 | ((bits >> 1) << 2), 2 * m), 2 * m)
        rows = np.hstack((e01, rows << 2))
        for k in (h1, h0, e, np.where(bits & 1, 0, f1)):
            rows = _transvect(k[:, None], rows, 2 * m)
    return rows


class TestLevelImages:
    """The tabled Koenig-Smolin levels m <= 3 against the transvection loop."""

    def test_rows_match_transvections(self):
        import random
        from stateiso.paulis import _symplectic_rows
        wide = random.Random(18)
        cases = [(1, range(6)), (2, range(720)),
                 (3, range(0, symplectic_group_order(3), 997))]
        # above n = 3 the tabled inner levels sit under transvected outer ones
        cases += [(n, [wide.randrange(symplectic_group_order(n)) for _ in range(5000)])
                  for n in range(4, 8)]
        for n, indices in cases:
            indices = list(indices)
            got = _symplectic_rows(indices, n)
            assert got.dtype == np.int64, n
            assert np.array_equal(got, _reference_symplectic_rows(indices, n)), n

    def test_tables_read_only_and_small(self):
        from stateiso.paulis import _level_images
        tables = [_level_images(m) for m in (1, 2, 3)]
        assert [t.shape for t in tables] == [(6, 4), (120, 16), (2016, 64)]
        for t in tables:
            assert t.dtype == np.uint8 and not t.flags.writeable
            with pytest.raises(ValueError):
                t[0, 0] = 1
        assert sum(t.nbytes for t in tables) <= 192 << 10


def _reference_rows_to_batch(rows, signs, n):
    """The tableau of packed rows by one shift per qubit and half."""
    rows = np.hstack((rows[:, 0::2], rows[:, 1::2]))
    x = z = np.zeros_like(rows)
    for q in range(n):
        x = x | ((rows >> (2 * q)) & 1) << q
        z = z | ((rows >> (2 * q + 1)) & 1) << q
    parity = np.array([[v.bit_count() & 1 for v in row] for row in (x & z).tolist()])
    return parity + 2 * ((signs[:, None] >> np.arange(2 * n)) & 1), x, z


class TestRowUnpack:
    """_rows_to_batch's byte tables against the per-qubit loop."""

    def test_rows_unpack_matches_loop(self):
        # above n = 4 a row spans more bytes than one, and above n = 8 each
        # of its X and Z halves does
        from stateiso.paulis import _draw, _rows_to_batch
        rng = np.random.default_rng(31)
        for n in range(1, 17):
            rows, signs = _draw(rng, n, 300 if n <= 8 else 30)
            got = _rows_to_batch(rows, signs, n)
            for a, b in zip(got[1:], _reference_rows_to_batch(rows, signs, n)):
                assert a.dtype == np.int64 and np.array_equal(a, b), n


class TestCertificateKernel:
    """The X image expectations against dense matrices, and the |R> scorers
    on the empty survivor sets that the lemma's certificate leaves."""

    @staticmethod
    def _dense_x(n, q):
        # qubit 0 is the most significant bit of a basis index
        out = np.eye(1, dtype=complex)
        for k in range(n):
            out = np.kron(out, X if k == q else I2)
        return out

    def test_x_image_expectations_match_dense(self):
        # <R^n|U X_q U^dag|R^n> from each Clifford's dense unitary: the whole
        # group at n = 1 and random draws with all sign patterns at n <= 3
        rng = np.random.default_rng(41)
        for n, batch in ((1, next(clifford_batches(1, 24))),
                         (2, random_clifford_batch(2, rng, 60)),
                         (3, random_clifford_batch(3, rng, 60))):
            psi = r_state_product(n).amplitudes
            got = batch_x_image_expectations(batch)
            assert got.shape == (len(batch.ph), n)
            for b in range(len(batch.ph)):
                u = batch.row(b).to_unitary().matrix
                for q in range(n):
                    want = np.vdot(psi, u @ self._dense_x(n, q) @ u.conj().T @ psi)
                    assert abs(want.imag) < 1e-12
                    assert abs(got[b, q] - want.real) < 1e-12, (n, b, q)

    def test_x_image_expectations_of_permutations(self):
        # a qubit permutation fixes |R^n>, so every X image reads cos(pi/8)
        for n in range(1, 7):
            perms = _all_or_sampled_permutations(n)
            got = batch_x_image_expectations(qubit_permutation_batch(perms, n))
            assert np.array_equal(got, np.full((len(perms), n), COS8))

    def test_x_image_expectations_match_product_rule(self):
        # past dense sizes, one image at a time against the product rule
        rng = np.random.default_rng(42)
        for n in (8, 16):
            batch = random_clifford_batch(n, rng, 40)
            got = batch_x_image_expectations(batch)
            for b in range(40):
                for q in range(n):
                    p = PauliOp(n, int(batch.ph[b, q]), int(batch.x[b, q]), int(batch.z[b, q]))
                    assert got[b, q] == pytest.approx(_r_state_pauli_expectation(p), abs=1e-15)

    def test_r_overlap_of_empty_batches(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 5):
            empty = CliffordBatch(n, *(a[:0] for a in random_clifford_batch(n, rng, 2)[1:]))
            assert batch_r_overlap_sq(empty).shape == (0,)
            terms, masks = batch_r_overlap_terms(empty)
            assert terms.shape == (0, 3 ** n) and masks.shape == (3 ** n,)
            assert batch_x_image_expectations(empty).shape == (0, n)
        for n in (1, 2, 3):
            empty = clifford_elements(n, np.zeros(0, dtype=np.int64))
            assert sign_factored_r_overlap_sq(empty).shape == (0, 1 << 2 * n)


def _permutation_matrix(perm, n):
    """The dense matrix of the qubit permutation sending qubit q to perm[q],
    qubit 0 the most significant index bit, one entry per basis state."""
    d = 1 << n
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        image = sum(((j >> (n - 1 - q)) & 1) << (n - 1 - perm[q]) for q in range(n))
        m[image, j] = 1
    return m


def _all_or_sampled_permutations(n):
    """Every permutation of n <= 4 qubits, else 300 drawn ones."""
    from itertools import permutations
    if n <= 4:
        return list(permutations(range(n)))
    rng = np.random.default_rng(n)
    return [tuple(int(i) for i in rng.permutation(n)) for _ in range(300)]


class TestPermutationFactors:
    """Blocks of qubit permutations get C = F1 H_S F2 by construction."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7])
    def test_constructed_factors_equal_elimination(self, n):
        from stateiso.paulis import _factor, _permutation_factors
        batch = qubit_permutation_batch(_all_or_sampled_permutations(n), n)
        want, got = _factor(batch), _permutation_factors(batch)
        for field, a, b in zip(want._fields, want, got):
            assert a.dtype == b.dtype and a.shape == b.shape, (n, field)
            assert np.array_equal(a, b), (n, field)

    def test_other_blocks_take_the_elimination(self, monkeypatch):
        # one row that is no permutation, caught by the Z-part pre-test (an
        # S gate's X -> Y) or by the full test (a CNOT, or a sign), sends the
        # whole block through _factor
        from stateiso import paulis
        n = 3
        perms = qubit_permutation_batch(_all_or_sampled_permutations(n), n)
        cnot = CliffordElement(n, np.zeros((1, 6), dtype=np.int64),
                               np.array([[3, 2, 4, 0, 0, 0]]), np.array([[0, 0, 0, 1, 3, 4]]))
        phase_gate = CliffordElement(n, np.array([[1, 0, 0, 0, 0, 0]]),
                                     np.array([[1, 2, 4, 0, 0, 0]]),
                                     np.array([[1, 0, 0, 1, 2, 4]]))
        signed = perms.row(3)
        signed = CliffordElement(n, signed.ph + np.array([[0, 2, 0, 0, 0, 0]]), *signed[2:])
        calls = []
        monkeypatch.setattr(paulis, "_factor",
                            lambda b, real=paulis._factor: calls.append("elim") or real(b))
        monkeypatch.setattr(paulis, "_permutation_factors",
                            lambda b, real=paulis._permutation_factors:
                            calls.append("perm") or real(b))
        amps = RNG.normal(size=(8, 2)) + 1j * RNG.normal(size=(8, 2))
        for odd in (cnot, phase_gate, signed):
            assert not odd.permutation_mask()[0]
            block = CliffordBatch(n, *(np.vstack((a, b)) for a, b in zip(perms[1:], odd[1:])))
            calls.clear()
            got = batch_apply(block, amps)
            assert calls == ["elim"]
            want = np.stack([c.to_unitary().matrix for c in map(block.row, range(7))]) @ amps
            assert np.allclose(got, want, rtol=0, atol=1e-12)
        calls.clear()
        batch_apply(perms, amps)
        assert calls == ["perm"]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_apply_is_the_permutation_matrix_exactly(self, n):
        d = 1 << n
        perms = _all_or_sampled_permutations(n)[:60]
        amps = RNG.normal(size=(d, 3)) + 1j * RNG.normal(size=(d, 3))
        got = batch_apply(qubit_permutation_batch(perms, n), amps)
        for b, perm in enumerate(perms):
            assert np.array_equal(got[b], _permutation_matrix(perm, n) @ amps), (n, perm)


class TestGraphStates:
    def test_graph_state_is_stabilized(self):
        g = Graph.cycle(4)
        psi = graph_state(g)
        for v in range(4):
            s = _graph_stabilizer(g, v)
            assert np.allclose(s.apply(psi.amplitudes), psi.amplitudes)

    def test_triangle_amplitudes(self):
        psi = graph_state(Graph.complete(3))
        signs = np.sign(psi.amplitudes.real)
        # CZ phases: sign is (-1)^{#edges inside the support}
        assert signs[0b000] > 0 and signs[0b011] < 0 and signs[0b111] < 0

    def test_qubit_permutation_clifford(self):
        perm = (1, 2, 0)
        c = qubit_permutation_clifford(perm, 3)
        assert c.permutation_mask()[0]
        u = c.to_unitary().matrix
        v = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        moved = (u @ v).reshape([2] * 3)
        # qubit i of the output holds qubit perm^{-1}(i)? check via axes
        want = np.transpose(v.reshape([2] * 3), axes=_axes_for(perm))
        assert np.allclose(moved, want)


    def test_qubit_permutation_batch(self):
        from itertools import permutations
        perms = list(permutations(range(3)))
        batch = qubit_permutation_batch(perms, 3)
        assert batch.permutation_mask().all()
        # row b sends X_i to X_{perm[i]}
        assert [tuple(v.bit_length() - 1 for v in row[:3].tolist())
                for row in batch.x] == perms
        with pytest.raises(PauliError, match="not a permutation"):
            qubit_permutation_batch([(0, 1, 2), (0, 0, 2)], 3)
        with pytest.raises(PauliError, match="not a permutation"):
            qubit_permutation_clifford((0, 1, 1, 0), 2)

def _graph_stabilizer(g, v):
    """K_v = X_v prod_{w ~ v} Z_w for a graph state."""
    p = PauliOp.single(g.n, v, "X")
    for u, w in g.edges:
        if v in (u, w):
            p = p * PauliOp.single(g.n, u + w - v, "Z")
    return p


def _is_symplectic(c):
    """Whether the 2n x 2n binary matrix of the images (row j = x bits, z
    bits of image j) preserves the symplectic form."""
    n = c.n
    q = np.arange(n)
    m = np.hstack(((c.x[0, :, None] >> q) & 1, (c.z[0, :, None] >> q) & 1))
    omega = np.roll(np.eye(2 * n, dtype=int), n, axis=1)
    return bool(np.array_equal((m @ omega @ m.T) % 2, omega))


def _r_state_pauli_expectation(p):
    """<R^n|P|R^n> from the product rule: s * 0^{#Z} cos(pi/8)^{#X} sin(pi/8)^{#Y}."""
    y = p.x & p.z
    if (p.z & ~y).bit_count():
        return 0.0
    # each Y carries a factor i in the canonical X^x Z^z form
    s = 1.0 if (p.phase + 3 * y.bit_count()) & 3 == 0 else -1.0
    return s * COS8 ** (p.x & ~y).bit_count() * SIN8 ** y.bit_count()


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
            list(enumerate_cliffords(4))
