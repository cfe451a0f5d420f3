"""Symplectic Pauli algebra and tableau Cliffords.

A Pauli is stored as ``i^phase * X^x Z^z`` with ``x``, ``z`` bitmasks
(bit i = qubit i) and the phase exponent tracked exactly mod 4.  A
Clifford is stored by its conjugation images of the generators
X_0..X_{n-1}, Z_0..Z_{n-1}; no global phase is carried.

There is one Clifford kernel, with a batch axis: a ``CliffordBatch`` holds
B tableaus as (B, 2n) int64 arrays in the convention of
``CliffordElement.key``.  ``random_clifford_batch`` and ``clifford_batches``
draw and enumerate them in the Koenig-Smolin order (J. Math. Phys. 55,
122202, 2014); ``batch_r_overlap_sq``, ``batch_overlaps`` and
``batch_unitaries`` score and apply them.  The action reads C|b> = P_b
C|0^n>, P_b the product of the X-generator images selected by the bits of
b, from one walk over the basis, built for ``_BLOCK_ENTRIES // d``
Cliffords at a time and gathered in blocks of at most ``_BLOCK_ENTRIES``
entries.  The ``CliffordElement`` methods are the kernel at B=1.  Phase
convention: the first nonzero amplitude of C|0^n> is real positive.
"""
from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .linalg import StateVector, UnitaryMatrix

_PHASE = (1, 1j, -1, -1j)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

COS8 = math.cos(math.pi / 8)
SIN8 = math.sin(math.pi / 8)


class PauliError(ValueError):
    pass


# 16-bit popcount table, built by doubling (entry i + 2^k is entry i plus one
# for i < 2^k) so that no temporary is larger than the uint8 table itself
_POP16 = np.zeros(1, dtype=np.uint8)
for _ in range(16):
    _POP16 = np.concatenate((_POP16, _POP16 + 1))


def _popcount(v: np.ndarray, bits: int) -> np.ndarray:
    """Popcount of each entry of a non-negative int array below 2**bits."""
    out = _POP16[v if bits <= 16 else v & 0xFFFF]
    for shift in range(16, bits, 16):
        out = out + _POP16[(v >> shift) & 0xFFFF]
    return out


def _parity(v: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the popcount of each entry of an int array below 2**bits."""
    return _popcount(v, bits) & 1


def _index_masks(v: np.ndarray, n: int) -> np.ndarray:
    """Qubit masks (bit q = qubit q) as basis-index masks (qubit 0 = most
    significant bit)."""
    q = np.arange(n)
    return (((v[..., None] >> q) & 1) << (n - 1 - q)).sum(axis=-1)


class PauliOp:
    """n-qubit Pauli ``i^phase * X^x Z^z`` with exact phase arithmetic."""

    __slots__ = ("n", "phase", "x", "z")

    def __init__(self, n: int, phase: int, x: int, z: int):
        if not 0 <= x < (1 << n) or not 0 <= z < (1 << n):
            raise PauliError(f"bit masks out of range for {n} qubits")
        self.n = n
        self.phase = phase & 3
        self.x = x
        self.z = z

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity(n: int) -> "PauliOp":
        return PauliOp(n, 0, 0, 0)

    @staticmethod
    def single(n: int, qubit: int, kind: str) -> "PauliOp":
        """X, Y or Z on one qubit (Y = i * X Z in canonical form)."""
        bit = 1 << qubit
        if kind == "X":
            return PauliOp(n, 0, bit, 0)
        if kind == "Z":
            return PauliOp(n, 0, 0, bit)
        if kind == "Y":
            return PauliOp(n, 1, bit, bit)
        raise PauliError(f"unknown Pauli letter {kind!r}")

    @staticmethod
    def from_string(s: str) -> "PauliOp":
        """Parse e.g. '+iXZI' or '-YY'. Letters are qubit 0 first."""
        s = s.strip()
        phase = 0
        if s.startswith(("+", "-")):
            sign = s[0]
            s = s[1:]
            phase = 0 if sign == "+" else 2
        if s.startswith(("i", "j")):
            phase += 1
            s = s[1:]
        n = len(s)
        x = z = 0
        y_count = 0
        for q, letter in enumerate(s):
            if letter == "I":
                continue
            if letter in "XY":
                x |= 1 << q
            if letter in "ZY":
                z |= 1 << q
            if letter == "Y":
                y_count += 1
            if letter not in "IXYZ":
                raise PauliError(f"unknown Pauli letter {letter!r}")
        # each Y contributes a factor i in canonical X^x Z^z form
        return PauliOp(n, phase + y_count, x, z)

    # -- algebra ------------------------------------------------------
    def __mul__(self, other: "PauliOp") -> "PauliOp":
        if self.n != other.n:
            raise PauliError("Pauli size mismatch")
        # Z^z1 X^x2 = (-1)^{|z1 & x2|} X^x2 Z^z1
        swaps = (self.z & other.x).bit_count()
        return PauliOp(
            self.n,
            self.phase + other.phase + 2 * swaps,
            self.x ^ other.x,
            self.z ^ other.z,
        )

    def commutes(self, other: "PauliOp") -> bool:
        if self.n != other.n:
            raise PauliError("Pauli size mismatch")
        sym = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return sym % 2 == 0

    def hermitian_conjugate(self) -> "PauliOp":
        # (i^p X^x Z^z)^dag = i^{-p} (-1)^{|x&z|} X^x Z^z
        return PauliOp(self.n, -self.phase + 2 * (self.x & self.z).bit_count(), self.x, self.z)

    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    def weight_counts(self) -> tuple:
        """(#X, #Y, #Z) sites of the underlying Pauli string."""
        y = self.x & self.z
        return ((self.x & ~y).bit_count(), y.bit_count(), (self.z & ~y).bit_count())

    # -- dense action -------------------------------------------------
    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Apply to a dense amplitude vector (qubit 0 = most significant)."""
        n = self.n
        xi, zi = _index_masks(np.array([self.x, self.z]), n).tolist()
        idx = np.arange(1 << n)
        signs = 1.0 - 2.0 * _parity(idx & zi, n)
        out = np.empty_like(amps, dtype=complex)
        out[idx ^ xi] = _PHASE[self.phase] * signs * amps
        return out

    def to_matrix(self) -> np.ndarray:
        m = np.eye(1, dtype=complex)
        for q in range(self.n):
            f = _I2
            if (self.x >> q) & 1:
                f = _X
            if (self.z >> q) & 1:
                f = f @ _Z if f is not _I2 else _Z
            m = np.kron(m, f)
        return _PHASE[self.phase] * m

    # -- misc ---------------------------------------------------------
    def key(self) -> tuple:
        return (self.phase, self.x, self.z)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliOp)
            and self.n == other.n
            and self.key() == other.key()
        )

    def __hash__(self) -> int:
        return hash((self.n,) + self.key())

    def __repr__(self) -> str:
        y = self.x & self.z
        disp = (self.phase + 3 * y.bit_count()) & 3
        prefix = ("+", "+i", "-", "-i")[disp]
        return prefix + "".join(
            "IXZY"[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)] for q in range(self.n)
        )


def pauli_expectation(psi: StateVector, p: PauliOp) -> complex:
    """<psi|P|psi>; real for Hermitian P."""
    if p.n != psi.n_qubits:
        raise PauliError("Pauli/state size mismatch")
    val = complex(np.vdot(psi.amplitudes, p.apply(psi.amplitudes)))
    return val.real if p.is_hermitian() else val


# ----------------------------------------------------------------------
# Clifford tableau
# ----------------------------------------------------------------------

class CliffordElement:
    """Clifford stored by its conjugation images of X_j and Z_j.

    ``images[j]`` is C X_j C^dag for j < n and C Z_{j-n} C^dag for j >= n.
    All images are Hermitian Paulis; no global phase is represented.
    """

    __slots__ = ("n", "images")

    def __init__(self, n: int, images):
        if len(images) != 2 * n:
            raise PauliError(f"expected {2*n} generator images")
        for img in images:
            if img.n != n:
                raise PauliError("image size mismatch")
            if not img.is_hermitian():
                raise PauliError("generator image must be Hermitian")
        self.n = n
        self.images = tuple(images)

    @staticmethod
    def identity(n: int) -> "CliffordElement":
        return qubit_permutation_clifford(range(n), n)

    # -- symplectic form ----------------------------------------------
    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n binary matrix; row j = (x-bits, z-bits) of images[j]."""
        _, _, x, z = _as_batch(self)
        q = np.arange(self.n)
        return np.hstack(((x[0, :, None] >> q) & 1, (z[0, :, None] >> q) & 1)).astype(np.uint8)

    def is_symplectic(self) -> bool:
        n = self.n
        m = self.symplectic_matrix().astype(int)
        omega = np.block(
            [[np.zeros((n, n), int), np.eye(n, dtype=int)], [np.eye(n, dtype=int), np.zeros((n, n), int)]]
        )
        return bool(np.array_equal((m @ omega @ m.T) % 2, omega))

    # -- action --------------------------------------------------------
    def conjugate(self, p: PauliOp) -> PauliOp:
        """C P C^dag via exact phase-tracked generator products."""
        if p.n != self.n:
            raise PauliError("size mismatch in conjugation")
        out = PauliOp(self.n, p.phase, 0, 0)
        for q in range(self.n):
            if (p.x >> q) & 1:
                out = out * self.images[q]
        for q in range(self.n):
            if (p.z >> q) & 1:
                out = out * self.images[self.n + q]
        return out

    def compose(self, first: "CliffordElement") -> "CliffordElement":
        """self o first, i.e. apply ``first`` then ``self``."""
        if first.n != self.n:
            raise PauliError("size mismatch in composition")
        return CliffordElement(self.n, [self.conjugate(img) for img in first.images])

    def inverse(self) -> "CliffordElement":
        n = self.n
        m = self.symplectic_matrix().astype(int)
        minv = _f2_inverse(m)
        images = []
        for j in range(2 * n):
            x = sum(int(minv[j, q]) << q for q in range(n))
            z = sum(int(minv[j, n + q]) << q for q in range(n))
            cand = PauliOp(n, (x & z).bit_count(), x, z)  # Hermitian rep
            # fix the sign so that C cand C^dag equals the j-th generator
            target = (
                PauliOp.single(n, j, "X") if j < n else PauliOp.single(n, j - n, "Z")
            )
            got = self.conjugate(cand)
            if got.x != target.x or got.z != target.z:
                raise PauliError("symplectic inverse inconsistent")
            if got.phase != target.phase:
                cand = PauliOp(n, cand.phase + 2, cand.x, cand.z)
            images.append(cand)
        return CliffordElement(n, images)

    def key(self) -> tuple:
        return tuple(img.key() for img in self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordElement) and self.n == other.n and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.n,) + self.key())

    def __repr__(self) -> str:
        n = self.n
        xs = " ".join(repr(img) for img in self.images[:n])
        zs = " ".join(repr(img) for img in self.images[n:])
        return f"CliffordElement(X -> {xs}; Z -> {zs})"

    # -- dense action ---------------------------------------------------
    def stabilized_state(self) -> np.ndarray:
        """C|0^n> as a dense vector with canonical phase."""
        return _stabilized_states(_as_batch(self))[0]

    def apply(self, psi: StateVector) -> StateVector:
        """C|psi> under the canonical phase convention, accumulated over
        blocks of basis columns; no d x d array is built."""
        if psi.n_qubits != self.n:
            raise PauliError("size mismatch")
        amps = psi.amplitudes
        cols = np.flatnonzero(amps)
        out = np.zeros(1 << self.n, dtype=complex)
        for walk, _, c in _blocks(_as_batch(self), len(cols)):
            terms = amps[cols[c], None] * _basis_columns(walk, cols[c])[0]
            # an axis-0 sum adds the rows one after another in basis order, so
            # the result depends neither on the block size nor on BLAS
            out = np.vstack((out, terms)).sum(axis=0)
        return StateVector(self.n, out)

    def to_unitary(self) -> UnitaryMatrix:
        """C as a dense matrix under the canonical phase convention; a
        matrix over the ``_DENSE_BUDGET`` byte budget raises PauliError."""
        return UnitaryMatrix(1 << self.n, batch_unitaries(_as_batch(self))[0])

    def is_qubit_permutation(self) -> Optional[tuple]:
        """Return the permutation pi (as a tuple, qubit i -> pi[i]) if the
        tableau maps X_i -> +X_{pi(i)} and Z_i -> +Z_{pi(i)}; else None."""
        n = self.n
        perm = [None] * n
        for i in range(n):
            xi, zi = self.images[i], self.images[n + i]
            if xi.phase != 0 or zi.phase != 0:
                return None
            if xi.z != 0 or zi.x != 0:
                return None
            if xi.x.bit_count() != 1 or zi.z.bit_count() != 1 or xi.x != zi.z:
                return None
            perm[i] = xi.x.bit_length() - 1
        if sorted(perm) != list(range(n)):
            return None
        return tuple(perm)


def _f2_inverse(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    a = np.concatenate([m.astype(np.uint8) % 2, np.eye(n, dtype=np.uint8)], axis=1)
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, n):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            raise PauliError("matrix not invertible over F2")
        a[[row, piv]] = a[[piv, row]]
        for r in range(n):
            if r != row and a[r, col]:
                a[r] ^= a[row]
        row += 1
    return a[:, n:]


# ----------------------------------------------------------------------
# Batched Clifford kernel
# ----------------------------------------------------------------------
# Basis indices put qubit 0 in the most significant bit, so the walk keeps
# its Pauli masks in index space (bit-reversed qubit masks).

_PHASES = np.array(_PHASE)
_BLOCK_ENTRIES = 1 << 14     # entries of one intermediate kernel array
_DENSE_BUDGET = 1 << 28      # bytes allowed for one d x d Clifford unitary


class CliffordBatch(NamedTuple):
    """B Cliffords as (B, 2n) int64 arrays: [b, j] holds the (phase, x, z) of
    row b's image of X_j (j < n) or Z_{j-n} (j >= n), as ``CliffordElement.key``."""

    n: int
    ph: np.ndarray
    x: np.ndarray
    z: np.ndarray


def _as_batch(c: CliffordElement) -> CliffordBatch:
    ph, x, z = np.array(c.key(), dtype=np.int64).reshape(-1, 3).T
    return CliffordBatch(c.n, ph[None], x[None], z[None])


def batch_element(batch: CliffordBatch, b: int) -> CliffordElement:
    """Row ``b`` of a batch as a CliffordElement."""
    n, ph, x, z = batch
    return CliffordElement(n, [PauliOp(n, *t) for t in zip(ph[b].tolist(), x[b].tolist(),
                                                             z[b].tolist())])


def batch_block_size(entries: int) -> int:
    """Cliffords per block that keeps ``entries`` entries each within budget."""
    return max(1, _BLOCK_ENTRIES // entries)


def _pauli_gather(ph, xs, zs, n: int):
    """(src, factor) with (P v)[j] = factor[..., j] * v[src[..., j]] for the
    Paulis P = i^ph X^xs Z^zs (index-space masks, any leading shape), from
    (X^x Z^z v)[j] = (-1)^{|(j ^ x) & z|} v[j ^ x]."""
    src = xs[..., None] ^ np.arange(1 << n)
    return src, _PHASES[(ph[..., None] + 2 * _parity(src & zs[..., None], n)) & 3]


def _stabilized_states(batch: CliffordBatch) -> np.ndarray:
    """C_b|0^n> (canonical phase) for every row, shape (B, d): a fixed start
    vector projected onto the joint +1 eigenspace of the Z images fixes the
    support and the quarter phases, and the amplitudes are set exactly to
    i^k / sqrt(|support|)."""
    n = batch.n
    d = 1 << n
    ph, (xs, zs) = batch.ph[:, n:], _index_masks(np.stack((batch.x[:, n:], batch.z[:, n:])), n)

    def project(v, rows):
        base = d * np.arange(len(v))[:, None]
        for t in range(n):
            src, factor = _pauli_gather(ph[rows, t], xs[rows, t], zs[rows, t], n)
            v = (v + factor * v.ravel()[base + src]) / 2
        return v

    v = project(np.tile(np.exp(0.37j * np.arange(d)), (len(ph), 1)), slice(None))
    for b in np.flatnonzero(np.abs(v).max(axis=1) <= 1e-9):
        # the start vector was orthogonal to this stabilized state
        rng = np.random.default_rng(1)
        while np.abs(v[b]).max() <= 1e-9:
            v[b] = project((rng.normal(size=d) + 1j * rng.normal(size=d))[None], [b])[0]
    mag = np.abs(v)
    support = mag > 0.5 * mag.max(axis=1, keepdims=True)
    quarter = np.rint(np.angle(v) / (np.pi / 2)).astype(np.int64)
    # the first nonzero amplitude is made real positive
    lead = quarter[np.arange(len(v)), support.argmax(axis=1), None]
    amps = _PHASES[(quarter - lead) & 3] / np.sqrt(support.sum(axis=1, keepdims=True))
    return np.where(support, amps, 0)


def _basis_walk(batch: CliffordBatch):
    """(ph, xs, zs, phi0), each (B, d), with C_b|j> = i^ph X^xs Z^zs phi0 for
    every basis index j, phi0 = C_b|0^n> and index-space masks.  Entry
    j + 2^t is entry j times the image of the X generator on index bit t,
    one Pauli product per entry."""
    n = batch.n
    xi, zi = _index_masks(np.stack((batch.x[:, :n], batch.z[:, :n])), n)
    ph = xs = zs = np.zeros((len(xi), 1), dtype=np.int64)
    for g in range(n - 1, -1, -1):
        p, x, z = batch.ph[:, g, None], xi[:, g, None], zi[:, g, None]
        ph = np.hstack((ph, (ph + p + 2 * _parity(zs & x, n)) & 3))
        xs = np.hstack((xs, xs ^ x))
        zs = np.hstack((zs, zs ^ z))
    return ph, xs, zs, _stabilized_states(batch)


def _basis_columns(walk, cols) -> np.ndarray:
    """Entry [b, r] holds C_b|cols[r]>; ``cols`` is an index array or a slice."""
    ph, xs, zs, phi0 = walk
    n = phi0.shape[1].bit_length() - 1
    src, factor = _pauli_gather(ph[:, cols], xs[:, cols], zs[:, cols], n)
    return factor * phi0.ravel()[(np.arange(len(phi0)) << n)[:, None, None] + src]


def _blocks(batch: CliffordBatch, ncols: int):
    """(walk, rows, cols) blocks covering every row of the batch and column
    indices 0..ncols-1.  The walk is built for ``batch_block_size(d)`` rows
    at a time, and no block gathers more than ``_BLOCK_ENTRIES`` entries."""
    n = batch.n
    cstep = max(1, min(ncols, _BLOCK_ENTRIES >> n))
    bstep = batch_block_size(cstep << n)
    wstep = batch_block_size(1 << n)
    for lo in range(0, len(batch.ph), wstep):
        walk = _basis_walk(CliffordBatch(n, *(a[lo:lo + wstep] for a in batch[1:])))
        for b in range(0, len(walk[0]), bstep):
            sub = tuple(a[b:b + bstep] for a in walk)
            for c in range(0, ncols, cstep):
                yield sub, slice(lo + b, lo + b + bstep), slice(c, c + cstep)


def batch_overlaps(batch: CliffordBatch, psi1: StateVector, psi2: StateVector) -> np.ndarray:
    """<psi1|C_b|psi2> for every row b under the canonical phase convention.

    For each nonzero amplitude c of psi2, substituting k = j ^ xs[c] gives
    <psi1|C_b|c> = i^ph[c] sum_k phi0[k] (-1)^{|k & zs[c]|} conj(psi1[k ^ xs[c]]),
    so only psi1, with its signs, is gathered."""
    n = batch.n
    if psi1.n_qubits != n or psi2.n_qubits != n:
        raise PauliError("size mismatch")
    cols = np.flatnonzero(psi2.amplitudes)
    bra = psi1.amplitudes.conj()
    bra, ket, k = np.concatenate((bra, -bra)), psi2.amplitudes[cols], np.arange(1 << n)
    out = np.zeros(len(batch.ph), dtype=complex)
    for (ph, xs, zs, phi0), rows, c in _blocks(batch, len(cols)):
        col = cols[c]
        sign = _parity(zs[:, col, None] & k, n).astype(np.int64) << n
        amps = (bra[(xs[:, col, None] ^ k) | sign] @ phi0[:, :, None])[..., 0]
        out[rows] += (_PHASES[ph[:, col]] * amps) @ ket[c]
    return out


def batch_unitaries(batch: CliffordBatch) -> np.ndarray:
    """The dense matrices of every row, shape (B, d, d), under the canonical
    phase convention; a matrix over the ``_DENSE_BUDGET`` byte budget raises
    PauliError."""
    n = batch.n
    d = 1 << n
    if 16 * d * d > _DENSE_BUDGET:
        raise PauliError(f"a {n}-qubit unitary takes {16 * d * d >> 20} MiB, over the "
                         f"{_DENSE_BUDGET >> 20} MiB budget for dense Clifford matrices")
    out = np.empty((len(batch.ph), d, d), dtype=complex)
    for walk, rows, c in _blocks(batch, d):
        out[rows, :, c] = np.swapaxes(_basis_columns(walk, c), 1, 2)
    return out


# ----------------------------------------------------------------------
# Koenig-Smolin indexing and uniform sampling
# ----------------------------------------------------------------------
# Vectors over F2^{2n} are packed into int64 with interleaved coordinates:
# bit 2q is the X part of qubit q, bit 2q + 1 the Z part.

_EVEN_MASK = 0x5555555555555555


def symplectic_group_order(n: int) -> int:
    order = 1 << (n * n)
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
    return order


def clifford_group_order(n: int) -> int:
    """|C_n| modulo global phase."""
    return symplectic_group_order(n) << (2 * n)


def _transvect(k, v, bits: int):
    """T_k v = v + <k, v> k on packed vectors below 2**bits; T_0 is the identity."""
    return v ^ (k * _parity(((v & (k >> 1)) ^ ((v >> 1) & k)) & _EVEN_MASK, bits))


def _transvections_from_e1(f):
    """(h0, h1) with f = T_{h0} T_{h1} e1 for every entry of f: Koenig-Smolin
    Lemma 2 at x = e1, in closed form."""
    # f & 3 == 0: z = Z_0 + w_q on the lowest nonzero qubit pair q of f, with
    # w_q = X_q where f has Z_q, else Z_q
    low = (f & -f).astype(float)
    bit = (np.frexp(low)[1] - 1) & ~1
    z = 2 | (np.where((f >> bit) & 3 == 2, 1, 2) << bit)
    cases = [f == 1, (f & 2) != 0, (f & 3) == 1]
    return (np.select(cases, [0, f ^ 1, 2], 1 ^ z),
            np.select(cases, [0, 0, f ^ 3], f ^ z))


def _symplectic_rows(indices, n: int) -> np.ndarray:
    """(B, 2n) packed rows of the elements of Sp(2n, F2) with the given
    Koenig-Smolin indices.  The per-level digits come from Python divmod (an
    index exceeds int64 at n >= 6); the transvections run over the batch."""
    radices = [((1 << (2 * m)) - 1, 1 << (2 * m - 1)) for m in range(n, 0, -1)]
    digits = []
    for i in indices:
        for s, t in radices:
            i, f1 = divmod(i, s)
            i, bits = divmod(i, t)
            digits += (f1 + 1, bits)
    digits = np.array(digits, dtype=np.int64).reshape(-1, n, 2)
    rows = np.zeros((len(digits), 0), dtype=np.int64)
    # the innermost level acts on the last qubit; each outer level shifts the
    # rows up by one qubit, prepends X_0 and Z_0 (packed 1 and 2) and
    # transvects every row
    for m in range(1, n + 1):
        f1, bits = digits[:, n - m].T
        h0, h1 = _transvections_from_e1(f1)
        e = _transvect(h0, _transvect(h1, 1 | ((bits >> 1) << 2), 2 * m), 2 * m)
        rows = np.hstack((np.broadcast_to([[1, 2]], (len(rows), 2)), rows << 2))
        for k in (h1, h0, e, np.where(bits & 1, 0, f1)):
            rows = _transvect(k[:, None], rows, 2 * m)
    return rows


def _rows_to_batch(rows: np.ndarray, signs: np.ndarray, n: int) -> CliffordBatch:
    """Generator j reads packed row 2 (j mod n) + j // n and sign bit j."""
    rows = rows[:, np.r_[0:2 * n:2, 1:2 * n:2]]
    x = z = np.zeros_like(rows)
    for q in range(n):
        x = x | ((rows >> (2 * q)) & 1) << q
        z = z | ((rows >> (2 * q + 1)) & 1) << q
    ph = _parity(x & z, n) + 2 * ((signs[:, None] >> np.arange(2 * n)) & 1)
    return CliffordBatch(n, ph, x, z)


def _batch_range(n: int, lo: int, hi: int) -> CliffordBatch:
    """Elements lo..hi-1 of the enumeration order, where element e has the
    symplectic index e >> 2n and the sign bits e mod 4^n."""
    k = 2 * n
    first = lo >> k
    rows = _symplectic_rows(range(first, ((hi - 1) >> k) + 1), n)
    e = np.arange(lo, hi)
    return _rows_to_batch(rows[(e >> k) - first], e & ((1 << k) - 1), n)


def clifford_batches(n: int, size: int, allow_large: bool = False) -> Iterator[CliffordBatch]:
    """The elements of ``enumerate_cliffords``, in its order, as batches of
    at most ``size`` rows."""
    if n > 3 or (n == 3 and not allow_large):
        raise PauliError("enumeration supported for n <= 2 (n = 3 behind allow_large)")
    total = clifford_group_order(n)
    for lo in range(0, total, size):
        yield _batch_range(n, lo, min(lo + size, total))


def enumerate_cliffords(n: int, allow_large: bool = False) -> Iterator[CliffordElement]:
    """Every Clifford modulo global phase, exactly once.

    Counts: 24 at n=1, 11520 at n=2.  n=3 (about 9.3e7 elements) must be
    explicitly enabled with ``allow_large``.
    """
    for batch in clifford_batches(n, 1 << 10, allow_large):
        yield from (batch_element(batch, b) for b in range(len(batch.ph)))


def _random_symplectic_index(rng: np.random.Generator, order: int) -> int:
    """Uniform index below the symplectic group order, which can exceed
    the int64 range of Generator.integers at n >= 6."""
    if order < (1 << 62):
        return int(rng.integers(order))
    chunks = (order.bit_length() + 64 + 31) // 32
    i = 0
    for _ in range(chunks):
        i = (i << 32) | int(rng.integers(1 << 32))
    return i % order


def _draw(rng: np.random.Generator, n: int, count: int):
    """Packed rows and sign bits of ``count`` uniform Cliffords; each draws
    its symplectic index, then its signs."""
    order, indices, signs = symplectic_group_order(n), [], []
    for _ in range(count):
        indices.append(_random_symplectic_index(rng, order))
        signs.append(int(rng.integers(1 << (2 * n))))
    return _symplectic_rows(indices, n), np.array(signs, dtype=np.int64)


def random_clifford_batch(n: int, rng: np.random.Generator, count: int) -> CliffordBatch:
    """``count`` uniform Cliffords modulo phase, making the draws of
    ``count`` successive ``random_clifford(n, rng)`` calls."""
    return _rows_to_batch(*_draw(rng, n, count), n)


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniform Clifford modulo global phase, reproducible under the seed.

    ``seed`` may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return batch_element(random_clifford_batch(n, rng, 1), 0)


# ----------------------------------------------------------------------
# Graph states and |R> gadgets
# ----------------------------------------------------------------------

def r_state() -> StateVector:
    """(|0> + e^{i pi/8} |1>)/sqrt(2)."""
    return StateVector(1, np.array([1, np.exp(1j * np.pi / 8)]) / math.sqrt(2))


def r_minus_state() -> StateVector:
    """(|0> - e^{i pi/8} |1>)/sqrt(2)."""
    return StateVector(1, np.array([1, -np.exp(1j * np.pi / 8)]) / math.sqrt(2))


def r_state_product(n: int) -> StateVector:
    amps = np.ones(1, dtype=complex)
    single = r_state().amplitudes
    for _ in range(n):
        amps = np.kron(amps, single)
    return StateVector(n, amps)


def graph_state(g) -> StateVector:
    """CZ over the edges applied to |+>^n."""
    n = g.n
    amps = np.full(1 << n, 1.0 / math.sqrt(1 << n), dtype=complex)
    idx = np.arange(1 << n)
    for u, v in g.edges:
        bu = (idx >> (n - 1 - u)) & 1
        bv = (idx >> (n - 1 - v)) & 1
        amps = amps * np.where(bu & bv, -1.0, 1.0)
    return StateVector(n, amps)


def graph_stabilizer(g, v: int) -> PauliOp:
    """K_v = X_v prod_{w ~ v} Z_w for a graph state."""
    p = PauliOp.single(g.n, v, "X")
    for u, w in g.edges:
        if v == u:
            p = p * PauliOp.single(g.n, w, "Z")
        elif v == w:
            p = p * PauliOp.single(g.n, u, "Z")
    return p


def qubit_permutation_clifford(perm, n: int) -> CliffordElement:
    """The Clifford sending qubit i to qubit perm[i]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(n)):
        raise PauliError(f"not a permutation of range({n}): {perm}")
    imgs = [PauliOp.single(n, perm[q], "X") for q in range(n)]
    imgs += [PauliOp.single(n, perm[q], "Z") for q in range(n)]
    return CliffordElement(n, imgs)


def r_state_pauli_expectation(p: PauliOp) -> float:
    """<R^n|P|R^n> from the product rule: s * 0^{#Z} cos(pi/8)^{#X} sin(pi/8)^{#Y}."""
    nx, ny, nz = p.weight_counts()
    if nz > 0:
        return 0.0
    y = p.x & p.z
    disp = (p.phase + 3 * y.bit_count()) & 3
    if disp % 2 == 1:
        # an odd i power cannot occur for Hermitian strings
        raise PauliError("expectation of non-Hermitian Pauli requested")
    s = 1.0 if disp == 0 else -1.0
    return s * (COS8**nx) * (SIN8**ny)


def r_overlap_sq(c: CliffordElement) -> float:
    """|<R^n| C |R^n>|^2, the batch kernel at B=1."""
    return float(batch_r_overlap_sq(_as_batch(c))[0])


def batch_r_overlap_sq(batch: CliffordBatch) -> np.ndarray:
    """|<R^n| C_b |R^n>|^2 for every row b, from the Pauli coefficient expansion.

    Uses |R><R| = (I + cos(pi/8) X + sin(pi/8) Y)/2 per qubit, so only the
    3^n strings P over {I, X, Y} contribute, each with its coefficient times
    <R^n|C P C^dag|R^n>; the conjugated strings are built one qubit at a
    time as (B, 3^k) arrays with exact phases mod 4."""
    n, ph, x, z = batch
    ps = xs = zs = np.zeros((len(ph), 1), dtype=np.int64)
    coef = np.ones(1)
    for q in range(n):
        # the images of X_q and of Y_q = i X_q Z_q
        px, xx, zx = ph[:, q, None], x[:, q, None], z[:, q, None]
        pz, xz, zz = ph[:, n + q, None], x[:, n + q, None], z[:, n + q, None]
        py = (1 + px + pz + 2 * _parity(zx & xz, n)) & 3
        # extend every partial product with I, X_q or Y_q
        ps = np.hstack((ps, (ps + px + 2 * _parity(zs & xx, n)) & 3,
                        (ps + py + 2 * _parity(zs & (xx ^ xz), n)) & 3))
        xs = np.hstack((xs, xs ^ xx, xs ^ xx ^ xz))
        zs = np.hstack((zs, zs ^ zx, zs ^ zx ^ zz))
        coef = np.concatenate((coef, COS8 * coef, SIN8 * coef))
    # <R^n|P|R^n> = s 0^{#Z} cos(pi/8)^{#X} sin(pi/8)^{#Y} for P = s X..Y..
    ny = _popcount(xs & zs, n)
    sign = 1 - ((ps + 3 * ny) & 3)      # phase 0 or 2 on every string without Z
    val = coef * sign * COS8 ** (_popcount(xs, n) - ny) * SIN8 ** ny
    return np.where((zs & ~xs) == 0, val, 0.0).sum(axis=1) / (1 << n)
