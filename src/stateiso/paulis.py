"""Symplectic Pauli algebra and tableau Cliffords.

A Pauli is stored as ``i^phase * X^x Z^z`` with ``x``, ``z`` bitmasks
(bit i = qubit i) and the phase exponent tracked exactly mod 4.  A
Clifford is stored by its conjugation images of the generators
X_0..X_{n-1}, Z_0..Z_{n-1}; no global phase is carried.

There is one sampler and one dense action.  Cliffords are indexed in the
Koenig-Smolin order (J. Math. Phys. 55, 122202, 2014) on symplectic rows
packed into ints; ``enumerate_cliffords`` walks the indices and
``random_clifford`` / ``random_clifford_rows`` draw one.  The action reads
C|b> = P_b C|0^n>, where P_b is the product of the X-generator images
selected by the bits of b, so a walk over the basis that multiplies in one
image per step tabulates every column.  ``stabilized_state``, ``apply``
and ``to_unitary`` all read that walk.  Phase convention: C|0^n> is fixed
by making its first nonzero amplitude real positive, so the first nonzero
entry of column 0 of ``to_unitary`` is real positive.
"""
from __future__ import annotations

import math
from typing import Iterator, Optional

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


def _parity_table(bits: int) -> np.ndarray:
    tab = np.zeros(1 << bits, dtype=np.int8)
    for i in range(1, 1 << bits):
        tab[i] = tab[i >> 1] ^ (i & 1)
    return tab


_PARITY16 = _parity_table(16)


def _parity(v: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the popcount of each entry of an int array below 2**bits."""
    out = _PARITY16[v & 0xFFFF]
    for shift in range(16, bits, 16):
        out ^= _PARITY16[(v >> shift) & 0xFFFF]
    return out


def _revbits(v: int, n: int) -> int:
    out = 0
    for i in range(n):
        if v >> i & 1:
            out |= 1 << (n - 1 - i)
    return out


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
        xi = _revbits(self.x, n)
        zi = _revbits(self.z, n)
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
        imgs = [PauliOp.single(n, q, "X") for q in range(n)]
        imgs += [PauliOp.single(n, q, "Z") for q in range(n)]
        return CliffordElement(n, imgs)

    # -- symplectic form ----------------------------------------------
    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n binary matrix; row j = (x-bits, z-bits) of images[j]."""
        n = self.n
        m = np.zeros((2 * n, 2 * n), dtype=np.uint8)
        for j, img in enumerate(self.images):
            for q in range(n):
                m[j, q] = (img.x >> q) & 1
                m[j, n + q] = (img.z >> q) & 1
        return m

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
        return _stabilized_state(self.key(), self.n)

    def apply(self, psi: StateVector) -> StateVector:
        """C|psi> under the canonical phase convention, accumulated over
        blocks of basis columns; no d x d array is built."""
        if psi.n_qubits != self.n:
            raise PauliError("size mismatch")
        amps = psi.amplitudes
        walk = _basis_walk(self.key(), self.n)
        cols = np.flatnonzero(amps)
        step = max(1, _BLOCK_ENTRIES >> self.n)
        out = np.zeros(1 << self.n, dtype=complex)
        for lo in range(0, len(cols), step):
            block = cols[lo:lo + step]
            terms = amps[block, None] * _basis_columns(walk, block)
            # an axis-0 sum adds the rows one after another in basis order, so
            # the result depends neither on the block size nor on BLAS
            out = np.vstack((out, terms)).sum(axis=0)
        return StateVector(self.n, out)

    def to_unitary(self) -> UnitaryMatrix:
        """C as a dense matrix under the canonical phase convention; a
        matrix over the ``_DENSE_BUDGET`` byte budget raises PauliError."""
        n = self.n
        d = 1 << n
        if 16 * d * d > _DENSE_BUDGET:
            raise PauliError(
                f"a {n}-qubit unitary takes {16 * d * d >> 20} MiB, over the "
                f"{_DENSE_BUDGET >> 20} MiB budget for dense Clifford matrices")
        walk = _basis_walk(self.key(), n)
        step = max(1, _BLOCK_ENTRIES >> n)
        u = np.empty((d, d), dtype=complex)
        for lo in range(0, d, step):
            u[:, lo:lo + step] = _basis_columns(walk, slice(lo, lo + step)).T
        return UnitaryMatrix(d, u)

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
# Dense action kernel
# ----------------------------------------------------------------------
# Basis indices put qubit 0 in the most significant bit, so the walk keeps
# its Pauli masks in index space (bit-reversed qubit masks).

_PHASES = np.array(_PHASE)
_BLOCK_ENTRIES = 1 << 14     # dense entries built at once by apply / to_unitary
_DENSE_BUDGET = 1 << 28      # bytes allowed for one d x d Clifford unitary


def _pauli_gather(ph, xs, zs, n: int):
    """(src, factor) with (P_r v)[j] = factor[r, j] * v[src[r, j]] for the
    Paulis P_r = i^ph[r] X^xs[r] Z^zs[r] (index-space masks), from
    (X^x Z^z v)[j] = (-1)^{|(j ^ x) & z|} v[j ^ x]."""
    src = xs[:, None] ^ np.arange(1 << n)
    return src, _PHASES[(ph[:, None] + 2 * _parity(src & zs[:, None], n)) & 3]


def _stabilized_state(images, n: int) -> np.ndarray:
    """C|0^n> (canonical phase) from raw Z-generator image triples.

    A fixed start vector projected onto the joint +1 eigenspace of the
    Z images fixes the support and the quarter phases; the amplitudes are
    then set exactly to i^k / sqrt(|support|).
    """
    ph, xs, zs = np.array([(p, _revbits(x, n), _revbits(z, n)) for p, x, z in images[n:]]).T
    src, factor = _pauli_gather(ph, xs, zs, n)
    v = np.exp(0.37j * np.arange(1 << n))
    rng = None
    while True:
        for s, f in zip(src, factor):
            v = (v + f * v[s]) / 2
        mag = np.abs(v)
        if mag.max() > 1e-9:
            break
        # the start vector was orthogonal to the stabilized state
        rng = rng or np.random.default_rng(1)
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    support = mag > 0.5 * mag.max()
    quarter = np.rint(np.angle(v[support]) / (np.pi / 2)).astype(int)
    out = np.zeros(1 << n, dtype=complex)
    # the first nonzero amplitude is made real positive
    out[support] = _PHASES[(quarter - quarter[0]) & 3] / math.sqrt(len(quarter))
    return out


def _basis_walk(images, n: int):
    """(ph, xs, zs, phi0) with C|b> = i^ph[b] X^xs[b] Z^zs[b] phi0 for every
    basis index b, where phi0 = C|0^n> and the masks are in index space.

    The walk visits b in binary order: entry b + 2^t is entry b times the
    image of the X generator on index bit t, one Pauli product per entry.
    """
    ph, xs, zs = [0], [0], [0]
    for t in range(n):
        p, x, z = images[n - 1 - t]
        x, z = _revbits(x, n), _revbits(z, n)
        ph += [(q + p + 2 * (w & x).bit_count()) & 3 for q, w in zip(ph, zs)]
        xs += [w ^ x for w in xs]
        zs += [w ^ z for w in zs]
    return np.array(ph), np.array(xs), np.array(zs), _stabilized_state(images, n)


def _basis_columns(walk, cols) -> np.ndarray:
    """Row r holds C|cols[r]>; ``cols`` is an index array or a slice."""
    ph, xs, zs, phi0 = walk
    src, factor = _pauli_gather(ph[cols], xs[cols], zs[cols], len(phi0).bit_length() - 1)
    return factor * phi0[src]


# ----------------------------------------------------------------------
# Koenig-Smolin indexing and uniform sampling
# ----------------------------------------------------------------------
# Vectors over F2^{2n} are packed into ints with interleaved coordinates:
# bit 2q is the X part of qubit q, bit 2q + 1 the Z part.

_EVEN_MASK = sum(1 << (2 * q) for q in range(32))
# byte -> (its even bits, its odd bits), each packed into a nibble
_SPLIT = tuple(
    (sum((b >> (2 * q) & 1) << q for q in range(4)),
     sum((b >> (2 * q + 1) & 1) << q for q in range(4)))
    for b in range(256)
)


def symplectic_group_order(n: int) -> int:
    order = 1 << (n * n)
    for j in range(1, n + 1):
        order *= (1 << (2 * j)) - 1
    return order


def clifford_group_order(n: int) -> int:
    """|C_n| modulo global phase."""
    return symplectic_group_order(n) << (2 * n)


def _inner_int(v: int, w: int) -> int:
    return (((v & (w >> 1)) ^ ((v >> 1) & w)) & _EVEN_MASK).bit_count() & 1


def _transvection_int(k: int, v: int) -> int:
    return v ^ k if _inner_int(k, v) else v


def _find_transvection_int(x: int, y: int, n: int):
    """h0, h1 with y = T_{h0} T_{h1} x (Koenig-Smolin Lemma 2)."""
    if x == y:
        return 0, 0
    if _inner_int(x, y):
        return x ^ y, 0
    z = 0
    for q in range(n):
        xp = (x >> (2 * q)) & 3
        yp = (y >> (2 * q)) & 3
        if xp and yp:
            zp = xp ^ yp
            if zp == 0:
                zp = 2
                if (xp & 1) != (xp >> 1):
                    zp = 3
            z = zp << (2 * q)
            return x ^ z, y ^ z
    for q in range(n):
        xp = (x >> (2 * q)) & 3
        yp = (y >> (2 * q)) & 3
        if xp and not yp:
            if (xp & 1) == (xp >> 1):
                z |= 2 << (2 * q)
            else:
                z |= ((xp & 1) << 1 | (xp >> 1)) << (2 * q)
            break
    for q in range(n):
        xp = (x >> (2 * q)) & 3
        yp = (y >> (2 * q)) & 3
        if yp and not xp:
            if (yp & 1) == (yp >> 1):
                z |= 2 << (2 * q)
            else:
                z |= ((yp & 1) << 1 | (yp >> 1)) << (2 * q)
            break
    return x ^ z, y ^ z


def _symplectic_rows_int(i: int, n: int):
    """Rows of the i-th element of Sp(2n, F2) in the Koenig-Smolin order,
    as packed ints."""
    nn = 2 * n
    s = (1 << nn) - 1
    f1 = (i % s) + 1
    i //= s
    t0, t1 = _find_transvection_int(1, f1, n)
    bits = i % (1 << (nn - 1))
    i >>= nn - 1
    eprime = 1 | ((bits >> 1) << 2)
    h0 = _transvection_int(t1, eprime)
    h0 = _transvection_int(t0, h0)
    if bits & 1:
        f1 = 0
    if n == 1:
        rows = [1, 2]
    else:
        rows = [1, 2] + [r << 2 for r in _symplectic_rows_int(i, n - 1)]
    out = []
    for r in rows:
        r = _transvection_int(t1, r)
        r = _transvection_int(t0, r)
        r = _transvection_int(h0, r)
        if f1:
            r = _transvection_int(f1, r)
        out.append(r)
    return out


def _rows_to_images(rows, signs: int, n: int):
    """(phase, x, z) triples for generators X_0..X_{n-1}, Z_0..Z_{n-1}."""
    images = []
    for j in range(2 * n):
        row = rows[2 * (j % n) + (j // n)]
        x = z = 0
        for q in range(0, n, 4):
            bx, bz = _SPLIT[(row >> (2 * q)) & 0xFF]
            x |= bx << q
            z |= bz << q
        phase = ((x & z).bit_count() & 1) + 2 * ((signs >> j) & 1)
        images.append((phase, x, z))
    return images


def rows_to_clifford(rows, signs: int, n: int) -> CliffordElement:
    return CliffordElement(
        n, [PauliOp(n, p, x, z) for p, x, z in _rows_to_images(rows, signs, n)]
    )


def enumerate_cliffords(n: int, allow_large: bool = False) -> Iterator[CliffordElement]:
    """Every Clifford modulo global phase, exactly once.

    Counts: 24 at n=1, 11520 at n=2.  n=3 (about 9.3e7 elements) must be
    explicitly enabled with ``allow_large``.
    """
    if n > 3 or (n == 3 and not allow_large):
        raise PauliError("enumeration supported for n <= 2 (n = 3 behind allow_large)")
    for i in range(symplectic_group_order(n)):
        rows = _symplectic_rows_int(i, n)
        for signs in range(1 << (2 * n)):
            yield rows_to_clifford(rows, signs, n)


def _random_symplectic_index(rng: np.random.Generator, n: int) -> int:
    """Uniform index below the symplectic group order, which can exceed
    the int64 range of Generator.integers at n >= 6."""
    order = symplectic_group_order(n)
    if order < (1 << 62):
        return int(rng.integers(order))
    chunks = (order.bit_length() + 64 + 31) // 32
    i = 0
    for _ in range(chunks):
        i = (i << 32) | int(rng.integers(1 << 32))
    return i % order


def _draw_rows(rng: np.random.Generator, n: int):
    i = _random_symplectic_index(rng, n)
    signs = int(rng.integers(1 << (2 * n)))
    return _symplectic_rows_int(i, n), signs


def random_clifford_rows(rng: np.random.Generator, n: int):
    """(rows, signs) of a uniform Clifford modulo phase; packed-int form."""
    return _draw_rows(rng, n)


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniform Clifford modulo global phase, reproducible under the seed.

    ``seed`` may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    rows, signs = _draw_rows(rng, n)
    return rows_to_clifford(rows, signs, n)


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
    """|<R^n| C |R^n>|^2 from the Pauli coefficient expansion.

    Uses |R><R| = (I + cos(pi/8) X + sin(pi/8) Y)/2 per qubit, so only the
    3^n strings over {I, X, Y} contribute.
    """
    return r_overlap_sq_images(c.key(), c.n)


def r_overlap_sq_images(images, n: int) -> float:
    """Fast-path overlap from raw (phase, x, z) generator image triples."""
    # conjugated single-qubit X and Y = i X Z images per qubit
    gens = []
    for q in range(n):
        px, xx, zx = images[q]
        pz, xz, zz = images[n + q]
        py = (1 + px + pz + 2 * (zx & xz).bit_count()) & 3
        gens.append(((px, xx, zx, COS8), (py, xx ^ xz, zx ^ zz, SIN8)))
    total = 1.0  # the identity term
    stack = [(0, 0, 0, 0, 1.0)]
    while stack:
        q, p, x, z, coef = stack.pop()
        if q == n:
            continue
        # extend the partial product with I, X_q or Y_q on qubit q
        stack.append((q + 1, p, x, z, coef))
        for gp, gx, gz, w in gens[q]:
            np_ = (p + gp + 2 * (z & gx).bit_count()) & 3
            nx, nz = x ^ gx, z ^ gz
            ncoef = coef * w
            stack.append((q + 1, np_, nx, nz, ncoef))
            if nz & ~nx == 0:
                y = nx & nz
                disp = (np_ + 3 * y.bit_count()) & 3
                val = COS8 ** (nx & ~y).bit_count() * SIN8 ** y.bit_count()
                total += ncoef * (val if disp == 0 else -val)
    return total / (1 << n)

