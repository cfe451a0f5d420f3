"""Symplectic Pauli algebra and tableau Cliffords.

A Pauli is stored as ``i^phase * X^x Z^z`` with ``x``, ``z`` bitmasks
(bit i = qubit i) and the phase exponent tracked exactly mod 4.

A Clifford has one format, packed tableau rows: a ``CliffordBatch`` holds
B Cliffords as (B, 2n) int64 arrays of the (phase, x, z) images of the
generators X_0..X_{n-1}, Z_0..Z_{n-1} under conjugation; no global phase
is carried.  A ``CliffordElement`` is a batch of one row.  ``compose`` and
``inverse`` run on the rows (Aaronson-Gottesman, PRA 70, 052328, 2004).
``random_clifford_batch`` and ``clifford_batches`` draw and enumerate
Cliffords in the Koenig-Smolin order (J. Math. Phys. 55, 122202, 2014);
``batch_r_overlap_sq``, ``batch_overlaps`` and ``batch_unitaries`` score
and apply them.  The action factors every Clifford as C = F1 H_S F2 with
F1, F2 Hadamard-free (Bravyi-Maslov), found by GF(2) elimination over the
packed masks of a whole block, so C|psi> costs two phase-permutations and
one Hadamard layer, O(n 2^n), and every amplitude of C is an exact quarter
phase over sqrt(2^|S|).  Blocks hold as many Cliffords as keep each
intermediate array within ``_BLOCK_ENTRIES`` entries.  Phase convention:
the first nonzero amplitude of C|0^n> is real positive.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import obs
from .linalg import StateVector, UnitaryMatrix

_PHASE = (1, 1j, -1, -1j)

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_I2 = np.eye(2, dtype=complex)

COS8 = math.cos(math.pi / 8)
SIN8 = math.sin(math.pi / 8)


class PauliError(ValueError):
    pass


# 16-bit popcount and parity tables, built by doubling (entry i + 2^k is
# entry i plus one for i < 2^k) so that no temporary is larger than the
# uint8 table itself
_POP16 = np.zeros(1, dtype=np.uint8)
for _ in range(16):
    _POP16 = np.concatenate((_POP16, _POP16 + 1))
_PAR16 = _POP16 & 1


def _popcount(v: np.ndarray, bits: int) -> np.ndarray:
    """Popcount of each entry of a non-negative int array below 2**bits."""
    out = _POP16.take(v if bits <= 16 else v & 0xFFFF)
    for shift in range(16, bits, 16):
        out = out + _POP16.take((v >> shift) & 0xFFFF)
    return out


def _parity(v: np.ndarray, bits: int) -> np.ndarray:
    """Parity of the popcount of each entry of an int array below 2**bits."""
    out = v if bits <= 16 else v & 0xFFFF
    for shift in range(16, bits, 16):
        out = out ^ (v >> shift) & 0xFFFF
    return _PAR16.take(out)


_REV8 = (((np.arange(256)[:, None] >> np.arange(8)) & 1) << np.arange(7, -1, -1)).sum(axis=1)


def _index_masks(v: np.ndarray, n: int) -> np.ndarray:
    """Qubit masks (bit q = qubit q) as basis-index masks (qubit 0 = most
    significant bit), reversed a byte at a time."""
    out = _REV8.take(v & 255)
    for k in range(8, n, 8):
        out = out << 8 | _REV8.take(v >> k & 255)
    return out >> (-n % 8)


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

class CliffordBatch(NamedTuple):
    """B Cliffords as (B, 2n) int64 arrays: [b, j] holds the (phase, x, z) of
    row b's image i^phase X^x Z^z of X_j (j < n) or Z_{j-n} (j >= n) under
    conjugation.  Every image is Hermitian; no global phase is represented."""

    n: int
    ph: np.ndarray
    x: np.ndarray
    z: np.ndarray

    def row(self, b: int) -> "CliffordElement":
        """Row ``b`` as a CliffordElement, a one-row slice of the arrays."""
        return CliffordElement(self.n, *(a[b:b + 1] for a in self[1:]))

    def compose(self, first: "CliffordBatch") -> "CliffordBatch":
        """self o first, row by row, i.e. apply ``first`` then ``self``: the
        image i^p X^u Z^v of ``first`` becomes i^p times the product of the
        images of ``self`` that the bits of u | v << n select."""
        n = self.n
        if first.n != n:
            raise PauliError("size mismatch in composition")
        sel = first.x | first.z << n
        on = (sel[:, :, None] >> np.arange(2 * n)) & 1
        x = np.bitwise_xor.reduce(on * self.x[:, None], axis=2)
        z = np.bitwise_xor.reduce(on * self.z[:, None], axis=2)
        ph = first.ph + _product_phases(_index_masks(sel.T, 2 * n), self.ph.T,
                                        self.x.T, self.z.T, n).T
        return type(self)(n, ph & 3, x, z)

    def inverse(self) -> "CliffordBatch":
        """The inverse of every row."""
        n = self.n
        # a symplectic M has the inverse Omega M^T Omega, Omega = [[0, I], [I, 0]]:
        # t[b, i, j] is bit j + n (mod 2n) of the packed row x | z << n of image i
        t = np.roll((self.x | self.z << n)[:, :, None] >> np.arange(2 * n) & 1, n, axis=2)
        q = (1 << np.arange(n))[:, None]
        x, z = (t[:, n:] * q).sum(axis=1), (t[:, :n] * q).sum(axis=1)
        cand = type(self)(n, _parity(x & z, n), x, z)
        # C conjugates each Hermitian candidate to +-(its generator); the
        # phase 2 of a minus sign flips the candidate's sign
        return type(self)(n, (cand.ph + self.compose(cand).ph) & 3, x, z)

    def permutation_mask(self) -> np.ndarray:
        """Whether each row maps X_i -> +X_{pi(i)} and Z_i -> +Z_{pi(i)} for
        a permutation pi of the qubits."""
        n = self.n
        xs = self.x[:, :n]
        # n masks of at most one bit each cover all n qubits only if each
        # holds a distinct one
        single = ((xs == self.z[:, n:]) & ((xs & (xs - 1)) == 0)
                  & ((self.z[:, :n] | self.x[:, n:]) == 0))
        return ((self.ph == 0).all(axis=1) & single.all(axis=1)
                & (np.bitwise_or.reduce(xs, axis=1) == (1 << n) - 1))


class CliffordElement(CliffordBatch):
    """One Clifford: a CliffordBatch of one row, compared and hashed by ``key``."""

    __slots__ = ()

    @staticmethod
    def identity(n: int) -> "CliffordElement":
        return qubit_permutation_clifford(range(n), n)

    # -- symplectic form ----------------------------------------------
    def symplectic_matrix(self) -> np.ndarray:
        """2n x 2n binary matrix; row j = (x-bits, z-bits) of image j."""
        q = np.arange(self.n)
        return np.hstack(((self.x[0, :, None] >> q) & 1,
                          (self.z[0, :, None] >> q) & 1)).astype(np.uint8)

    def is_symplectic(self) -> bool:
        n = self.n
        m = self.symplectic_matrix().astype(int)
        omega = np.block(
            [[np.zeros((n, n), int), np.eye(n, dtype=int)], [np.eye(n, dtype=int), np.zeros((n, n), int)]]
        )
        return bool(np.array_equal((m @ omega @ m.T) % 2, omega))

    def key(self) -> tuple:
        """The images as (phase, x, z) triples of Python ints."""
        return tuple(zip(self.ph[0].tolist(), self.x[0].tolist(), self.z[0].tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordElement) and self.n == other.n and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.n,) + self.key())

    def __repr__(self) -> str:
        n = self.n
        images = [repr(PauliOp(n, *t)) for t in self.key()]
        return f"CliffordElement(X -> {' '.join(images[:n])}; Z -> {' '.join(images[n:])})"

    # -- dense action ---------------------------------------------------
    def stabilized_state(self) -> np.ndarray:
        """C|0^n> as a dense vector with canonical phase."""
        return self.apply(StateVector(self.n, np.eye(1, 1 << self.n, dtype=complex)[0])).amplitudes

    def apply(self, psi: StateVector) -> StateVector:
        """C|psi> = F1 H_S F2 |psi> under the canonical phase convention, in
        O(n 2^n): a phase-scatter, one Hadamard layer, a phase-scatter."""
        if psi.n_qubits != self.n:
            raise PauliError("size mismatch")
        f = _factor(self)
        v = np.zeros((1 << self.n, 1), dtype=complex)
        v[f.pi[:, 0], 0] = _PHASES.take(f.a[:, 0]) * psi.amplitudes
        v = _hadamard(v, f.s, self.n)[:, 0] / np.sqrt(1 << f.h[0])
        out = np.empty_like(v)
        out[f.idx[:, 0]] = _PHASES.take(f.phi[:, 0]) * v
        return StateVector(self.n, out)

    def to_unitary(self) -> UnitaryMatrix:
        """C as a dense matrix under the canonical phase convention; a
        matrix over the ``_DENSE_BUDGET`` byte budget raises PauliError."""
        return UnitaryMatrix(1 << self.n, batch_unitaries(self)[0])

    def is_qubit_permutation(self) -> Optional[tuple]:
        """Return the permutation pi (as a tuple, qubit i -> pi[i]) if the
        tableau maps X_i -> +X_{pi(i)} and Z_i -> +Z_{pi(i)}; else None."""
        if not self.permutation_mask()[0]:
            return None
        return tuple(v.bit_length() - 1 for v in self.x[0, :self.n].tolist())


# ----------------------------------------------------------------------
# Batched Clifford kernel
# ----------------------------------------------------------------------
# Basis indices put qubit 0 in the most significant bit, so the kernel keeps
# its Pauli masks in index space (bit-reversed qubit masks).
#
# The action factors each Clifford as C = F1 H_S F2 (Bravyi-Maslov, IEEE
# TIT 67(7), 2021): H_S is a Hadamard on every qubit of a set S, and F1, F2
# are Hadamard-free, so each maps a basis state to a quarter phase times a
# basis state (Dehaene-De Moor, PRA 68, 042318, 2003).  With
# F1|z> = i^phi[z] |idx[z]> and F2|j> = i^a[j] |pi[j]>,
#   C|j> = 2^{-h/2} sum_{z ^ pi[j] in S} i^{phi[z] + a[j] + 2 |z & pi[j]|} |idx[z]>,
# h = |S|, so C|psi> costs two phase-gathers and one Hadamard layer.

_PHASES = np.array(_PHASE)
_BLOCK_ENTRIES = 1 << 14     # entries of one intermediate kernel array
_DENSE_BUDGET = 1 << 28      # bytes allowed for one d x d unitary or one block's |R> tables


def batch_block_size(entries: int) -> int:
    """Cliffords per block that keeps ``entries`` entries each within budget."""
    return max(1, _BLOCK_ENTRIES // entries)


def _walk(ph, x, z, n: int):
    """(phase, index), each (d, B): F|j> = i^phase[j] |index[j]> for the
    Hadamard-free F with F|0^n> = |0^n> whose image of X_q is i^ph X^x Z^z
    at [q].  Entry j + 2^t is entry j times the image of the X generator on
    index bit t, one Pauli product per entry."""
    p, xs, zs = np.zeros((3, 1 << n, x.shape[1]), dtype=np.int64)
    for t in range(n):
        lo, hi, g = slice(0, 1 << t), slice(1 << t, 2 << t), n - 1 - t
        p[hi] = p[lo] + ph[g] + 2 * _parity(zs[lo] & x[g], n)
        np.bitwise_xor(xs[lo], x[g], out=xs[hi])
        np.bitwise_xor(zs[lo], z[g], out=zs[hi])
    return p & 3, xs


def _product_phases(sel, ph, x, z, n: int):
    """Phase exponents of the products, in the order of q, of the n-qubit
    Paulis i^ph X^x Z^z at [q], q < m = len(ph), that the m-bit masks
    ``sel[k]`` select (bit m - 1 - q selects [q]): the sum of their phases
    plus 2 |z_q & x_q'| over the selected pairs q < q'."""
    m = len(ph)
    bits = 1 << np.arange(m - 1, -1, -1)
    # anti[q]: selector mask of the q' > q with |z_q & x_q'| odd
    later = bits * (np.arange(m)[:, None] < np.arange(m))
    anti = (_parity(z[:, None] & x, n) * later[..., None]).sum(axis=1)
    on = (sel[:, None] & bits[:, None]) != 0
    pairs = on & _parity(sel[:, None] & anti, m)
    return (on * ph).sum(axis=1) + 2 * pairs.sum(axis=1, dtype=np.int64)


class _Factors(NamedTuple):
    """C = F1 H_S F2 for every column b of a block: F1|z> = i^phi[z] |idx[z]>,
    F2|j> = i^a[j] |pi[j]> (each (d, B)), s the index mask of S and h = |S|.
    C|0^n> has its first nonzero amplitude at idx[0], real positive."""

    phi: np.ndarray
    idx: np.ndarray
    a: np.ndarray
    pi: np.ndarray
    s: np.ndarray
    h: np.ndarray


def _factor(batch: CliffordBatch) -> _Factors:
    """Factor every row as C = F1 H_S F2, by GF(2) elimination over the
    packed masks of the batch.  Arrays keep the batch on their last axis."""
    n = batch.n
    d = 1 << n
    if 3 * n > 63:
        raise PauliError(f"the Clifford kernel packs 3n bits per row; n={n} is too large")
    bits = (1 << np.arange(n - 1, -1, -1))[:, None]     # index bit of each qubit
    cols = np.arange(len(batch.ph))
    x, z = _index_masks(np.stack((batch.x.T, batch.z.T)), n)
    # The Z images generate the stabilizer group of C|0^n>.  Gauss-Jordan
    # elimination of their X parts, highest index bit first, on packed rows
    # x | z << n | r << 2n (r marks the images whose product the row is)
    # leaves h rows i^p X^G Z^v whose G are in reduced echelon form with
    # pivot qubits S, and n - h rows +-Z^w.  The candidates for the pivot of bit t
    # are the rows whose highest X bit is t; a missing pivot is the identity
    # row, so that step changes nothing for that Clifford.
    w = x[n:] | z[n:] << n | bits << 2 * n
    s = np.zeros_like(cols)
    pivot_row = np.zeros_like(w)
    for q in range(n):
        t = n - 1 - q
        high = w >> t
        cand = high & ((d - 1) >> t) == 1
        piv = cand.argmax(axis=0)
        found = cand[piv, cols]
        pw = found * w[piv, cols]
        has = high & 1
        has[piv, cols] = 0
        w ^= has * pw
        s |= found << t
        pivot_row[q] = piv
    # every row is a product of commuting Z images, which fixes its phase
    ph = _product_phases(w >> 2 * n, batch.ph[:, n:].T, x[n:], z[n:], n) & 3
    # The support of C|0^n> is x0 + span(G): x0 is the one index outside S
    # with |w & x0| odd exactly for the rows -Z^w, read off a doubling table
    # of those parities over all indices
    zw = (w >> n & (d - 1)) * (w & (d - 1) == 0)
    m = (1 << np.arange(n))[:, None]
    syn = np.empty((d, len(cols)), dtype=np.int64)
    syn[0] = ((ph >> 1) * (zw != 0) * m).sum(axis=0)
    syn_bits = (((zw >> np.arange(n)[:, None, None]) & 1) * m).sum(axis=1)
    for t in range(n):
        np.bitwise_xor(syn[:1 << t], syn_bits[t], out=syn[1 << t:2 << t])
    x0 = ((syn == 0) & (np.arange(d)[:, None] & s == 0)).argmax(axis=0)
    # F1 maps |0> to |x0> and X_q to X_q off S.  On S, C|0^n> has the
    # amplitudes i^f(y) over x0 + G^T y, with f(e_k) = l_k = p_k + 2 v_k.x0
    # and cross terms 2 (v_k . G_m) y_k y_m, so F1 maps X_{s_k} to
    # i^l_k X^G_k Z^B_k, B_k the qubits s_m of S whose G_m anticommute with v_k
    in_s = (s & bits) != 0
    gw, gp = w[pivot_row, cols], ph[pivot_row, cols]
    gx = np.where(in_s, gw & (d - 1), bits)
    gv = (gw >> n & (d - 1)) * in_s
    gp = (gp + 2 * _parity(gv & x0, n)) * in_s & 3
    gz = (_parity(gv[:, None] & gx, n) * (bits & s)).sum(axis=1)
    # F2 = H_S F1^dag C maps X_q to H_S F1^dag P F1 H_S for C's image
    # P = i^p X^u Z^v of X_q.  F1 X^u F1^dag, the product of F1's images
    # selected by u, has the phase i^f(u) and the X part A u, so
    # F1^dag P F1 = i^{p - f(u) + 2 v.x0} X^{A u} Z^v' with v' the qubits
    # whose F1 image of X anticommutes with P; then H_S swaps the X and Z
    # bits on S, and each Y there changes sign
    p, u, v = batch.ph[:, :n].T, x[:n], z[:n]
    u2 = np.bitwise_xor.reduce(((u[:, None] & bits) != 0) * gx, axis=1)
    v2 = (_parity((gx & v[:, None]) ^ (gz & u[:, None]), n) * bits).sum(axis=1)
    p2 = (p - _product_phases(u, gp, gx, gz, n) + 2 * _parity(v & x0, n)
          + 2 * _parity(u2 & v2 & s, n)) & 3
    # one walk for both Hadamard-free factors
    phase, index = _walk(np.hstack((gp, p2)), np.hstack((gx, (u2 & ~s) | (v2 & s))),
                         np.hstack((gz, (v2 & ~s) | (u2 & s))), n)
    b = len(cols)
    return _Factors(phase[:, :b], index[:, :b] ^ x0, phase[:, b:], index[:, b:],
                    s, _popcount(s, n).astype(np.int64))


def _blocks(batch: CliffordBatch):
    """(rows, factors) over the batch, so many rows at a time that no array
    of the factorization, the two stacked (d, B) walk tables included,
    exceeds ``_BLOCK_ENTRIES`` entries."""
    n = batch.n
    step = batch_block_size(max(2 << n, n * n))
    for lo in range(0, len(batch.ph), step):
        rows = slice(lo, lo + step)
        yield rows, _factor(CliffordBatch(n, *(a[rows] for a in batch[1:])))


def _hadamard(v: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Unnormalized H, in place, on the qubits of the index mask s[b] of
    column b of v (shape (d, B)): one butterfly per index bit in some S."""
    for t in range(n):
        on = (s >> t) & 1 != 0
        if on.any():
            w = v.reshape(-1, 2, 1 << t, v.shape[1])
            lo, hi = w[:, 0], w[:, 1]
            plus, minus = lo + hi, lo - hi
            np.copyto(lo, plus, where=on)
            np.copyto(hi, minus, where=on)
    return v


def _columns(f: _Factors, cols) -> np.ndarray:
    """Entry [b, z, c] holds <idx[z, b]|C_b|cols[c]> under the canonical
    phase, built exactly as i^k / sqrt(2^h); ``cols`` is an index array or
    a slice."""
    n = len(f.idx).bit_length() - 1
    zs = np.arange(1 << n)[:, None]
    pi, s = f.pi[cols].T[:, None, :], f.s[:, None, None]
    k = f.phi.T[:, :, None] + f.a[cols].T[:, None, :] + 2 * _parity(zs & pi & s, n)
    # each row's four amplitudes i^k / sqrt(2^h), and a zero (k = 4) off its support
    amps = np.hstack((_PHASES / np.sqrt(1 << f.h)[:, None], np.zeros((len(f.h), 1))))
    k = np.where((zs ^ pi) & ~s == 0, k & 3, 4)
    return amps[np.arange(len(f.h))[:, None, None], k]


def batch_overlaps(batch: CliffordBatch, psi1: StateVector, psi2: StateVector) -> np.ndarray:
    """<psi1|C_b|psi2> for every row b under the canonical phase convention,
    as <F1^dag psi1| H_S |F2 psi2>: only the nonzero amplitudes of psi2 are
    read."""
    n = batch.n
    if psi1.n_qubits != n or psi2.n_qubits != n:
        raise PauliError("size mismatch")
    cols = np.flatnonzero(psi2.amplitudes)
    bra, ket = psi1.amplitudes.conj(), psi2.amplitudes[cols]
    out = np.empty(len(batch.ph), dtype=complex)
    for rows, f in _blocks(batch):
        w = _hadamard(_PHASES.take(f.phi) * bra.take(f.idx), f.s, n)
        amps = _PHASES.take(f.a[cols]) * w[f.pi[cols], np.arange(len(f.s))]
        # einsum keeps this small product off the threaded BLAS, whose
        # wake-up can cost milliseconds between numpy calls
        out[rows] = np.einsum("m,mb->b", ket, amps) / np.sqrt(1 << f.h)
    obs.count("paulis.cliffords_applied", len(batch.ph))
    obs.count("paulis.action_entries", len(batch.ph) * n << n)
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
    cstep = max(1, min(d, _BLOCK_ENTRIES >> n))
    bstep = batch_block_size(cstep << n)
    for rows, f in _blocks(batch):
        for b in range(0, len(f.s), bstep):
            sub = _Factors(*(t[..., b:b + bstep] for t in f))
            at = np.arange(rows.start + b, rows.start + b + len(sub.s))[:, None, None]
            for c in range(0, d, cstep):
                out[at, sub.idx.T[:, :, None], np.arange(c, min(d, c + cstep))] = \
                    _columns(sub, slice(c, c + cstep))
    obs.count("paulis.cliffords_applied", len(batch.ph))
    obs.count("paulis.action_entries", len(batch.ph) * d * d)
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
        yield from (batch.row(b) for b in range(len(batch.ph)))


def _index_words(order: int) -> int:
    """32-bit words that make one index below an order of at least 2^62:
    64 spare bits keep the modulo bias below 2^-64."""
    return (order.bit_length() + 64 + 31) // 32


def _random_symplectic_index(rng: np.random.Generator, order: int) -> int:
    """Uniform index below the symplectic group order, which can exceed
    the int64 range of Generator.integers at n >= 6."""
    if order < (1 << 62):
        return int(rng.integers(order))
    i = 0
    for _ in range(_index_words(order)):
        i = (i << 32) | int(rng.integers(1 << 32))
    return i % order


def _draw(rng: np.random.Generator, n: int, count: int):
    """Packed rows and sign bits of ``count`` uniform Cliffords; each draws
    its symplectic index, then its signs."""
    order = symplectic_group_order(n)
    if order >= 1 << 62 and n <= 16:
        # Every draw is then one 32-bit word: the index takes whole words,
        # and Generator.integers(4^n) is the top 2n bits of a word (Lemire's
        # method never rejects for a power of two).  One call draws the
        # words of all ``count`` Cliffords in the order of the loop below.
        words = rng.integers(1 << 32, size=(count, _index_words(order) + 1)).tolist()
        indices = [functools.reduce(lambda i, w: i << 32 | w, row[:-1]) % order
                   for row in words]
        signs = np.array([row[-1] for row in words], dtype=np.int64) >> (32 - 2 * n)
        return _symplectic_rows(indices, n), signs
    indices, signs = [], []
    for _ in range(count):
        indices.append(_random_symplectic_index(rng, order))
        signs.append(int(rng.integers(1 << (2 * n))))
    return _symplectic_rows(indices, n), np.array(signs, dtype=np.int64)


def random_clifford_batch(n: int, rng: np.random.Generator, count: int) -> CliffordBatch:
    """``count`` uniform Cliffords modulo phase, making the draws of
    ``count`` successive ``random_clifford(n, rng)`` calls."""
    obs.count("paulis.cliffords_drawn", count)
    return _rows_to_batch(*_draw(rng, n, count), n)


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniform Clifford modulo global phase, reproducible under the seed.

    ``seed`` may be an int or a numpy Generator.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return random_clifford_batch(n, rng, 1).row(0)


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
    bits, zero = [1 << q for q in perm], [0] * n
    return CliffordElement(n, np.zeros((1, 2 * n), dtype=np.int64),
                           np.array([bits + zero], dtype=np.int64),
                           np.array([zero + bits], dtype=np.int64))


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
    return float(batch_r_overlap_sq(c)[0])


def batch_r_overlap_sq(batch: CliffordBatch) -> np.ndarray:
    """|<R^n| C_b |R^n>|^2 for every row b, from the Pauli coefficient expansion.

    Uses |R><R| = (I + cos(pi/8) X + sin(pi/8) Y)/2 per qubit, so only the
    3^n strings P over {I, X, Y} contribute, each with its coefficient times
    <R^n|C P C^dag|R^n>; the conjugated strings are built one qubit at a
    time as (B, 3^k) arrays with exact phases mod 4; tables over the
    ``_DENSE_BUDGET`` byte budget raise PauliError."""
    n, ph, x, z = batch
    # the phase, x and z tables of the 3^n strings of every row, as many
    # temporaries of their size in the last step, and coef
    cost = (6 * len(ph) + 1) * ph.itemsize * 3 ** n
    if cost > _DENSE_BUDGET:
        raise PauliError(f"the |R> overlap of {len(ph)} {n}-qubit Cliffords takes "
                         f"{cost >> 20} MiB, over the {_DENSE_BUDGET >> 20} MiB budget")
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
    obs.count("paulis.cliffords_scored", len(ph))
    return np.where((zs & ~xs) == 0, val, 0.0).sum(axis=1) / (1 << n)
