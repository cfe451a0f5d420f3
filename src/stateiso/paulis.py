"""Symplectic Pauli algebra and tableau Cliffords.

A Pauli is stored as ``i^phase * X^x Z^z`` with ``x``, ``z`` bitmasks
(bit i = qubit i) and the phase exponent tracked exactly mod 4.  A batch of
Paulis acts by one index gather with signs (``pauli_action``, whose
one-Pauli case is ``PauliOp.apply``), and a dense matrix is that gather on
the identity.  ``pauli_table`` gives <a|X^x Z^z|c> for all 4^n Paulis at
once, by one gather and one Walsh-Hadamard transform: ``walsh_hadamard``,
in place, which is also the Clifford action's Hadamard layer.

A Clifford has one format, packed tableau rows: a ``CliffordBatch`` holds
B Cliffords as (B, 2n) int64 arrays of the (phase, x, z) images of the
generators X_0..X_{n-1}, Z_0..Z_{n-1} under conjugation; no global phase
is carried.  A ``CliffordElement`` is a batch of one row.  ``compose`` and
``inverse`` run on the rows (Aaronson-Gottesman, PRA 70, 052328, 2004).
``random_clifford_batch`` and ``clifford_batches`` draw and enumerate
Cliffords in the Koenig-Smolin order (J. Math. Phys. 55, 122202, 2014);
enumeration runs to n = 3 (92,897,280 elements).  ``batch_r_overlap_sq``
scores them against |R^n>; the 4^n sign bits of a Clifford multiply it by a
Pauli, so ``sign_factored_r_overlap_sq`` scores all sign patterns of a row
from that row's one set of per-string |R> terms, and
``batch_x_image_expectations`` reads each <R^n|C X_q C^dag|R^n> off the
rows, so that most Cliffords are ruled out before scoring.  ``batch_apply``
is the action C_b|a_c>, O(n 2^n) a column by the factoring C = F1 H_S F2 of
the kernel section; the element methods and ``batch_unitaries`` call it, and
``batch_overlaps`` is the overlap contraction <F1^dag psi1| H_S |F2 psi2>.
Phase convention: the first nonzero amplitude of C|0^n> is real positive.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import obs
from .linalg import StateVector, UnitaryMatrix, check_budget, kron_vectors

_PHASES = np.array((1, 1j, -1, -1j))

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

    def hermitian_conjugate(self) -> "PauliOp":
        # (i^p X^x Z^z)^dag = i^{-p} (-1)^{|x&z|} X^x Z^z
        return PauliOp(self.n, -self.phase + 2 * (self.x & self.z).bit_count(), self.x, self.z)

    def is_hermitian(self) -> bool:
        return (self.phase - (self.x & self.z).bit_count()) % 2 == 0

    # -- dense action -------------------------------------------------
    def apply(self, amps: np.ndarray) -> np.ndarray:
        """Apply to a dense amplitude vector, or to each column of a (d, k)
        array: the one-Pauli case of ``pauli_action``."""
        return pauli_action(self.n, *np.array([[self.phase], [self.x], [self.z]]), amps)[0]

    # -- misc ---------------------------------------------------------
    def key(self) -> tuple:
        return (self.phase, self.x, self.z)

    def __repr__(self) -> str:
        y = self.x & self.z
        disp = (self.phase + 3 * y.bit_count()) & 3
        prefix = ("+", "+i", "-", "-i")[disp]
        return prefix + "".join(
            "IXZY"[((self.x >> q) & 1) + 2 * ((self.z >> q) & 1)] for q in range(self.n)
        )


def pauli_action(n: int, ph: np.ndarray, x: np.ndarray, z: np.ndarray,
                 amps: np.ndarray) -> np.ndarray:
    """i^ph X^x Z^z amps, shape (B,) + amps.shape, for B Paulis given as int
    arrays and amps of shape (d,) or (d, k): row j of each reads entry j ^ x
    times i^ph (-1)^{|(j ^ x) & z|} (qubit 0 = most significant)."""
    xi, zi = _index_masks(x, n)[:, None], _index_masks(z, n)[:, None]
    src = np.arange(1 << n) ^ xi
    coef = _PHASES[ph & 3][:, None] * (1.0 - 2.0 * _parity(src & zi, n))
    out = amps[src].astype(complex, copy=False)
    out *= coef.reshape(coef.shape + (1,) * (amps.ndim - 1))
    return out


def pauli_expectation(psi: StateVector, p: PauliOp) -> complex:
    """<psi|P|psi>; real for Hermitian P."""
    if p.n != psi.n_qubits:
        raise PauliError("Pauli/state size mismatch")
    val = complex(np.vdot(psi.amplitudes, p.apply(psi.amplitudes)))
    return val.real if p.is_hermitian() else val


def pauli_table(a: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """T[x, z] = <a| X^x Z^z |c> for all 4^n qubit masks (as in PauliOp):
    one gather conj(a[b ^ x]) c[b] and one Walsh-Hadamard transform over b,
    in place, O(n 4^n) time and 16 4^n bytes."""
    b = np.arange(1 << n)
    t = walsh_hadamard(a.conj()[b[:, None] ^ b] * c[:, None])
    masks = _index_masks(b, n)
    return t[np.ix_(masks, masks)].T


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
    """One Clifford: a CliffordBatch of one row, compared by ``key``."""

    __slots__ = ()

    def key(self) -> tuple:
        """The images as (phase, x, z) triples of Python ints."""
        return tuple(zip(self.ph[0].tolist(), self.x[0].tolist(), self.z[0].tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordElement) and self.n == other.n and self.key() == other.key()

    def __repr__(self) -> str:
        n = self.n
        images = [repr(PauliOp(n, *t)) for t in self.key()]
        return f"CliffordElement(X -> {' '.join(images[:n])}; Z -> {' '.join(images[n:])})"

    # -- dense action ---------------------------------------------------
    def stabilized_state(self) -> np.ndarray:
        """C|0^n> as a dense vector with canonical phase."""
        return batch_apply(self, np.eye(1 << self.n, 1, dtype=complex))[0, :, 0]

    def apply(self, psi: StateVector) -> StateVector:
        """C|psi> under the canonical phase convention, by ``batch_apply``."""
        return StateVector(self.n, batch_apply(self, psi.amplitudes[:, None])[0, :, 0])

    def to_unitary(self) -> UnitaryMatrix:
        """C as a dense matrix under the canonical phase convention; a
        matrix whose build would go over ``linalg.check_budget`` (from
        n = 12) raises PauliError."""
        return UnitaryMatrix(1 << self.n, batch_unitaries(self)[0])

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

_BLOCK_ENTRIES = 1 << 14     # entries of one intermediate kernel array


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


@functools.cache
def _selector_bits(m: int):
    """(bits, later) for m selected Paulis, read-only: bits[q] = 2^(m - 1 - q)
    selects [q], and later[q] holds the bits of the q' > q."""
    bits = 1 << np.arange(m - 1, -1, -1)
    later = bits * (np.arange(m)[:, None] < np.arange(m))
    for a in (bits, later):
        a.setflags(write=False)
    return bits, later


def _product_phases(sel, ph, x, z, n: int):
    """Phase exponents of the products, in the order of q, of the n-qubit
    Paulis i^ph X^x Z^z at [q], q < m = len(ph), that the m-bit masks
    ``sel[k]`` select (bit m - 1 - q selects [q]): the sum of their phases
    plus 2 |z_q & x_q'| over the selected pairs q < q'."""
    m = len(ph)
    bits, later = _selector_bits(m)
    # anti[q]: selector mask of the q' > q with |z_q & x_q'| odd
    anti = (_parity(z[:, None] & x, n) * later[..., None]).sum(axis=1)
    on = (sel[:, None] & bits[:, None]) != 0
    return (on * (ph + 2 * _parity(sel[:, None] & anti, m))).sum(axis=1)


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


def _permutation_factors(batch: CliffordBatch) -> _Factors:
    """``_factor`` of rows that are all qubit permutations, by construction:
    S is empty, F1 the identity, every phase 0, and F2 the gather of basis
    indices that moves the index bit of each qubit q to that of pi(q)."""
    n, b = batch.n, len(batch.ph)
    d = 1 << n
    x = _index_masks(batch.x[:, :n].T, n)
    # entry j + 2^t is entry j with the image of index bit t, as in ``_walk``
    pi = np.zeros((d, b), dtype=np.int64)
    for t in range(n):
        np.bitwise_xor(pi[:1 << t], x[n - 1 - t], out=pi[1 << t:2 << t])
    zeros = np.zeros_like(pi)
    none = np.zeros(b, dtype=np.int64)
    return _Factors(zeros, np.arange(d)[:, None].repeat(b, axis=1), zeros, pi, none, none)


def _blocks(batch: CliffordBatch):
    """(rows, factors) over the batch, so many rows at a time that no array
    of the factorization, the two stacked (d, B) walk tables included,
    exceeds ``_BLOCK_ENTRIES`` entries.  A block of qubit permutations gets
    its factors by construction; any X image with a Z part rules a block
    out before the full test."""
    n = batch.n
    step = batch_block_size(max(2 << n, n * n))
    for lo in range(0, len(batch.ph), step):
        rows = slice(lo, lo + step)
        block = CliffordBatch(n, *(a[rows] for a in batch[1:]))
        perm = not block.z[:, :n].any() and block.permutation_mask().all()
        yield rows, _permutation_factors(block) if perm else _factor(block)


def walsh_hadamard(v: np.ndarray, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, in place, along axis 0 of a
    (2^n, B) array v, out[u] = sum_w (-1)^{popcount(u & w)} v[w], column b
    only on the index bits of the mask s[b], or on every bit with no mask.
    One butterfly per bit from the lowest, over slabs of about
    ``_BLOCK_ENTRIES`` entries or one pair of halves, as numpy copies an
    operand whose memory range overlaps the output's; integer input stays
    integer and exact.  Returns v."""
    full = len(v) - 1
    some, every = (full, full) if s is None else (np.bitwise_or.reduce(s), np.bitwise_and.reduce(s))
    for t in range(full.bit_length()):
        if some >> t & 1:
            w = v.reshape(-1, 2, 1 << t, v.shape[1])
            rows = max(1, _BLOCK_ENTRIES // w[0].size)
            for i in range(0, len(w), rows):
                lo, hi = w[i:i + rows, 0], w[i:i + rows, 1]
                minus = lo - hi
                if every >> t & 1:
                    lo += hi
                    hi[...] = minus
                else:
                    on = (s >> t) & 1 != 0
                    np.copyto(lo, lo + hi, where=on)
                    np.copyto(hi, minus, where=on)
                del minus      # before the next slab's difference is made
    return v


def batch_apply(batch: CliffordBatch, amps: np.ndarray) -> np.ndarray:
    """C_b|a_c> for every row b and column c of ``amps`` (shape (d, k)), shape
    (B, d, k), under the canonical phase convention: a phase-scatter through
    F2, one Hadamard layer and a phase-scatter through F1, on sub-blocks of
    rows whose (d, B', k) arrays keep within ``_BLOCK_ENTRIES``, or of one row."""
    n = batch.n
    d, k = amps.shape
    if d != 1 << n:
        raise PauliError("size mismatch")
    out = np.empty((len(batch.ph), d, k), dtype=complex)
    step = batch_block_size(d * k)
    for rows, f in _blocks(batch):
        for lo in range(0, len(f.s), step):
            at = slice(lo, lo + step)
            cols = np.arange(len(f.s[at]))
            # F2 permutes the rows of every column, so each entry is written;
            # its phases follow in place, with no second (d, B', k) array
            v = np.empty((d, len(cols), k), dtype=complex)
            v[f.pi[:, at], cols] = amps[:, None]
            ph = np.empty((d, len(cols)), dtype=complex)
            ph[f.pi[:, at], cols] = _PHASES.take(f.a[:, at])
            v *= ph[..., None]
            walsh_hadamard(v.reshape(d, -1), np.repeat(f.s[at], k))
            v *= (_PHASES.take(f.phi[:, at]) / np.sqrt(1 << f.h[at]))[..., None]
            out[rows.start + lo + cols, f.idx[:, at]] = v
    return out


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
        w = walsh_hadamard(_PHASES.take(f.phi) * bra.take(f.idx), f.s)
        amps = _PHASES.take(f.a[cols]) * w[f.pi[cols], np.arange(len(f.s))]
        # einsum keeps this small product off a threaded BLAS, whose wake-up
        # can cost milliseconds between numpy calls; the CLI runs BLAS on one
        # thread, so this protects in-process callers whose BLAS is threaded,
        # such as library users and perfbench's in-process workloads
        out[rows] = np.einsum("m,mb->b", ket, amps) / np.sqrt(1 << f.h)
    obs.count("paulis.cliffords_applied", len(batch.ph))
    obs.count("paulis.action_entries", len(batch.ph) * n << n)
    return out


def batch_unitaries(batch: CliffordBatch) -> np.ndarray:
    """The dense matrices of every row, shape (B, d, d), under the canonical
    phase convention: ``batch_apply`` on the identity.  A stack whose
    build would go over ``linalg.check_budget`` raises PauliError before
    anything is allocated."""
    n, b = batch.n, len(batch.ph)
    d = 1 << n
    # Besides the stack, batch_apply holds the identity, a one-row work
    # array and up to half a matrix of Hadamard differences, plus factor
    # tables: tracemalloc measures 3.5 matrices and 0.1-0.2 MiB more at
    # B = 1, n = 10 and 11.  Three whole matrices besides the stack cover
    # that, so 11 qubits (4 x 64 MiB) pass and 12 (4 x 256 MiB) are refused.
    check_budget(4 + math.log2(b + 3) + 2 * n, f"{b} dense {n}-qubit Clifford unitaries "
                 "with their work arrays", PauliError)
    out = batch_apply(batch, np.eye(d, dtype=complex))
    obs.count("paulis.cliffords_applied", b)
    obs.count("paulis.action_entries", b * d * d)
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
    # by the qubit-0 pair of f: with Z_0, (f ^ 1, 0); with X_0 alone,
    # (2, f ^ 3), which at f = e1 is T_2 T_2, the identity; with neither,
    # (1 ^ z, f ^ z)
    has_z, has_x = f & 2 != 0, f & 1 != 0
    return (np.where(has_z, f ^ 1, np.where(has_x, 2, 1 ^ z)),
            np.where(has_z, 0, np.where(has_x, f ^ 3, f ^ z)))


@functools.cache
def _transvection_table(m: int) -> np.ndarray:
    """(2, 4^m - 1) ``_transvections_from_e1`` of every nonzero packed 2m-bit
    vector f at column f - 1, read-only."""
    table = np.array(_transvections_from_e1(np.arange(1, 1 << 2 * m)))
    table.setflags(write=False)
    return table


def _index_digits(indices, n: int) -> np.ndarray:
    """(B, n) Koenig-Smolin digits f1 - 1 + (4^m - 1) bits of each index, one
    per level m, outermost first.  What is left after the levels above m is
    below the order of Sp(2m), in int64 up to m = 5, so Python divmod runs
    only on the n - 5 outer levels of n > 5, and numpy divmod on the rest."""
    radices = [((1 << 2 * m) - 1) << (2 * m - 1) for m in range(n, 0, -1)]
    outer = max(n - 5, 0)
    digits = np.empty((len(indices), n), dtype=np.int64)
    if outer:
        head, rest = [], []
        for i in indices:
            for r in radices[:outer]:
                i, digit = divmod(i, r)
                head.append(digit)
            rest.append(i)
        digits[:, :outer] = np.array(head, dtype=np.int64).reshape(-1, outer)
        indices = rest
    i = np.asarray(indices, dtype=np.int64)
    for level in range(outer, n):
        i, digits[:, level] = np.divmod(i, radices[level])
    return digits


def _transvect_level(digits, rows, m: int):
    """Koenig-Smolin level m on packed 2m-bit rows: the four transvections
    that each row's level digit (its f1 and bits) fixes."""
    bits, f0 = np.divmod(digits, (1 << 2 * m) - 1)
    f1 = f0 + 1
    # at m <= 5 the 4^m - 1 possible f1 have their transvections tabled
    h0, h1 = _transvection_table(m)[:, f0] if m <= 5 else _transvections_from_e1(f1)
    e = _transvect(h0, _transvect(h1, 1 | ((bits >> 1) << 2), 2 * m), 2 * m)
    for k in (h1, h0, e, np.where(bits & 1, 0, f1)):
        rows = _transvect(k[:, None], rows, 2 * m)
    return rows


@functools.cache
def _level_images(m: int) -> np.ndarray:
    """(digits, 4^m) uint8 images of every packed 2m-bit vector under level m,
    read-only (130,968 bytes for m = 1..3).  The level is linear, so the 2m
    unit vectors' images fill the table by doubling, as in ``_walk``."""
    digits = np.arange(((1 << 2 * m) - 1) << (2 * m - 1))
    units = _transvect_level(digits, 1 << np.arange(2 * m), m).astype(np.uint8)
    table = np.zeros((len(digits), 1 << 2 * m), dtype=np.uint8)
    for t in range(2 * m):
        np.bitwise_xor(table[:, :1 << t], units[:, t, None], out=table[:, 1 << t:2 << t])
    table.setflags(write=False)
    return table


def _symplectic_rows(indices, n: int) -> np.ndarray:
    """(B, 2n) packed rows of the elements of Sp(2n, F2) with the given
    Koenig-Smolin indices; levels m <= 3 gather from ``_level_images``."""
    digits = _index_digits(indices, n)
    rows = np.zeros((len(digits), 0), dtype=np.uint8)
    e01 = np.array([[1, 2]]).repeat(len(digits), axis=0)
    # the innermost level acts on the last qubit; each outer level shifts the
    # rows up by one qubit, prepends X_0 and Z_0 (packed 1 and 2) and maps
    # every row.  The tabled rows are uint8 below 64, so the shift cannot
    # wrap; they are widened before any level that could
    for m in range(1, min(n, 3) + 1):
        rows = _level_images(m)[digits[:, n - m, None], np.hstack((e01, rows << 2))]
    rows = rows.astype(np.int64)
    for m in range(4, n + 1):
        rows = _transvect_level(digits[:, n - m], np.hstack((e01, rows << 2)), m)
    return rows


# the even (X) bits of each byte, packed into four bits; int64, so that the
# shifts below cannot wrap on numpy < 2
_EVEN8 = (((np.arange(256)[:, None] >> np.arange(0, 8, 2)) & 1) << np.arange(4)).sum(axis=1)
_ODD8 = _EVEN8[np.arange(256) >> 1]


def _rows_to_batch(rows: np.ndarray, signs: np.ndarray, n: int) -> CliffordBatch:
    """Generator j reads packed row 2 (j mod n) + j // n and sign bit j; the
    X and Z bits of each row are unpacked a byte at a time."""
    rows = np.hstack((rows[:, 0::2], rows[:, 1::2]))
    x, z = _EVEN8.take(rows & 255), _ODD8.take(rows & 255)
    for k in range(8, 2 * n, 8):
        byte = rows >> k & 255
        x = x | _EVEN8.take(byte) << k // 2
        z = z | _ODD8.take(byte) << k // 2
    ph = _parity(x & z, n) + 2 * ((signs[:, None] >> np.arange(2 * n)) & 1)
    return CliffordBatch(n, ph, x, z)


def clifford_elements(n: int, elements: np.ndarray) -> CliffordBatch:
    """The Cliffords at the given positions of the enumeration order, where
    element e has the symplectic index e >> 2n and the sign bits e mod 4^n;
    each symplectic row is built once; n <= 3."""
    _check_enumerable(n)
    k = 2 * n
    indices, at = np.unique(elements >> k, return_inverse=True)
    return _rows_to_batch(_symplectic_rows(indices, n)[at], elements & ((1 << k) - 1), n)


def _check_enumerable(n: int) -> None:
    if n > 3:
        raise PauliError(f"enumeration supported for n <= 3; the {n}-qubit Clifford "
                         f"group has {clifford_group_order(n):.2e} elements")


def clifford_batches(n: int, size: int) -> Iterator[CliffordBatch]:
    """The elements of ``enumerate_cliffords``, in its order, as batches of
    at most ``size`` rows; n <= 3."""
    total = clifford_group_order(n)
    for lo in range(0, total, size):
        yield clifford_elements(n, np.arange(lo, min(lo + size, total)))


def enumerate_cliffords(n: int) -> Iterator[CliffordElement]:
    """Every Clifford modulo global phase, exactly once, for n <= 3.

    Counts: 24 at n=1, 11,520 at n=2 and 92,897,280 at n=3.
    """
    for batch in clifford_batches(n, 1 << 10):
        yield from (batch.row(b) for b in range(len(batch.ph)))


def _index_words(order: int) -> int:
    """32-bit words that make one index below an order of at least 2^62:
    64 spare bits keep the modulo bias below 2^-64."""
    return (order.bit_length() + 64 + 31) // 32


def _draw(rng: np.random.Generator, n: int, count: int):
    """Packed rows and sign bits of ``count`` uniform Cliffords, from one
    rng.integers call with an array of bounds, which numpy draws element by
    element as the scalar calls with those bounds would: per Clifford its
    index below the order of Sp(2n) at n <= 5, or at 6 <= n <= 16, where the
    order exceeds int64, whole 32-bit words of it (taken modulo the order);
    then rng.integers(4^n) for its signs.  Larger n is refused."""
    if n > 16:
        raise PauliError(f"uniform Clifford draws run to n = 16, not n = {n}: the "
                         f"4^n sign draw no longer fits in one 32-bit word")
    order = symplectic_group_order(n)
    width = _index_words(order) if order >= 1 << 62 else 0
    bounds = ([1 << 32] * width or [order]) + [1 << 2 * n]
    draws = rng.integers(np.tile(bounds, count)).reshape(count, len(bounds))
    if not width:
        return _symplectic_rows(draws[:, 0], n), draws[:, 1]
    # each index is its row of words read as one big-endian integer
    packed, size = draws[:, :width].astype(">u4").tobytes(), 4 * width
    indices = [int.from_bytes(packed[b:b + size], "big") % order
               for b in range(0, len(packed), size)]
    return _symplectic_rows(indices, n), draws[:, -1]


def random_clifford_batch(n: int, rng: np.random.Generator, count: int) -> CliffordBatch:
    """``count`` uniform Cliffords modulo phase, making the draws of
    ``count`` successive ``random_clifford(n, rng)`` calls and leaving the
    generator in the same state: each Clifford's draws are its symplectic
    index below the order of Sp(2n), then rng.integers(4^n) for its signs.
    One bounded integers call draws the whole batch (``_draw``), so any
    numpy bit generator serves.  n above 16 raises PauliError."""
    obs.count("paulis.cliffords_drawn", count)
    return _rows_to_batch(*_draw(rng, n, count), n)


def random_clifford(n: int, seed) -> CliffordElement:
    """Uniform Clifford modulo global phase, reproducible under the seed.

    ``seed`` may be an int or a numpy Generator on any bit generator; n is
    limited to 16 (see ``random_clifford_batch``).
    """
    return random_clifford_batch(n, np.random.default_rng(seed), 1).row(0)


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
        amps = kron_vectors(amps, single)
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


def qubit_permutation_batch(perms, n: int) -> CliffordBatch:
    """The Cliffords sending qubit i to qubit perm[i], one row per perm."""
    perms = [tuple(perm) for perm in perms]
    for perm in perms:
        if sorted(perm) != list(range(n)):
            raise PauliError(f"not a permutation of range({n}): {perm}")
    bits = 1 << np.array(perms, dtype=np.int64).reshape(len(perms), n)
    x = np.hstack((bits, np.zeros_like(bits)))
    return CliffordBatch(n, np.zeros_like(x), x, np.roll(x, n, axis=1))


def diagonal_permutation_batch(n: int, rng: np.random.Generator, count: int) -> CliffordBatch:
    """``count`` Cliffords D P, P a uniform qubit permutation and D =
    prod_q S_q^{a_q} prod_{q<r} CZ_qr^{c_qr}, which sends X_q to i^{a_q} X_q
    Z_q^{a_q} prod_r Z_r^{c_qr} and fixes each Z_q.  One integers call with the
    bounds [n!, 4 x n, 2 x n(n-1)/2] tiled draws like scalar calls, in order."""
    q, r = np.triu_indices(n, 1)
    draws = rng.integers(np.tile([math.factorial(n)] + [4] * n + [2] * len(q), count))
    p, a, c = np.split(draws.reshape(count, -1), [1, 1 + n], axis=1)
    # the p-th permutation of itertools.permutations(range(n)) from its
    # Lehmer digits: each digit counts the unused qubits below its entry
    perm = p // [math.factorial(k) for k in range(n - 1, -1, -1)] % np.arange(n, 0, -1)
    for k in range(n - 2, -1, -1):
        perm[:, k + 1:] += perm[:, k + 1:] >= perm[:, k, None]
    cz = np.zeros((count, n, n), dtype=np.int64)
    cz[:, q, r] = cz[:, r, q] = c
    bits = 1 << np.arange(n)
    # P sends X_k and Z_k to X_pi(k) and Z_pi(k), so D P takes D's images there
    images = (a, np.broadcast_to(bits, a.shape), (a & 1) * bits | (cz * bits).sum(axis=2))
    ph, x, z = (np.take_along_axis(t, perm, axis=1) for t in images)
    zero = np.zeros_like(x)
    return CliffordBatch(n, np.hstack((ph, zero)), np.hstack((x, zero)), np.hstack((z, x)))


def qubit_permutation_clifford(perm, n: int) -> CliffordElement:
    """The Clifford sending qubit i to qubit perm[i]."""
    return CliffordElement(*qubit_permutation_batch([perm], n))


@functools.cache
def _pauli_strings(n: int):
    """(coef, masks) of the 3^n strings P over {I, X, Y}, the letter on qubit q
    the base-3 digit q of P: coef[P] = cos(pi/8)^{#X} sin(pi/8)^{#Y} / 2^n, and
    masks[P] has bit q for an X_q or Y_q and bit n + q for a Y_q, the
    generators X_q and Z_q whose images make the image of P; read-only."""
    coef, masks = np.full(1, 1.0 / (1 << n)), np.zeros(1, dtype=np.int64)
    for q in range(n):
        coef = np.concatenate((coef, COS8 * coef, SIN8 * coef))
        masks = np.concatenate((masks, masks | 1 << q, masks | (1 << q | 1 << (n + q))))
    for a in (coef, masks):
        a.setflags(write=False)
    return coef, masks


def r_overlap_bytes(rows: int, n: int) -> int:
    """Peak bytes of ``batch_r_overlap_terms`` on ``rows`` Cliffords: the
    phase, x, z and term tables and two byte-sized tables of counts or
    masks, all (rows, 3^n), the coefficient and mask vectors, and 64 KiB
    for numpy's casting buffers and the small arrays."""
    return (34 * rows + 16) * 3 ** n + (1 << 16)


# the sign of <R^n|P|R^n> by 4 [P has a Z] + the phase of P = i^phase X..Y..
_SIGNS = np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def batch_r_overlap_terms(batch: CliffordBatch):
    """(terms, masks): terms[b, P] = coef[P] <R^n|C_b P C_b^dag|R^n> over the
    3^n strings P of ``_pauli_strings``, so that |<R^n|C_b|R^n>|^2 is the sum
    of row b, by |R><R| = (I + cos(pi/8) X + sin(pi/8) Y)/2 per qubit.

    Flipping the signs s (bit j for generator j) of C_b's images multiplies
    terms[b, P] by (-1)^{|s & masks[P]|}.  The conjugated strings are built
    one qubit at a time with exact phases mod 4; tables over
    ``linalg.check_budget`` raise PauliError."""
    n, ph, x, z = batch
    check_budget(math.log2(r_overlap_bytes(len(ph), n)),
                 f"the |R> overlap of {len(ph)} {n}-qubit Cliffords", PauliError)
    coef, masks = _pauli_strings(n)
    if not len(ph):
        return np.zeros((0, 3 ** n)), masks
    # one string per row, so that each block of strings below is contiguous
    ps, xs, zs = (np.zeros((3 ** n, len(ph)), dtype=np.int64) for _ in range(3))
    for q in range(n):
        # the images of X_q and of Y_q = i X_q Z_q
        px, xx, zx = ph[:, q], x[:, q], z[:, q]
        pz, xz, zz = ph[:, n + q], x[:, n + q], z[:, n + q]
        py = (1 + px + pz + 2 * _parity(zx & xz, n)) & 3
        # extend the 3^q partial products in rows [0, w) with X_q into
        # rows [w, 2w) and with Y_q into rows [2w, 3w)
        w = 3 ** q
        old, on_x, on_y = slice(0, w), slice(w, 2 * w), slice(2 * w, 3 * w)
        ps[on_x] = (ps[old] + px + 2 * _parity(zs[old] & xx, n)) & 3
        ps[on_y] = (ps[old] + py + 2 * _parity(zs[old] & (xx ^ xz), n)) & 3
        xs[on_x] = xs[old] ^ xx
        xs[on_y] = xs[old] ^ xx ^ xz
        zs[on_x] = zs[old] ^ zx
        zs[on_y] = zs[old] ^ zx ^ zz
    # <R^n|P|R^n> = s 0^{#Z} cos(pi/8)^{#X} sin(pi/8)^{#Y} for P = s X..Y..,
    # where the phase ps + 3 #Y is 0 or 2 on every string without Z.  The
    # terms' array first holds the Y parts; each spent table then holds a
    # count, a sign index or a factor, so no other table-sized array is made
    terms = np.empty(ps.shape)
    ys = terms.view(np.int64)
    np.bitwise_and(xs, zs, out=ys)
    xs ^= ys
    zs ^= ys
    nx = _popcount(xs, n)
    np.copyto(xs, _popcount(ys, n))             # xs: #Y
    ps -= xs                                    # ps + 3 #Y mod 4
    ps &= 3
    np.minimum(zs, 1, out=zs)
    zs <<= 2
    ps |= zs                                    # ps: 4 [Z] + phase
    np.take(_SIGNS, ps, out=terms, mode="clip")
    terms *= coef[:, None]
    np.copyto(zs, nx)                           # zs: #X
    work = ps.view(np.float64)
    for base, count in ((COS8, zs), (SIN8, xs)):
        np.take(base ** np.arange(n + 1), count, out=work, mode="clip")
        terms *= work
    # the spent #Y table takes the terms in row order, (B, 3^n)
    out = xs.view(np.float64).reshape(len(ph), -1)
    np.copyto(out, terms.T)
    return out, masks


def batch_r_overlap_sq(batch: CliffordBatch) -> np.ndarray:
    """|<R^n| C_b |R^n>|^2 for every row b: the row sums of
    ``batch_r_overlap_terms``."""
    obs.count("paulis.cliffords_scored", len(batch.ph))
    return batch_r_overlap_terms(batch)[0].sum(axis=1)


def batch_x_image_expectations(batch: CliffordBatch) -> np.ndarray:
    """(B, n) <R^n| C_b X_q C_b^dag |R^n>: the image i^phase X^x Z^z of X_q
    read a letter at a time by the rule of ``batch_r_overlap_terms``, I -> 1,
    X -> cos(pi/8), Y -> sin(pi/8) and Z -> 0, with the sign i^(phase - #Y)."""
    n, ph, x, z = batch
    x, z = x[:, :n], z[:, :n]
    y = x & z
    ny = _popcount(y, n)
    powers = np.arange(n + 1)
    sign = _SIGNS.take((ph[:, :n] - ny) & 3 | (z != y) << 2)
    return sign * (COS8 ** powers).take(_popcount(x ^ y, n)) * (SIN8 ** powers).take(ny)


@functools.cache
def _sign_matrix(n: int) -> np.ndarray:
    """S[s, P] = (-1)^{|s & masks[P]|}, (4^n, 3^n), read-only."""
    s = 1.0 - 2.0 * _parity(np.arange(1 << 2 * n)[:, None] & _pauli_strings(n)[1], 2 * n)
    s.setflags(write=False)
    return s


def sign_factored_r_overlap_sq(batch: CliffordBatch) -> np.ndarray:
    """(B, 4^n) |<R^n| C |R^n>|^2 of row b with its sign bits XOR s at [b, s].
    The sign bits multiply C by a Pauli, so one terms kernel and one product
    with the fixed sign matrix score all 4^n sign patterns of a row; n <= 3."""
    n = batch.n
    _check_enumerable(n)
    terms, _ = batch_r_overlap_terms(batch)
    obs.count("paulis.cliffords_scored", len(terms) << 2 * n)
    # row chunks keep each product within OpenBLAS's one-thread size
    # (m k n <= 2^18), past which its threads spin between calls; the CLI
    # runs BLAS on one thread, so this protects in-process callers whose BLAS
    # is threaded, such as library users and perfbench's in-process workloads
    out, step = np.empty((len(terms), 1 << 2 * n)), (1 << 18) // 12 ** n
    for lo in range(0, len(terms), step):
        np.matmul(terms[lo:lo + step], _sign_matrix(n).T, out=out[lo:lo + step])
    return out
