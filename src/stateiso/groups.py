"""Finite groups with unitary representations, twirls, and dihedralization.

Groups are desk scale: elements are opaque hashable labels with explicit
multiply/inverse callbacks, and one vectorized action through the group's
structure (a signed index gather for the Pauli family, say).  Orbit scans
read ``orbit`` and the twirls ``unitaries``, in the fixed element order,
so results are bit-stable.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (UNITARY_TOL, DensityMatrix, _pairs, check_budget, fidelity_matrices,
                     sqrt_fidelity)
from .paulis import (PauliOp, batch_unitaries, clifford_batches, clifford_group_order,
                     pauli_action)

MATCH_TOL = 1e-8             # entrywise distance at which explicit_group matches a product
TWIRL_SLACK_TOL = 1e-7       # rounding allowed below the twirl fidelity bound
ABELIAN_PAIRS = 10_000       # sampled pairs when a group is too large to check every pair
_BLOCK_ENTRIES = 1 << 16     # matrix entries per block of group elements in the twirls


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class DecisionThresholds:
    """Promise parameters (alpha, beta) of a state isomorphism instance."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 <= self.alpha < self.beta <= 1):
            raise GroupError(
                f"need 0 <= alpha < beta <= 1, got ({self.alpha}, {self.beta})"
            )


class FiniteGroupRep:
    """A finite group together with a unitary action on C^dim.

    ``multiply`` and ``inverse`` operate on labels.  ``act(at, amps)`` is
    R(g) amps, shape (len(at),) + amps.shape, for the elements at the int
    positions ``at`` and amps of shape (dim,) or (dim, k): a homomorphism,
    up to a global phase for the Clifford group.
    """

    def __init__(self, elements, identity, multiply: Callable, inverse: Callable,
                 act: Callable, dim: int, name: str = ""):
        self.elements = tuple(elements)
        if identity not in self.elements:
            raise GroupError("identity label missing from element list")
        self.identity = identity
        self.multiply = multiply
        self.inverse = inverse
        self.act = act
        self.dim = dim
        self.name = name

    @property
    def order(self) -> int:
        return len(self.elements)

    @functools.cached_property
    def positions(self) -> dict:
        """Each label's position in ``elements``."""
        return {g: i for i, g in enumerate(self.elements)}

    def orbit(self, amps: np.ndarray) -> np.ndarray:
        """R(g) amps for every element in order; a peak over
        ``linalg.check_budget`` raises GroupError before any allocation."""
        # per element: 16 bytes per output entry and 40 per basis state for
        # the index and coefficient rows of an action; by tracemalloc the
        # Pauli gather peaks at 2.55 output vectors at n = 5 and 6 (this
        # model: 3.5), and 1.14 outputs on the identity at n = 4
        check_budget(math.log2(self.order) + math.log2(16 * amps.size + 40 * self.dim),
                     f"an orbit of shape {amps.shape} under {self.name} at its peak",
                     GroupError)
        return self.act(np.arange(self.order), amps)

    def unitary(self, g) -> np.ndarray:
        """The dense matrix R(g): the action on the identity."""
        return self.act(np.array([self.positions[g]]), np.eye(self.dim, dtype=complex))[0]

    @functools.cached_property
    def unitaries(self) -> np.ndarray:
        """R(g) for every element, as one read-only (order, dim, dim) stack
        in element order: the orbit of the identity."""
        stack = self.orbit(np.eye(self.dim, dtype=complex))
        stack.flags.writeable = False
        return stack

    def trivial_mask(self) -> np.ndarray:
        """Mask of the elements that leave every state unchanged: the
        identity label and each g whose R(g) is a global phase times the
        identity."""
        u = self.unitaries
        tr = np.trace(u, axis1=1, axis2=2) / self.dim
        near = np.abs(tr) > 1 - 1e-10
        # only the few elements of unit |trace| are compared entry by entry
        near[near] = np.abs(u[near] - tr[near, None, None] * np.eye(self.dim)).max(
            axis=(1, 2)) < 1e-10
        near[self.positions[self.identity]] = True
        return near

    def is_abelian(self) -> bool:
        els, rng = self.elements, np.random.default_rng(0)
        pairs = (itertools.combinations(range(len(els)), 2) if len(els) <= 512 else
                 (rng.integers(len(els), size=2) for _ in range(ABELIAN_PAIRS)))
        return all(self.multiply(els[i], els[j]) == self.multiply(els[j], els[i])
                   for i, j in pairs)


def dihedralize(base: FiniteGroupRep) -> FiniteGroupRep:
    """Generalized dihedral extension of an abelian rep.

    Elements are (g, a), a in Z2, at position 2 i + a for g at position i:
    R'(g, 0) = |0><0| x R(g) + |1><1| x R(-g), R'(g, 1) = R'(g, 0) (X x I).
    """
    if not base.is_abelian():
        raise GroupError("dihedralization requires an abelian base group")
    elements = list(itertools.product(base.elements, (0, 1)))
    inv = np.array([base.positions[base.inverse(g)] for g in base.elements])

    def multiply(p, q):
        (g, a), (h, b) = p, q
        h2 = base.inverse(h) if a else h
        return (base.multiply(g, h2), (a + b) % 2)

    def inverse(p):
        g, a = p
        return (g, a) if a else (base.inverse(g), 0)

    def act(at, amps):
        # X x I swaps the halves where a = 1, then R(g) acts on the top half
        # and R(-g) on the bottom one
        top, bottom = amps.reshape((2, base.dim) + amps.shape[1:])
        g, a = at >> 1, (at & 1).astype(bool).reshape((-1,) + (1,) * amps.ndim)
        return np.concatenate((np.where(a, base.act(g, bottom), base.act(g, top)),
                               np.where(a, base.act(inv[g], top), base.act(inv[g], bottom))),
                              axis=1)

    return FiniteGroupRep(elements, (base.identity, 0), multiply, inverse, act,
                          2 * base.dim, name=f"dihedral({base.name})")


# ----------------------------------------------------------------------
# Twirling channels
# ----------------------------------------------------------------------

def _conjugate_blocks(rep: FiniteGroupRep, m: np.ndarray, step: int):
    """R(g) m R(g)^dag in element order, as (B, dim, dim) stacks of B <= step."""
    for lo in range(0, rep.order, step):
        u = rep.unitaries[lo:lo + step]
        yield u @ m @ u.conj().transpose(0, 2, 1)


def _vec_kron_powers(t: np.ndarray, a: int) -> np.ndarray:
    """Rows vec(T^{x a}) of a (B, d, d) stack T: shape (B, d^{2a})."""
    out = np.ones((len(t), 1, 1), dtype=complex)
    for _ in range(a):
        out = np.einsum("gij,gkl->gikjl", out, t).reshape(
            len(t), out.shape[1] * t.shape[1], -1)
    return out.reshape(len(t), -1)


def twirl(rep: FiniteGroupRep, rho: DensityMatrix) -> DensityMatrix:
    """E(rho) = (1/|G|) sum_g R(g) rho R(g)^dag."""
    return k_twirl(rep, rho, 1)


def k_twirl(rep: FiniteGroupRep, rho: DensityMatrix, k: int) -> DensityMatrix:
    """(1/|G|) sum_g (R(g) rho R(g)^dag)^{x k}.

    With T_g = R(g) rho R(g)^dag and a = k // 2, the sum is one product
    sum_g vec(T_g^{x a}) vec(T_g^{x (k-a)})^T, which a transpose of the
    row and column indices turns into the k-fold tensor power.  Its
    tracemalloc peak is about four times the 16 d^{2k}-byte accumulator,
    so a peak over ``linalg.check_budget`` raises GroupError.
    """
    if k < 1:
        raise GroupError("k must be a positive integer")
    if rho.dim != rep.dim:
        raise GroupError("density matrix dimension does not match rep")
    check_budget(6 + 2 * k * math.log2(rep.dim),
                 f"a {k}-twirl in dimension {rep.dim}^{k} at its peak", GroupError)
    a, b = k // 2, k - k // 2
    da, db, dk = rep.dim**a, rep.dim**b, rep.dim**k
    # blocks of elements whose factor rows hold no more entries than the
    # accumulator (or _BLOCK_ENTRIES), so that memory stays O(d^{2k})
    step = max(1, max(dk * dk, _BLOCK_ENTRIES) // (da * da + db * db))
    acc = np.zeros((da * da, db * db), dtype=complex)
    for t in _conjugate_blocks(rep, rho.matrix, step):
        acc += _vec_kron_powers(t, a).T @ _vec_kron_powers(t, b)
    acc = acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(dk, dk)
    # a sum of tensor powers of states is PSD: no eigenvalue check
    return DensityMatrix._trusted(k * rho.n_qubits, acc / rep.order)


@dataclass(frozen=True)
class TwirlBoundReport:
    epsilon: float          # max pairwise fidelity over unitary pairs
    bound: float            # epsilon * |S|
    slack: float            # bound - F(E(rho), E(sigma))
    satisfied: bool


def check_twirl_fidelity_bound(rep: FiniteGroupRep, rho: DensityMatrix,
                               sigma: DensityMatrix) -> TwirlBoundReport:
    """Check F(E(rho), E(sigma)) <= |S| * max_{U,V} F(U rho U^dag, V sigma V^dag).

    Since S is a group, the pairwise maximum reduces to a single sweep
    over w = U^dag V.
    """
    eps = max_conjugate_fidelity(rep, rho.matrix, sigma.matrix)
    tf = sqrt_fidelity(twirl(rep, rho), twirl(rep, sigma))
    bound = eps * rep.order
    slack = bound - tf
    return TwirlBoundReport(eps, bound, slack, slack >= -TWIRL_SLACK_TOL)


def max_conjugate_fidelity(rep: FiniteGroupRep, rho: np.ndarray,
                           sigma: np.ndarray) -> float:
    """max_g F(rho, R(g) sigma R(g)^dag), with sqrt(rho) taken once and the
    conjugates stacked in blocks of the group."""
    step = max(1, _BLOCK_ENTRIES // rep.dim**2)
    return max(0.0, *(float(fidelity_matrices(rho, t).max())
                      for t in _conjugate_blocks(rep, sigma, step)))


# ----------------------------------------------------------------------
# Built-in groups
# ----------------------------------------------------------------------

def _label_bytes(bits: float, label) -> int:
    """Bytes that each of 2^bits labels shaped like ``label`` can add to a
    label list: its list slot, its tuple if it is one, in whole 16-byte
    allocator blocks, and past 2^8 labels one int object per int in it
    (Python shares the ints up to 256; one below 2^30 fills 32 bytes)."""
    if not isinstance(label, tuple):
        return 8 + (32 if bits > 8 else 0)
    return 8 + -(-sys.getsizeof(label) // 16) * 16 + (32 * len(label) if bits > 8 else 0)


def _check_labels(bits: float, label) -> None:
    """Refuse a group of 2^bits labels whose list would exceed
    ``linalg.check_budget``; it runs before the list is built."""
    check_budget(bits + math.log2(_label_bytes(bits, label)), f"2^{bits:.4g} group labels",
                 GroupError)


def pauli_group(n: int) -> FiniteGroupRep:
    """The full phased Pauli group on n qubits: 4^{n+1} labels (p, x, z) at
    positions p 4^n + x 2^n + z."""
    if n < 1:
        raise GroupError(f"the Pauli group needs at least one qubit, got n={n}")
    _check_labels(2 * n + 2, (0, 0, 0))
    elements = itertools.product(range(4), range(1 << n), range(1 << n))
    mask = (1 << n) - 1

    def multiply(a, b):
        return (PauliOp(n, *a) * PauliOp(n, *b)).key()

    def inverse(a):
        p = PauliOp(n, *a)
        # Paulis are unitary, so the inverse is the adjoint
        return p.hermitian_conjugate().key()

    def act(at, amps):
        return pauli_action(n, at >> 2 * n, at >> n & mask, at & mask, amps)

    return FiniteGroupRep(elements, (0, 0, 0), multiply, inverse, act,
                          1 << n, name=f"pauli({n})")


def two_copy_pauli(n: int) -> FiniteGroupRep:
    """The two-copy Pauli group {+-B x B : B = X^x Z^z} = Z2^{2n+1}.

    Labels are (x, z, s), at position x 2^{n+1} + z 2 + s; signs compose by
    XOR because the sign picked up when multiplying the B factors appears
    squared.
    """
    _check_labels(2 * n + 1, (0, 0, 0))
    elements = itertools.product(range(1 << n), range(1 << n), (0, 1))
    mask = (1 << n) - 1

    def multiply(a, b):
        return (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2])

    def act(at, amps):
        # B x B is one 2n-qubit Pauli, and -1 is its phase i^2
        x, z = at >> n + 1, at >> 1 & mask
        return pauli_action(2 * n, 2 * (at & 1), x | x << n, z | z << n, amps)

    return FiniteGroupRep(elements, (0, 0, 0), multiply, lambda a: a, act,
                          1 << (2 * n), name=f"two_copy_pauli({n})")


def _stack_group(elements, identity, multiply, inverse, mats, name) -> FiniteGroupRep:
    """A group acting by a stored (order, dim, dim) stack, its ``unitaries``."""
    mats.flags.writeable = False
    rep = FiniteGroupRep(elements, identity, multiply, inverse,
                         lambda at, amps: mats[at] @ amps, len(mats[0]), name)
    rep.unitaries = mats
    return rep


@functools.cache
def clifford_group(n: int) -> FiniteGroupRep:
    """The Clifford group modulo global phase (n <= 2), one cached instance
    per n.  Labels are enumeration indices, 0 the identity; multiply and
    inverse build their index on first call."""
    if n > 2:
        raise GroupError("explicit Clifford group supported for n <= 2")
    group = next(clifford_batches(n, clifford_group_order(n)))
    mats = batch_unitaries(group)

    @functools.cache
    def index():
        return {group.row(i).key(): i for i in range(len(mats))}

    def multiply(a, b):
        return index()[group.row(a).compose(group.row(b)).key()]

    def inverse(a):
        return index()[group.row(a).inverse().key()]

    return _stack_group(range(len(mats)), 0, multiply, inverse, mats, f"clifford({n})")


def cyclic_group(order: int, rep_kind: str = "phase") -> FiniteGroupRep:
    """Z_N: 'phase' acts as powers of diag(1, w, ..., w^{N-1}); 'shift'
    acts by cyclic permutations, |j> -> |j + k>."""
    if rep_kind not in ("phase", "shift"):
        raise GroupError(f"unknown cyclic rep {rep_kind!r}")
    _check_labels(math.log2(order), 1)
    w = np.exp(2j * np.pi / order)

    def act(at, amps):
        j = np.arange(order)
        if rep_kind == "phase":
            ph = w ** (at[:, None] * j)
            return ph.reshape(ph.shape + (1,) * (amps.ndim - 1)) * amps
        return amps[(j - at[:, None]) % order].astype(complex, copy=False)

    return FiniteGroupRep(range(order), 0,
                          lambda a, b: (a + b) % order,
                          lambda a: (-a) % order,
                          act, order, name=f"cyclic({order},{rep_kind})")


def z2k_group(k: int) -> FiniteGroupRep:
    """Z2^k acting by X^v on k qubits."""
    _check_labels(k, 1)

    def act(at, amps):
        return pauli_action(k, 0 * at, at, 0 * at, amps)

    return FiniteGroupRep(range(1 << k), 0,
                          lambda a, b: a ^ b, lambda a: a,
                          act, 1 << k, name=f"z2k({k})")


def explicit_group(elements, matrices, identity=None) -> FiniteGroupRep:
    """Group from an explicit label -> matrix list; multiplication is
    recovered by matching products back to the list.  GroupError refuses
    matrices not square and unitary within ``linalg.UNITARY_TOL``, repeated
    labels and a declared identity not within ``MATCH_TOL`` of I."""
    labels, mats = list(elements), np.array(matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or np.any(
            np.linalg.norm(mats.conj().transpose(0, 2, 1) @ mats - np.eye(mats.shape[1]),
                           axis=(1, 2)) > UNITARY_TOL):
        raise GroupError("an explicit group needs square unitary matrices")
    index = {e: i for i, e in enumerate(labels)}
    if len(index) != len(labels):
        raise GroupError("an explicit group needs distinct labels")

    def match(m, error="explicit group is not closed under multiplication"):
        hits = np.flatnonzero(np.abs(mats - m).max(axis=(1, 2)) < MATCH_TOL)
        if not len(hits):
            raise GroupError(error)
        return labels[hits[0]]

    eye = np.eye(len(mats[0]))
    if identity is None:
        identity = match(eye, "no identity matrix found in explicit group")
    elif identity not in index or not np.abs(mats[index[identity]] - eye).max() < MATCH_TOL:
        raise GroupError(f"the identity label {identity!r} names no identity matrix")
    return _stack_group(labels, identity, lambda a, b: match(mats[index[a]] @ mats[index[b]]),
                        lambda a: match(mats[index[a]].conj().T), mats, "explicit")


def _spec_int(spec: dict, key: str) -> int:
    value = spec[key]
    if type(value) is not int or value < 1:
        raise GroupError(f"group field {key!r} must be an integer >= 1, got {value!r}")
    return value


def group_from_spec(spec: dict) -> FiniteGroupRep:
    """Build a group from a JSON-style spec dict; a missing field raises
    KeyError and a field of the wrong kind GroupError."""
    kind = spec["type"]
    if kind == "pauli":
        return pauli_group(_spec_int(spec, "n"))
    if kind == "clifford":
        return clifford_group(_spec_int(spec, "n"))
    if kind == "two_copy_pauli":
        return two_copy_pauli(_spec_int(spec, "n"))
    if kind == "cyclic":
        return cyclic_group(_spec_int(spec, "N"), spec.get("rep", "phase"))
    if kind == "z2k":
        return z2k_group(_spec_int(spec, "k"))
    if kind == "explicit":
        labels, identity = spec["elements"], spec.get("identity")
        mats = _pairs(spec["matrices"])
        if (mats is None or not isinstance(labels, list) or len(labels) != len(mats)
                or any(type(e) not in (str, int) for e in labels)
                or identity is not None and type(identity) not in (str, int)):
            raise GroupError("an explicit group needs one str or int label per finite "
                             "[re, im] matrix, all of one shape")
        return explicit_group(labels, mats, identity)
    raise GroupError(f"unknown group type {kind!r}")
