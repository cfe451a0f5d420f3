"""Finite groups with unitary representations, twirls, and dihedralization.

Groups are desk scale: elements are opaque hashable labels with explicit
multiply/inverse callbacks, and every element has a dense unitary.  The
representation matrices are read-only after construction; twirls sum in
the fixed element order so results are bit-stable.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import DensityMatrix, fidelity_matrices, sqrt_fidelity
from .paulis import (PauliOp, CliffordElement, batch_unitaries, clifford_batches,
                     clifford_group_order)

HOM_TOL = 1e-8
_BLOCK_ENTRIES = 1 << 16     # matrix entries per block of group elements in the twirls


class GroupError(ValueError):
    pass


def _density(dim: int, matrix: np.ndarray) -> DensityMatrix:
    n = dim.bit_length() - 1
    if 1 << n != dim:
        raise GroupError(f"dimension {dim} is not a power of two")
    return DensityMatrix(n, matrix)


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

    ``multiply`` and ``inverse`` operate on labels; ``unitary`` returns a
    dense matrix per label.  The action must be a homomorphism up to the
    declared phase convention (exact for most built-ins, global phase
    only for the Clifford group).
    """

    def __init__(self, elements, identity, multiply: Callable, inverse: Callable,
                 unitary: Callable, dim: int, name: str = "",
                 phase_free: bool = False):
        self.elements = tuple(elements)
        if identity not in set(self.elements):
            raise GroupError("identity label missing from element list")
        self.identity = identity
        self.multiply = multiply
        self.inverse = inverse
        self._unitary = unitary
        self._cache = {}
        self.dim = dim
        self.name = name
        self.phase_free = phase_free

    @property
    def order(self) -> int:
        return len(self.elements)

    def unitary(self, g) -> np.ndarray:
        u = self._cache.get(g)
        if u is None:
            u = np.asarray(self._unitary(g), dtype=complex)
            if u.shape != (self.dim, self.dim):
                raise GroupError(f"unitary for {g!r} has wrong shape {u.shape}")
            self._cache[g] = u
        return u

    def acts_trivially(self, g) -> bool:
        """Whether R(g) is a global phase times the identity, so that g
        leaves every state unchanged."""
        u = self.unitary(g)
        tr = np.trace(u) / self.dim
        return bool(abs(tr) > 1 - 1e-10
                    and np.max(np.abs(u - tr * np.eye(self.dim))) < 1e-10)

    def is_abelian(self, rng: Optional[np.random.Generator] = None,
                   max_pairs: int = 10_000) -> bool:
        els = self.elements
        if len(els) <= 512:
            pairs = itertools.combinations(range(len(els)), 2)
        else:
            rng = rng or np.random.default_rng(0)
            pairs = (
                tuple(rng.integers(len(els), size=2))
                for _ in range(min(len(els) ** 2, max_pairs))
            )
        for i, j in pairs:
            a, b = els[i], els[j]
            if self.multiply(a, b) != self.multiply(b, a):
                return False
        return True

    def check_homomorphism(self, rng: np.random.Generator, samples: int = 100,
                           tol: float = HOM_TOL) -> float:
        """Max deviation of R(g)R(h) from R(gh) over sampled pairs.

        Phase-free reps are compared after aligning global phases.
        """
        worst = 0.0
        for _ in range(samples):
            g = self.elements[int(rng.integers(self.order))]
            h = self.elements[int(rng.integers(self.order))]
            lhs = self.unitary(g) @ self.unitary(h)
            rhs = self.unitary(self.multiply(g, h))
            if self.phase_free:
                tr = np.trace(rhs.conj().T @ lhs)
                if abs(tr) > 1e-12:
                    lhs = lhs * (abs(tr) / tr)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        eye = np.eye(self.dim)
        worst = max(worst, float(np.max(np.abs(self.unitary(self.identity) - eye))))
        if worst > tol:
            raise GroupError(f"action fails homomorphism check by {worst:.2e}")
        return worst


class DihedralizedRep(FiniteGroupRep):
    """Generalized dihedral extension of an abelian rep.

    Elements are (g, a) with a in Z2; the action doubles the dimension:
    R'(g, 0) = |0><0| x R(g) + |1><1| x R(-g) and R'(0, 1) = X x I.
    """

    def __init__(self, base: FiniteGroupRep):
        if not base.is_abelian():
            raise GroupError("dihedralization requires an abelian base group")
        self.base = base
        elements = [(g, a) for g in base.elements for a in (0, 1)]

        def multiply(p, q):
            (g, a), (h, b) = p, q
            h2 = base.inverse(h) if a else h
            return (base.multiply(g, h2), (a + b) % 2)

        def inverse(p):
            g, a = p
            return (g, a) if a else (base.inverse(g), 0)

        def unitary(p):
            g, a = p
            d = base.dim
            u = np.zeros((2 * d, 2 * d), dtype=complex)
            u[:d, :d] = base.unitary(g)
            u[d:, d:] = base.unitary(base.inverse(g))
            if a:
                u = u @ np.block(
                    [[np.zeros((d, d)), np.eye(d)], [np.eye(d), np.zeros((d, d))]]
                )
            return u

        super().__init__(
            elements, (base.identity, 0), multiply, inverse, unitary,
            2 * base.dim, name=f"dihedral({base.name})",
            phase_free=base.phase_free,
        )


def dihedralize(rep: FiniteGroupRep) -> DihedralizedRep:
    return DihedralizedRep(rep)


# ----------------------------------------------------------------------
# Twirling channels
# ----------------------------------------------------------------------

def _conjugate_blocks(rep: FiniteGroupRep, m: np.ndarray, step: int):
    """R(g) m R(g)^dag in element order, as (B, dim, dim) stacks of B <= step."""
    for lo in range(0, rep.order, step):
        u = np.stack([rep.unitary(g) for g in rep.elements[lo:lo + step]])
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


def k_twirl(rep: FiniteGroupRep, rho: DensityMatrix, k: int,
            max_dim: int = 1 << 13) -> DensityMatrix:
    """(1/|G|) sum_g (R(g) rho R(g)^dag)^{x k}.

    With T_g = R(g) rho R(g)^dag and a = k // 2, the sum is one product
    sum_g vec(T_g^{x a}) vec(T_g^{x (k-a)})^T, which a transpose of the
    row and column indices turns into the k-fold tensor power.
    """
    if k < 1:
        raise GroupError("k must be a positive integer")
    if rho.dim != rep.dim:
        raise GroupError("density matrix dimension does not match rep")
    if rep.dim**k > max_dim:
        raise GroupError(
            f"k-twirl dimension {rep.dim}^{k} exceeds the guard ({max_dim})"
        )
    a, b = k // 2, k - k // 2
    da, db, dk = rep.dim**a, rep.dim**b, rep.dim**k
    # blocks of elements whose factor rows hold no more entries than the
    # accumulator (or _BLOCK_ENTRIES), so that memory stays O(d^{2k})
    step = max(1, max(dk * dk, _BLOCK_ENTRIES) // (da * da + db * db))
    acc = np.zeros((da * da, db * db), dtype=complex)
    for t in _conjugate_blocks(rep, rho.matrix, step):
        acc += _vec_kron_powers(t, a).T @ _vec_kron_powers(t, b)
    acc = acc.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(dk, dk)
    return _density(dk, acc / rep.order)


@dataclass(frozen=True)
class TwirlBoundReport:
    epsilon: float          # max pairwise fidelity over unitary pairs
    twirled_fidelity: float
    bound: float            # epsilon * |S|
    slack: float            # bound - twirled_fidelity
    satisfied: bool


def check_twirl_fidelity_bound(rep: FiniteGroupRep, rho: DensityMatrix,
                               sigma: DensityMatrix,
                               slack_tol: float = 1e-7) -> TwirlBoundReport:
    """Check F(E(rho), E(sigma)) <= |S| * max_{U,V} F(U rho U^dag, V sigma V^dag).

    Since S is a group, the pairwise maximum reduces to a single sweep
    over w = U^dag V.
    """
    step = max(1, _BLOCK_ENTRIES // rep.dim**2)
    eps = max(0.0, *(float(fidelity_matrices(rho.matrix, t).max())
                     for t in _conjugate_blocks(rep, sigma.matrix, step)))
    tf = sqrt_fidelity(twirl(rep, rho), twirl(rep, sigma))
    bound = eps * rep.order
    slack = bound - tf
    return TwirlBoundReport(eps, tf, bound, slack, slack >= -slack_tol)


def max_trace_ratio(rep: FiniteGroupRep) -> float:
    """mu = max over nontrivially-acting g of |Tr R(g)| / dim.

    Elements whose unitary is a global phase times the identity act
    trivially on states and are skipped along with the identity label.
    """
    mu = 0.0
    for g in rep.elements:
        if g == rep.identity or rep.acts_trivially(g):
            continue
        mu = max(mu, abs(np.trace(rep.unitary(g)) / rep.dim))
    return float(mu)


# ----------------------------------------------------------------------
# Built-in groups
# ----------------------------------------------------------------------

def pauli_group(n: int) -> FiniteGroupRep:
    """The full phased Pauli group on n qubits: 4^{n+1} elements (phase, x, z)."""
    if n < 1:
        raise GroupError(f"the Pauli group needs at least one qubit, got n={n}")
    elements = [
        (p, x, z)
        for p in range(4)
        for x in range(1 << n)
        for z in range(1 << n)
    ]

    def multiply(a, b):
        return (PauliOp(n, *a) * PauliOp(n, *b)).key()

    def inverse(a):
        p = PauliOp(n, *a)
        # Paulis are unitary, so the inverse is the adjoint
        return p.hermitian_conjugate().key()

    def unitary(a):
        return PauliOp(n, *a).to_matrix()

    return FiniteGroupRep(elements, (0, 0, 0), multiply, inverse, unitary,
                          1 << n, name=f"pauli({n})")


def two_copy_pauli(n: int) -> FiniteGroupRep:
    """The two-copy Pauli group {+-B x B : B = X^x Z^z} = Z2^{2n+1}.

    Labels are (x, z, s); signs compose by XOR because the sign picked up
    when multiplying the B factors appears squared.
    """
    if n > 4:
        raise GroupError("two-copy Pauli group supported for n <= 4")
    elements = [
        (x, z, s) for x in range(1 << n) for z in range(1 << n) for s in (0, 1)
    ]

    def multiply(a, b):
        return (a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2])

    def unitary(a):
        x, z, s = a
        b = PauliOp(n, 0, x, z).to_matrix()
        return (-1) ** s * np.kron(b, b)

    return FiniteGroupRep(elements, (0, 0, 0), multiply, lambda a: a, unitary,
                          1 << (2 * n), name=f"two_copy_pauli({n})")


def clifford_group(n: int) -> FiniteGroupRep:
    """The Clifford group modulo global phase (n <= 2), labels are indices."""
    if n > 2:
        raise GroupError("explicit Clifford group supported for n <= 2")
    group = next(clifford_batches(n, clifford_group_order(n)))
    rows = np.stack((group.ph, group.x, group.z), axis=-1).tolist()
    index = {tuple(map(tuple, row)): i for i, row in enumerate(rows)}
    mats = batch_unitaries(group)

    def multiply(a, b):
        return index[group.row(a).compose(group.row(b)).key()]

    def inverse(a):
        return index[group.row(a).inverse().key()]

    def unitary(a):
        return mats[a]

    ident = index[CliffordElement.identity(n).key()]
    return FiniteGroupRep(range(len(rows)), ident, multiply, inverse, unitary,
                          1 << n, name=f"clifford({n})", phase_free=True)


def cyclic_group(order: int, rep_kind: str = "phase") -> FiniteGroupRep:
    """Z_N: 'phase' acts as powers of diag(1, w, ..., w^{N-1}); 'shift'
    acts by cyclic permutation matrices."""
    if rep_kind not in ("phase", "shift"):
        raise GroupError(f"unknown cyclic rep {rep_kind!r}")
    w = np.exp(2j * np.pi / order)

    def unitary(k):
        if rep_kind == "phase":
            return np.diag(w ** (k * np.arange(order)))
        m = np.zeros((order, order), dtype=complex)
        for j in range(order):
            m[(j + k) % order, j] = 1
        return m

    return FiniteGroupRep(range(order), 0,
                          lambda a, b: (a + b) % order,
                          lambda a: (-a) % order,
                          unitary, order, name=f"cyclic({order},{rep_kind})")


def z2k_group(k: int) -> FiniteGroupRep:
    """Z2^k acting by X^v on k qubits."""
    def unitary(v):
        return PauliOp(k, 0, v, 0).to_matrix()

    return FiniteGroupRep(range(1 << k), 0,
                          lambda a, b: a ^ b, lambda a: a,
                          unitary, 1 << k, name=f"z2k({k})")


def explicit_group(elements, matrices, identity=None, tol: float = 1e-8) -> FiniteGroupRep:
    """Group from an explicit label -> matrix list; multiplication is
    recovered by matching products back to the list."""
    mats = {e: np.asarray(m, dtype=complex) for e, m in zip(elements, matrices)}
    dim = next(iter(mats.values())).shape[0]
    if identity is None:
        for e, m in mats.items():
            if np.max(np.abs(m - np.eye(dim))) < tol:
                identity = e
                break
        else:
            raise GroupError("no identity matrix found in explicit group")

    def match(m):
        for e2, m2 in mats.items():
            if np.max(np.abs(m - m2)) < tol:
                return e2
        raise GroupError("explicit group is not closed under multiplication")

    def multiply(a, b):
        return match(mats[a] @ mats[b])

    def inverse(a):
        return match(mats[a].conj().T)

    return FiniteGroupRep(list(elements), identity, multiply, inverse,
                          lambda e: mats[e], dim, name="explicit")


def group_from_spec(spec: dict) -> FiniteGroupRep:
    """Build a group from a JSON-style spec dict."""
    if "type" not in spec:
        raise GroupError("group spec needs a 'type' field")
    kind = spec["type"]
    if kind == "pauli":
        return pauli_group(int(spec["n"]))
    if kind == "clifford":
        return clifford_group(int(spec["n"]))
    if kind == "two_copy_pauli":
        return two_copy_pauli(int(spec["n"]))
    if kind == "cyclic":
        return cyclic_group(int(spec["N"]), spec.get("rep", "phase"))
    if kind == "z2k":
        return z2k_group(int(spec["k"]))
    if kind == "explicit":
        matrices = [
            [[complex(re, im) for re, im in row] for row in m]
            for m in spec["matrices"]
        ]
        return explicit_group(spec["elements"], matrices,
                              spec.get("identity"))
    raise GroupError(f"unknown group type {kind!r}")
