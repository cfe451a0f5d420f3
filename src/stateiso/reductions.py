"""Executable reductions between graph isomorphism, state isomorphism,
and distinguishability problems, with numeric verifiers.

Includes the Clifford encoding of graphs via |R>-padded graph states, the
low-stabilizer-rank variant, the BQP-hardness instance builder, the
distinguishability paddings, and the permutation-lemma sweeps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

import numpy as np

from . import obs
from .linalg import (
    Circuit, DensityMatrix, StateVector, run_circuit, sqrt_fidelity,
    trace_norm,
)
from .graphs import Graph, find_isomorphism
from .groups import DecisionThresholds, FiniteGroupRep
from .paulis import (
    CliffordBatch, CliffordElement, batch_block_size, batch_overlaps,
    batch_r_overlap_sq, clifford_batches, graph_state, qubit_permutation_clifford,
    r_minus_state, r_state, r_state_product, random_clifford_batch,
)
from .psgi import PsgiInstance, PsgiVerdict

GI_THRESHOLDS = DecisionThresholds(0.99999, 1.0)
LEMMA_PERM_THRESHOLD = 0.9999


class ReductionError(ValueError):
    pass


def lowrank_thresholds(n: int) -> DecisionThresholds:
    """(1 - 1/(96 n^5), 1) promise for the low-rank graph encoding."""
    return DecisionThresholds(1.0 - 1.0 / (96 * n**5), 1.0)


# ----------------------------------------------------------------------
# GI -> Clifford state isomorphism
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GiCliffordInstance:
    """psi_i = (|R>|R^n> + |R_->|G_i>)/sqrt(2) on n+1 qubits.

    YES instances are decided by the qubit permutation implementing the
    graph isomorphism; the promise is (0.99999, 1).
    """

    g1: Graph
    g2: Graph
    psi1: StateVector
    psi2: StateVector
    thresholds: DecisionThresholds = GI_THRESHOLDS

    @property
    def n_qubits(self) -> int:
        return self.g1.n + 1

    def overlap(self, c: CliffordElement) -> complex:
        return complex(np.vdot(self.psi1.amplitudes, c.apply(self.psi2).amplitudes))

    def permutation_witness(self) -> Optional[CliffordElement]:
        """The qubit permutation Clifford achieving overlap 1, if the
        graphs are isomorphic: fixes the control qubit, permutes targets."""
        perm = find_isomorphism(self.g2, self.g1)
        if perm is None:
            return None
        qperm = (0,) + tuple(1 + perm[i] for i in range(self.g1.n))
        return qubit_permutation_clifford(qperm, self.n_qubits)


def _encode_graph_clifford(g: Graph) -> StateVector:
    left = r_minus_state().amplitudes
    amps = np.kron(r_state().amplitudes, r_state_product(g.n).amplitudes)
    amps = amps + np.kron(left, graph_state(g).amplitudes)
    return StateVector(g.n + 1, amps / math.sqrt(2))


def gi_to_clifford(g1: Graph, g2: Graph):
    """Encode a graph pair; mismatched vertex or edge counts are rejected
    up front with a NO verdict rather than encoded."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return PsgiVerdict("NO", None, 0j)
    return GiCliffordInstance(g1, g2, _encode_graph_clifford(g1),
                              _encode_graph_clifford(g2))


# ----------------------------------------------------------------------
# Random-Clifford overlap sweeps
# ----------------------------------------------------------------------

def clifford_overlap_sweep(psi1: StateVector, psi2: StateVector, count: int,
                           seed: int, threshold: float) -> dict:
    """Sample ``count`` uniform Cliffords; report the max |<psi1|C|psi2>|
    and how many exceed ``threshold``."""
    n = psi1.n_qubits
    if psi2.n_qubits != n:
        raise ReductionError("state size mismatch")
    if count < 1:
        raise ReductionError(f"a sweep needs at least one Clifford, got count={count}")
    rng = np.random.default_rng(seed)
    max_ov = 0.0
    exceed = 0
    step = batch_block_size(1 << n)
    with obs.span("reductions.clifford_overlap_sweep"):
        for lo in range(0, count, step):
            batch = random_clifford_batch(n, rng, min(step, count - lo))
            ov = np.abs(batch_overlaps(batch, psi1, psi2))
            max_ov = max(max_ov, ov.max())
            exceed += int(np.count_nonzero(ov > threshold))
    return {"count": count, "seed": seed, "threshold": threshold,
            "max_overlap": float(max_ov), "exceed_count": exceed}


NONISO_LIBRARY = (
    (Graph.path(4), Graph.star(4)),
    (Graph.path(5), Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))),
    (Graph.cycle(5), Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4)))),
)


# ----------------------------------------------------------------------
# Permutation lemma sweeps
# ----------------------------------------------------------------------

def verify_lemma_perm(n: int, mode: str = "exhaustive", samples: int = 0,
                      seed: int = 0,
                      threshold: float = LEMMA_PERM_THRESHOLD) -> dict:
    """Check that every Clifford with |<R^n|C|R^n>|^2 >= threshold is a
    qubit permutation.  Exhaustive for n <= 2, sampled otherwise."""
    if n < 1:
        raise ReductionError(f"n must be >= 1 qubit, got {n}")
    if mode == "sampled" and samples < 1:
        raise ReductionError(f"sampled mode needs samples >= 1, got {samples}")
    step = batch_block_size(3 ** n)
    if mode == "exhaustive":
        batches = clifford_batches(n, step)
    elif mode == "sampled":
        rng = np.random.default_rng(seed)
        batches = (random_clifford_batch(n, rng, min(step, samples - lo))
                   for lo in range(0, samples, step))
    else:
        raise ReductionError(f"unknown mode {mode!r}")
    checked = above = perms = 0
    violations = []
    for batch in batches:
        scores = batch_r_overlap_sq(batch)
        checked += len(scores)
        # only the few rows at or above the threshold are checked, and only
        # the violations become elements
        high = np.flatnonzero(scores >= threshold)
        perm = CliffordBatch(n, *(a[high] for a in batch[1:])).permutation_mask()
        above += len(high)
        perms += int(perm.sum())
        violations += [batch.row(b).key() for b in high[~perm]]
    return {
        "n": n, "mode": mode, "checked": checked, "threshold": threshold,
        "above_threshold": above, "permutations": perms,
        "violations": violations,
        "fraction_permutations": (perms / above) if above else 1.0,
    }


def verify_first_qubit_claim(instances) -> dict:
    """Among all qubit permutations, those achieving overlap >= the GI
    threshold on encoded instances must fix the control qubit (index 0)."""
    results = []
    ok = True
    for inst in instances:
        nq = inst.n_qubits
        for perm in permutations(range(nq)):
            c = qubit_permutation_clifford(perm, nq)
            ov = abs(inst.overlap(c))
            if ov >= inst.thresholds.alpha:
                fixes = perm[0] == 0
                ok = ok and fixes
                results.append({"perm": perm, "overlap": ov, "fixes_control": fixes})
    return {"passed": ok, "high_overlap_permutations": results}


# ----------------------------------------------------------------------
# Low-stabilizer-rank encoding
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LowRankState:
    """Linear combination of product/graph stabilizer terms.

    Each term is (coefficient, factors); a factor is one of the strings
    "0", "1", "R", "R-" (single qubit) or ("graph", Graph) (n qubits).
    """

    n_qubits: int
    terms: tuple
    rank_bound: int

    def __post_init__(self):
        if len(self.terms) > self.rank_bound:
            raise ReductionError(
                f"{len(self.terms)} terms exceed declared rank bound {self.rank_bound}"
            )

    def materialize(self) -> StateVector:
        total = np.zeros(1 << self.n_qubits, dtype=complex)
        for coeff, factors in self.terms:
            amps = np.ones(1, dtype=complex)
            width = 0
            for f in factors:
                if isinstance(f, tuple) and f[0] == "graph":
                    part = graph_state(f[1]).amplitudes
                    width += f[1].n
                elif f == "0":
                    part = np.array([1.0, 0.0], dtype=complex)
                    width += 1
                elif f == "1":
                    part = np.array([0.0, 1.0], dtype=complex)
                    width += 1
                elif f == "R":
                    part = r_state().amplitudes
                    width += 1
                elif f == "R-":
                    part = r_minus_state().amplitudes
                    width += 1
                else:
                    raise ReductionError(f"unknown factor {f!r}")
                amps = np.kron(amps, part)
            if width != self.n_qubits:
                raise ReductionError("term width does not match n_qubits")
            total += coeff * amps
        nrm = np.linalg.norm(total)
        if abs(nrm - 1.0) > 1e-9:
            raise ReductionError(f"low-rank state norm {nrm} off unity")
        return StateVector(self.n_qubits, total)


def build_m_state(n: int) -> LowRankState:
    """|M> = c_n sum_{i<j} |R_i R_j 0...0>, with c_n from the exact Gram
    matrix of the non-orthogonal terms (<R|0> = 1/sqrt(2))."""
    if n < 2:
        raise ReductionError("need n >= 2")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # Gram entries depend only on the symmetric difference of the pairs
    total = 0.0
    for a in pairs:
        for b in pairs:
            diff = len(set(a) ^ set(b))
            total += 0.5 ** (diff // 2)
    c = 1.0 / math.sqrt(total)
    terms = []
    for i, j in pairs:
        factors = tuple(
            "R" if q in (i, j) else "0" for q in range(n)
        )
        terms.append((c, factors))
    return LowRankState(n, tuple(terms), rank_bound=len(pairs))


def lowrank_gi_instance(g1: Graph, g2: Graph, graph_weight: Optional[float] = None):
    """psi_i = a_i |M> + b |G_i> with b = min(0.1, n^-11) and a_i solved
    from exact normalization; the promise is (1 - 1/(96 n^5), 1).

    ``graph_weight`` overrides b; values well above the default make the
    two states statistically distinguishable at small sample counts, which
    the interactive-protocol demonstrations need.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return PsgiVerdict("NO", None, 0j)
    n = g1.n
    m = build_m_state(n)
    m_amps = m.materialize().amplitudes
    b = min(0.1, float(n) ** -11) if graph_weight is None else float(graph_weight)
    if not 0 < b < 1:
        raise ReductionError(f"graph weight must be in (0,1), got {b}")
    states = []
    for g in (g1, g2):
        gs = graph_state(g).amplitudes
        cross = float(np.vdot(m_amps, gs).real)
        # solve a^2 + 2ab<M|G> + b^2 = 1 for the positive root
        a = -b * cross + math.sqrt(b * b * cross * cross + 1 - b * b)
        terms = tuple((a * c, f) for c, f in m.terms) + ((b, (("graph", g),)),)
        states.append(LowRankState(n, terms, rank_bound=len(m.terms) + 1))
    return states[0], states[1], lowrank_thresholds(n)


_PHASES = np.array([1, 1j, -1, -1j])


def diagonal_permutation_overlap_sweep(psi1: StateVector, psi2: StateVector,
                                       count: int, seed: int,
                                       threshold: float) -> dict:
    """Sample permutation x diagonal-Clifford unitaries and report the
    max |<psi1|D P|psi2>| (soundness sweep for the low-rank encoding)."""
    n = psi1.n_qubits
    rng = np.random.default_rng(seed)
    d = 1 << n
    idx = np.arange(d)
    bits = [(idx >> (n - 1 - q)) & 1 for q in range(n)]
    a1 = psi1.amplitudes.conj()
    max_ov = 0.0
    exceed = 0
    perms = list(permutations(range(n)))
    for _ in range(count):
        perm = perms[int(rng.integers(len(perms)))]
        # P|x_0..x_{n-1}> sends qubit q to perm[q]
        target = np.zeros(d, dtype=np.int64)
        for q in range(n):
            target |= bits[q] << (n - 1 - perm[q])
        permuted = np.zeros(d, dtype=complex)
        permuted[target] = psi2.amplitudes
        # diagonal Clifford: i^{q_i x_i} and (-1)^{r_ij x_i x_j}
        phase = np.zeros(d, dtype=np.int64)
        for q in range(n):
            phase += int(rng.integers(4)) * bits[q]
        for q in range(n):
            for r in range(q + 1, n):
                phase += 2 * int(rng.integers(2)) * bits[q] * bits[r]
        ov = abs(np.dot(a1, _PHASES[phase & 3] * permuted))
        if ov > max_ov:
            max_ov = ov
        if ov > threshold:
            exceed += 1
    return {"count": count, "seed": seed, "threshold": threshold,
            "max_overlap": float(max_ov), "exceed_count": exceed}


# ----------------------------------------------------------------------
# BQP hardness instance
# ----------------------------------------------------------------------

def bqp_hardness_instance(q: Circuit, phi: Circuit, rep: FiniteGroupRep,
                          thresholds: DecisionThresholds = DecisionThresholds(0.6, 0.99)):
    """psi1 = Q'|0^n>, psi2 = |phi>; also reports the hiding diagnostic
    max_g |<phi|R(g)|0^n>| which must be small for soundness."""
    psi1 = run_circuit(q)
    psi2 = run_circuit(phi)
    inst = PsgiInstance(psi1, psi2, rep, thresholds)
    zero = np.zeros(rep.dim, dtype=complex)
    zero[0] = 1.0
    hiding = max(
        abs(np.vdot(psi2.amplitudes, rep.unitary(g) @ zero))
        for g in rep.elements
    )
    self_ov = max(
        (abs(np.vdot(psi2.amplitudes, rep.unitary(g) @ psi2.amplitudes))
         for g in rep.elements if not rep.acts_trivially(g)),
        default=0.0,
    )
    diag = {"max_hiding_overlap": float(hiding),
            "max_self_overlap": float(self_ov)}
    return inst, diag


def brick_layer_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """Seeded pseudo-random circuit: layers of random 1q gates with CZ
    bricks in between; used as a desk-scale t-design surrogate."""
    singles = ("H", "T", "S", "X", "TDG", "SDG")
    gates = []
    for layer in range(depth):
        for q in range(n):
            gates.append((singles[int(rng.integers(len(singles)))], (q,)))
        start = layer % 2
        for q in range(start, n - 1, 2):
            gates.append(("CZ", (q, q + 1)))
    return Circuit(n, tuple(gates))


# ----------------------------------------------------------------------
# Distinguishability reductions
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MsgiInstance:
    sigma1: DensityMatrix
    sigma2: DensityMatrix
    rep: FiniteGroupRep
    thresholds: DecisionThresholds
    seed: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)


def qsd_to_msgi(sigma1: DensityMatrix, sigma2: DensityMatrix,
                rep: FiniteGroupRep, seed: int,
                thresholds: DecisionThresholds = DecisionThresholds(0.6, 0.99)) -> MsgiInstance:
    """Pad both states with a common pseudo-random pure state:
    sigma_i' = 1/2 sigma_i + 1/2 |psi><psi|."""
    if sigma1.dim != rep.dim or sigma2.dim != rep.dim:
        raise ReductionError("state dimension does not match rep")
    n = sigma1.n_qubits
    rng = np.random.default_rng(seed)
    psi = run_circuit(brick_layer_circuit(n, 8 * n, rng))
    pad = np.outer(psi.amplitudes, psi.amplitudes.conj())
    s1 = DensityMatrix(n, 0.5 * sigma1.matrix + 0.5 * pad)
    s2 = DensityMatrix(n, 0.5 * sigma2.matrix + 0.5 * pad)
    diag = {
        "identity_fidelity": sqrt_fidelity(s1, s2),
        "max_fidelity": max(
            sqrt_fidelity(
                DensityMatrix(n, rep.unitary(g) @ s1.matrix @ rep.unitary(g).conj().T),
                s2,
            )
            for g in rep.elements
        ),
    }
    return MsgiInstance(s1, s2, rep, thresholds, seed, diag)


@dataclass(frozen=True)
class MixedHspInstance:
    rho: DensityMatrix
    rep: FiniteGroupRep     # base rep of G on the label space
    h: object               # distinguished involution
    v1: np.ndarray
    v2: np.ndarray

    def extended_unitary(self, g) -> np.ndarray:
        """R'(g) = R(g) x I on the label x data space."""
        d_data = self.rho.dim // self.rep.dim
        return np.kron(self.rep.unitary(g), np.eye(d_data))


def qsd_to_mixed_hsp(sigma1: DensityMatrix, sigma2: DensityMatrix,
                     rep: FiniteGroupRep, h) -> MixedHspInstance:
    """rho = 1/2 |v1><v1| x sigma1 + 1/2 |v2><v2| x sigma2, where the
    label vectors are built from the +-1 eigenvectors of R(h) so that
    R(h)|v1> = |v2>."""
    if sigma1.dim != sigma2.dim:
        raise ReductionError("sigma dimensions differ")
    rh = rep.unitary(h)
    if np.max(np.abs(rh @ rh - np.eye(rep.dim))) > 1e-8:
        raise ReductionError("h is not an involution in this representation")
    evals, evecs = np.linalg.eigh(rh)
    minus = np.where(evals < 0)[0]
    plus = np.where(evals > 0)[0]
    if len(minus) == 0 or len(plus) == 0:
        raise ReductionError("R(h) lacks a +-1 eigenvalue pair")

    def canon(v):
        lead = v[np.argmax(np.abs(v) > 1e-12)]
        return v * (abs(lead) / lead)

    h_plus = canon(evecs[:, plus[0]])
    h_minus = canon(evecs[:, minus[0]])
    v1 = (h_plus + h_minus) / math.sqrt(2)
    v2 = (h_plus - h_minus) / math.sqrt(2)
    rho_m = 0.5 * np.kron(np.outer(v1, v1.conj()), sigma1.matrix) \
        + 0.5 * np.kron(np.outer(v2, v2.conj()), sigma2.matrix)
    nq = int(math.log2(rep.dim * sigma1.dim))
    return MixedHspInstance(DensityMatrix(nq, rho_m), rep, h, v1, v2)


def trace_distance_transfer(inst: MixedHspInstance, sigma1: DensityMatrix,
                            sigma2: DensityMatrix) -> tuple:
    """Both sides of ||rho - R'(h) rho R'(h)^dag||_1 = ||sigma1 - sigma2||_1."""
    u = inst.extended_unitary(inst.h)
    lhs = trace_norm(inst.rho.matrix - u @ inst.rho.matrix @ u.conj().T)
    rhs = trace_norm(sigma1.matrix - sigma2.matrix)
    return float(lhs), float(rhs)
