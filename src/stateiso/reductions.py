"""Executable reductions between graph isomorphism, state isomorphism,
and distinguishability problems, with numeric verifiers.

Includes the Clifford encoding of graphs via |R>-padded graph states, the
low-stabilizer-rank variant, the BQP-hardness instance builder, the
distinguishability paddings, and the permutation-lemma sweeps, which score
only the Cliffords that their X images leave in play.  Both overlap
sweeps (uniform Cliffords; the low-rank soundness check's diagonal x qubit
permutation Cliffords D P, from ``paulis``) score blocks of tableau rows by
``batch_overlaps``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Optional

import numpy as np

from . import obs
from .linalg import (
    Circuit, DensityMatrix, StateVector, check_budget, kron_vectors, run_circuit,
    sqrt_fidelity, trace_norm,
)
from .graphs import Graph, find_isomorphism
from .groups import DecisionThresholds, FiniteGroupRep, max_conjugate_fidelity
from .paulis import (
    COS8, CliffordBatch, CliffordElement, PauliError, batch_block_size, batch_overlaps,
    batch_r_overlap_sq, batch_x_image_expectations, clifford_elements,
    diagonal_permutation_batch, graph_state, qubit_permutation_batch,
    qubit_permutation_clifford, r_minus_state, r_overlap_bytes, r_state, r_state_product,
    random_clifford_batch, sign_factored_r_overlap_sq, symplectic_group_order,
)
from .psgi import PsgiInstance, PsgiVerdict

GI_THRESHOLDS = DecisionThresholds(0.99999, 1.0)
LEMMA_PERM_THRESHOLD = 0.9999
PROMISE_THRESHOLDS = DecisionThresholds(0.6, 0.99)   # of the hardness and padding instances


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


def _check_encoding(n_qubits: int, states: int) -> None:
    """Raise ReductionError before a graph-state encoding whose tracemalloc
    peak, ``states`` dense n-qubit vectors of 16 * 2^n bytes each, would go
    over ``linalg.check_budget``."""
    check_budget(n_qubits + math.log2(16 * states), f"encoding a graph on {n_qubits} qubits "
                 f"({states} dense states) at its peak", ReductionError)


def _encode_graph_clifford(g: Graph) -> StateVector:
    left = r_minus_state().amplitudes
    amps = kron_vectors(r_state().amplitudes, r_state_product(g.n).amplitudes)
    amps = amps + kron_vectors(left, graph_state(g).amplitudes)
    return StateVector(g.n + 1, amps / math.sqrt(2))


def gi_to_clifford(g1: Graph, g2: Graph):
    """Encode a graph pair; mismatched vertex or edge counts are rejected
    up front with a NO verdict rather than encoded.  Encoding both graphs
    peaks near four (n+1)-qubit states."""
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return PsgiVerdict("NO", None, 0j)
    _check_encoding(g1.n + 1, 4)
    return GiCliffordInstance(g1, g2, _encode_graph_clifford(g1),
                              _encode_graph_clifford(g2))


# ----------------------------------------------------------------------
# Random-Clifford overlap sweeps
# ----------------------------------------------------------------------

def _overlap_sweep(psi1: StateVector, psi2: StateVector, count: int, seed: int,
                   threshold: float, draw) -> dict:
    """The max |<psi1|C|psi2>| over ``count`` Cliffords drawn a block at a time
    by ``draw(n, rng, size)``, and how many exceed ``threshold``."""
    n = psi1.n_qubits
    if psi2.n_qubits != n:
        raise ReductionError("state size mismatch")
    if count < 1:
        raise ReductionError(f"a sweep needs at least one Clifford, got count={count}")
    rng = np.random.default_rng(seed)
    max_ov = 0.0
    exceed = 0
    step = batch_block_size(1 << n)
    for lo in range(0, count, step):
        ov = np.abs(batch_overlaps(draw(n, rng, min(step, count - lo)), psi1, psi2))
        max_ov = max(max_ov, ov.max())
        exceed += int(np.count_nonzero(ov > threshold))
    return {"count": count, "seed": seed, "threshold": threshold,
            "max_overlap": float(max_ov), "exceed_count": exceed}


def clifford_overlap_sweep(psi1: StateVector, psi2: StateVector, count: int,
                           seed: int, threshold: float) -> dict:
    """Sample ``count`` uniform Cliffords; report the max |<psi1|C|psi2>|
    and how many exceed ``threshold``."""
    with obs.span("reductions.clifford_overlap_sweep"):
        return _overlap_sweep(psi1, psi2, count, seed, threshold, random_clifford_batch)


NONISO_LIBRARY = (
    (Graph.path(4), Graph.star(4)),
    (Graph.path(5), Graph(5, ((0, 1), (1, 2), (2, 0), (3, 4)))),
    (Graph.cycle(5), Graph(5, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 4)))),
)


# ----------------------------------------------------------------------
# Permutation lemma sweeps
# ----------------------------------------------------------------------

def _check_kept(n: int, kept: int) -> None:
    """Refuse ``kept`` Cliffords over ``linalg.check_budget``: each holds three
    int64 rows of 2n entries, a report tuple of 2n (phase, x, z) tuples and a
    list slot, 64 + 192 n bytes (tracemalloc: 442 at n = 2, 673 at n = 3, 998
    at n = 5), plus 32 per mask from n = 9, where masks pass 256."""
    check_budget(math.log2(max(kept, 1) * (64 + 192 * n + (n > 8) * 128 * n)),
                 f"{kept} {n}-qubit Cliffords at or above the threshold", ReductionError)


def _may_reach(e: np.ndarray, threshold: float) -> np.ndarray:
    """Whether each row of X image expectations e_q = <R^n|C X_q C^dag|R^n>
    (``batch_x_image_expectations``) leaves |<R^n|C|R^n>|^2 >= threshold
    possible.  By Fuchs-van de Graaf such a C moves every expectation of
    |R^n> by at most 2 sqrt(1 - threshold), and <R^n|X_q|R^n> = cos(pi/8).
    The 1e-6 margin covers float scores: a row scored at or above the
    threshold is truly within 1e-14 of it, which loosens the bound by 2e-7."""
    return (np.abs(e - COS8) <= 2 * math.sqrt(1 - threshold) + 1e-6).all(axis=1)


def _above_threshold(n: int, mode: str, samples: int, seed: int, threshold: float):
    """(checked, batch): how many Cliffords were checked, and those scoring at
    or above the threshold, in scoring order.  Each block of (B, 2n) rows is
    built once; the Cliffords whose X images rule them out (``_may_reach``)
    count as certified, the rest reach the 3^n-string |R> scorer, and more
    high scorers than ``_check_kept`` admits raise ReductionError."""
    step = batch_block_size(2 * n)
    high, kept = [], 0
    if mode == "exhaustive":
        # a block of symplectic indices, its rows built once at sign 0; the
        # sign bits only flip the signs of the e_q, so an index passes on the
        # |e_q| and all 4^n of its sign patterns are scored at once from its
        # row; only the positions of high scores are kept
        order = symplectic_group_order(n)
        for lo in range(0, order, step):
            indices = np.arange(lo, min(lo + step, order))
            block = clifford_elements(n, indices << 2 * n)
            live = np.flatnonzero(_may_reach(np.abs(batch_x_image_expectations(block)), threshold))
            obs.count("reductions.cliffords_certified", (len(indices) - len(live)) << 2 * n)
            scores = sign_factored_r_overlap_sq(CliffordBatch(n, *(a[live] for a in block[1:])))
            row, sign = np.nonzero(scores >= threshold)
            high.append(indices[live[row]] << 2 * n | sign)
            kept += len(row)
            _check_kept(n, kept)
        return order << 2 * n, clifford_elements(n, np.concatenate(high))
    # the 3^n tables of a single Clifford are refused before any draw
    check_budget(math.log2(r_overlap_bytes(1, n)),
                 f"the |R> overlap of one {n}-qubit Clifford", PauliError)
    rng = np.random.default_rng(seed)
    score_step = batch_block_size(3 ** n)
    for lo in range(0, samples, step):
        batch = random_clifford_batch(n, rng, min(step, samples - lo))
        live = np.flatnonzero(_may_reach(batch_x_image_expectations(batch), threshold))
        obs.count("reductions.cliffords_certified", len(batch.ph) - len(live))
        for rows in np.split(live, range(score_step, len(live), score_step)):
            part = CliffordBatch(n, *(a[rows] for a in batch[1:]))
            at = np.flatnonzero(batch_r_overlap_sq(part) >= threshold)
            high.append(np.stack([a[at] for a in part[1:]]))
            kept += len(at)
            _check_kept(n, kept)
    return samples, CliffordBatch(n, *np.concatenate(high, axis=1))


def verify_lemma_perm(n: int, mode: str = "exhaustive", samples: int = 0,
                      seed: int = 0,
                      threshold: float = LEMMA_PERM_THRESHOLD) -> dict:
    """Check that every Clifford with |<R^n|C|R^n>|^2 >= threshold is a
    qubit permutation: over the whole group for n <= 3 (``exhaustive``),
    or over ``samples`` uniform draws (``sampled``)."""
    if n < 1:
        raise ReductionError(f"n must be >= 1 qubit, got {n}")
    if mode not in ("exhaustive", "sampled"):
        raise ReductionError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ReductionError(f"sampled mode needs samples >= 1, got {samples}")
    # nan, inf and values over 1 are met by no overlap, so every check would
    # pass; at 0 or below every element is kept
    if not 0 < threshold <= 1:
        raise ReductionError(f"threshold must be in (0, 1], got {threshold}")
    checked, high = _above_threshold(n, mode, samples, seed, threshold)
    perm = high.permutation_mask()
    above, perms = len(perm), int(perm.sum())
    return {
        "n": n, "mode": mode, "checked": checked, "threshold": threshold,
        "above_threshold": above, "permutations": perms,
        "violations": [high.row(b).key() for b in np.flatnonzero(~perm)],
        "fraction_permutations": (perms / above) if above else 1.0,
    }


def verify_first_qubit_claim(instances) -> dict:
    """Among all qubit permutations, those achieving overlap >= the GI
    threshold on encoded instances must fix the control qubit (index 0)."""
    results = []
    ok = True
    for inst in instances:
        nq = inst.n_qubits
        perms = list(permutations(range(nq)))
        ovs = np.abs(batch_overlaps(qubit_permutation_batch(perms, nq), inst.psi1, inst.psi2))
        for perm, ov in zip(perms, ovs.tolist()):
            if ov >= inst.thresholds.alpha:
                fixes = perm[0] == 0
                ok = ok and fixes
                results.append({"perm": perm, "overlap": ov, "fixes_control": fixes})
    return {"passed": ok, "high_overlap_permutations": results}


# ----------------------------------------------------------------------
# Low-stabilizer-rank encoding
# ----------------------------------------------------------------------

_FACTORS = {"0": np.array([1.0, 0.0], dtype=complex), "1": np.array([0.0, 1.0], dtype=complex),
            "R": r_state().amplitudes, "R-": r_minus_state().amplitudes}


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
            for f in factors:
                if isinstance(f, tuple) and f[0] == "graph":
                    part = graph_state(f[1]).amplitudes
                elif isinstance(f, str) and f in _FACTORS:
                    part = _FACTORS[f]
                else:
                    raise ReductionError(f"unknown factor {f!r}")
                amps = kron_vectors(amps, part)
            if len(amps) != 1 << self.n_qubits:
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
    # a Gram entry is 2^{-|a ^ b|/2}: each pair meets itself once, 2(n-2)
    # pairs sharing one qubit and (n-2)(n-3)/2 disjoint ones
    c = 1.0 / math.sqrt(len(pairs) * (1 + (n - 2) + (n - 2) * (n - 3) / 8))
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
    the interactive-protocol demonstrations need.  Building the pair, or
    materializing either state, peaks near six n-qubit states.
    """
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return PsgiVerdict("NO", None, 0j)
    n = g1.n
    _check_encoding(n, 6)
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


def diagonal_permutation_overlap_sweep(psi1: StateVector, psi2: StateVector,
                                       count: int, seed: int,
                                       threshold: float) -> dict:
    """Sample permutation x diagonal-Clifford unitaries and report the
    max |<psi1|D P|psi2>| (soundness sweep for the low-rank encoding)."""
    return _overlap_sweep(psi1, psi2, count, seed, threshold, diagonal_permutation_batch)


# ----------------------------------------------------------------------
# BQP hardness instance
# ----------------------------------------------------------------------

def bqp_hardness_instance(q: Circuit, phi: Circuit, rep: FiniteGroupRep):
    """psi1 = Q'|0^n>, psi2 = |phi>; also reports the hiding diagnostic
    max_g |<phi|R(g)|0^n>| which must be small for soundness."""
    psi1 = run_circuit(q)
    psi2 = run_circuit(phi)
    inst = PsgiInstance(psi1, psi2, rep, PROMISE_THRESHOLDS)
    a = psi2.amplitudes
    hiding = np.abs(rep.orbit(np.eye(rep.dim, 1, dtype=complex)[:, 0]) @ a.conj()).max()
    self_ov = np.abs(rep.orbit(a) @ a.conj())[~rep.trivial_mask()].max(initial=0.0)
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
    diagnostics: dict = field(default_factory=dict)


def qsd_to_msgi(sigma1: DensityMatrix, sigma2: DensityMatrix,
                rep: FiniteGroupRep, seed: int) -> MsgiInstance:
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
        "max_fidelity": max_conjugate_fidelity(rep, s2.matrix, s1.matrix),
    }
    return MsgiInstance(s1, s2, rep, PROMISE_THRESHOLDS, diag)


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
