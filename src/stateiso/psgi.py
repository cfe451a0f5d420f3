"""Deciding state isomorphism under a represented group.

Two solvers: an exact brute-force oracle for any enumerable group, and an
exact simulation of the Fourier-sampling algorithm for the phased Pauli
group.  The latter works over the label group Gamma = Z2^{2n+2}: two-copy
Pauli labels (x, z, s) plus the dihedral bit a, acting on
|Psi> = (|0>|psi1 psi1> + |1>|psi2 psi2>)/sqrt(2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import StateVector
from .groups import DecisionThresholds, FiniteGroupRep, dihedralize
from .paulis import PauliOp

DEFAULT_SAMPLE_CONSTANT = 6
DEFAULT_COPIES = 2
MAX_TOTAL_QUBITS = 26


class PsgiError(ValueError):
    pass


@dataclass(frozen=True)
class PsgiInstance:
    psi1: StateVector
    psi2: StateVector
    rep: FiniteGroupRep
    thresholds: DecisionThresholds

    def __post_init__(self):
        if self.psi1.dim != self.rep.dim or self.psi2.dim != self.rep.dim:
            raise PsgiError("state dimension does not match the representation")


@dataclass(frozen=True)
class PsgiVerdict:
    decision: str  # YES | NO | PROMISE_VIOLATED
    witness: object
    achieved_overlap: complex

    def __post_init__(self):
        if self.decision not in ("YES", "NO", "PROMISE_VIOLATED"):
            raise PsgiError(f"bad decision {self.decision!r}")


def psgi_oracle(inst: PsgiInstance) -> PsgiVerdict:
    """Exact decision by one product over the group's unitary stack.

    Ties in the Re-argmax (within 1e-15) break toward the earliest element
    in the group's fixed ordering, so verdicts are deterministic.
    """
    rep = inst.rep
    ovs = (rep.unitaries @ inst.psi2.amplitudes) @ inst.psi1.amplitudes.conj()
    i = int(np.flatnonzero(ovs.real >= ovs.real.max() - 1e-15)[0])
    best_re, best_g, best_ov = ovs[i].real, rep.elements[i], complex(ovs[i])
    max_abs = np.abs(ovs).max()
    th = inst.thresholds
    if best_re >= th.beta:
        return PsgiVerdict("YES", best_g, best_ov)
    if max_abs <= th.alpha:
        return PsgiVerdict("NO", None, best_ov)
    return PsgiVerdict("PROMISE_VIOLATED", best_g, best_ov)


# ----------------------------------------------------------------------
# F2 linear algebra
# ----------------------------------------------------------------------

def f2_solve(rows: Sequence) -> list:
    """Basis of the simultaneous kernel {x : row . x = 0 mod 2 for all rows}.

    Rows are 0/1 sequences of a common length; the result is a list of
    numpy 0/1 vectors spanning the kernel exactly.
    """
    rows = [np.asarray(r, dtype=np.uint8) % 2 for r in rows]
    if not rows:
        raise PsgiError("f2_solve needs at least the row length; pass [zeros]")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise PsgiError("inconsistent row lengths")
    a = np.array(rows, dtype=np.uint8)
    m = a.shape[0]
    pivots = []
    row = 0
    for col in range(width):
        piv = None
        for r in range(row, m):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        a[[row, piv]] = a[[piv, row]]
        for r in range(m):
            if r != row and a[r, col]:
                a[r] ^= a[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = np.zeros(width, dtype=np.uint8)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = a[r, fc]
        basis.append(v)
    return basis


def _span(basis: list, width: int):
    """All 2^len(basis) elements of the F2 span, as uint8 vectors."""
    out = [np.zeros(width, dtype=np.uint8)]
    for b in basis:
        out += [(v ^ b) for v in out]
    return out


# ----------------------------------------------------------------------
# The Gamma label group and Fourier sampling
# ----------------------------------------------------------------------

def _gamma_pauli(label: tuple, n: int) -> PauliOp:
    """The involution for label (x, z, s, a) acting on |Psi>, as a Pauli
    on 2n+1 qubits: X^a on the dihedral qubit times (-1)^s B x B."""
    x, z, s, a = label
    xm = a | (x << 1) | (x << (n + 1))
    zm = (z << 1) | (z << (n + 1))
    return PauliOp(2 * n + 1, 2 * s, xm, zm)


def _label_bits(u: int, n: int) -> tuple:
    """Unpack a Gamma label int into (x, z, s, a)."""
    return (u & ((1 << n) - 1), (u >> n) & ((1 << n) - 1),
            (u >> (2 * n)) & 1, (u >> (2 * n + 1)) & 1)


def _walsh_hadamard(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    h = 1
    while h < len(v):
        for start in range(0, len(v), 2 * h):
            a = v[start:start + h].copy()
            b = v[start + h:start + 2 * h].copy()
            v[start:start + h] = a + b
            v[start + h:start + 2 * h] = a - b
        h *= 2
    return v


def character_distribution(psi: np.ndarray, n: int, m: int) -> np.ndarray:
    """Exact Fourier-sampling distribution over the 2^{2n+2} characters.

    ``psi`` is the single-copy state |Psi> on 2n+1 qubits; the m-copy
    expectation factorizes as f(u) = f1(u)^m, and prob(chi) is the
    normalized Walsh-Hadamard transform of f.
    """
    k = 2 * n + 2
    f1 = np.empty(1 << k)
    for u in range(1 << k):
        p = _gamma_pauli(_label_bits(u, n), n)
        f1[u] = np.vdot(psi, p.apply(psi)).real
    f = f1**m
    probs = _walsh_hadamard(f) / (1 << k)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise PsgiError(f"character distribution sums to {total}")
    return np.clip(probs, 0.0, None)


def fourier_sample(probs: np.ndarray, rng: np.random.Generator) -> tuple:
    """Draw one character from the exact distribution, as its bits over the
    label group."""
    k = int(np.log2(len(probs)))
    chi = int(rng.choice(len(probs), p=probs / probs.sum()))
    return tuple((chi >> j) & 1 for j in range(k))


def hadamard_estimate(psi: np.ndarray, action, shots: Optional[int] = None,
                      rng: Optional[np.random.Generator] = None) -> float:
    """Estimate f = <psi|A|psi> for a Hermitian involution A.

    Exact when ``shots`` is None; otherwise simulates the Hadamard test,
    unbiased with variance <= 1/shots.
    """
    applied = action(psi)
    if np.max(np.abs(action(applied) - psi)) > 1e-8:
        raise PsgiError("action is not an involution on this state")
    f = float(np.vdot(psi, applied).real)
    if shots is None:
        return f
    if rng is None:
        raise PsgiError("shot mode needs an rng")
    p = min(max((1 + f) / 2, 0.0), 1.0)
    ones = rng.binomial(shots, p)
    return 2 * ones / shots - 1


# ----------------------------------------------------------------------
# The quantum algorithm for the Pauli group, simulated exactly
# ----------------------------------------------------------------------

def _build_psi(psi1: StateVector, psi2: StateVector) -> np.ndarray:
    """(|0>|psi1 psi1> + |1>|psi2 psi2>)/sqrt(2) as a dense vector."""
    phi1 = np.kron(psi1.amplitudes, psi1.amplitudes)
    phi2 = np.kron(psi2.amplitudes, psi2.amplitudes)
    return np.concatenate([phi1, phi2]) / np.sqrt(2)


def pauli_psgi_quantum(inst: PsgiInstance, m: int = DEFAULT_COPIES,
                       sample_constant: int = DEFAULT_SAMPLE_CONSTANT,
                       seed: int = 0, shot_mode: bool = False,
                       shots: int = 4096) -> PsgiVerdict:
    """Fourier-sampling decision procedure for the phased Pauli group.

    Samples T = sample_constant * log2|Gamma| characters from the exact
    distribution, solves for the simultaneous kernel L over F2, and
    accepts if some odd element (dihedral bit set) has expectation
    estimate at least 1/2.  The witness Pauli is recovered from the
    two-copy label by dense re-evaluation over all four phases.
    """
    n = inst.psi1.n_qubits
    if m * (2 * n + 1) > MAX_TOTAL_QUBITS:
        raise PsgiError(
            f"m-copy construction needs {m * (2 * n + 1)} qubits, "
            f"over the {MAX_TOTAL_QUBITS} guard"
        )
    rng = np.random.default_rng(seed)
    psi = _build_psi(inst.psi1, inst.psi2)
    k = 2 * n + 2
    probs = character_distribution(psi, n, m)
    t = sample_constant * k
    basis = f2_solve([fourier_sample(probs, rng) for _ in range(t)])
    a1, a2 = inst.psi1.amplitudes, inst.psi2.amplitudes
    best = None  # (re_overlap, label_key, overlap)
    for v in _span(basis, k):
        u = int(sum(int(b) << j for j, b in enumerate(v)))
        x, z, s, a = _label_bits(u, n)
        if a != 1:
            continue
        p = _gamma_pauli((x, z, s, a), n)
        if shot_mode:
            est = hadamard_estimate(psi, p.apply, shots, rng) ** m
        else:
            est = hadamard_estimate(psi, p.apply) ** m
        if est < 0.5:
            continue
        # recover the phased witness: the sign bit of the two-copy label
        # is ambiguous, so try all four phases and re-verify densely
        bop = PauliOp(n, 0, x, z)
        base = complex(np.vdot(a1, bop.apply(a2)))
        for ph in range(4):
            ov = (1j**ph) * base
            if best is None or ov.real > best[0] + 1e-15:
                best = (ov.real, (ph, x, z), ov)
    if best is not None and best[0] >= inst.thresholds.beta - 1e-8:
        return PsgiVerdict("YES", best[1], best[2])
    return PsgiVerdict("NO", None, 0j if best is None else best[2])


def psgi_to_statehsp(inst: PsgiInstance, m: int = 1):
    """Reduce an abelian-group instance to a hidden-subgroup-style search
    over the dihedralized rep.

    Returns (|Phi>, dihedralized rep, bounds dict).  |Phi> is the m-fold
    tensor power of (|0>|psi1> + |1>|psi2>)/sqrt(2); the odd-element
    overlap satisfies <Phi|R'(h,1)^{x m}|Phi> = (Re<psi1|R(h)|psi2>)^m.
    """
    rep = inst.rep
    if not rep.is_abelian():
        raise PsgiError("reduction requires an abelian group")
    drep = dihedralize(rep)
    single = np.concatenate([inst.psi1.amplitudes, inst.psi2.amplitudes]) / np.sqrt(2)
    amps = np.ones(1, dtype=complex)
    for _ in range(m):
        amps = np.kron(amps, single)
    nq = int(np.log2(len(amps)))
    if 1 << nq != len(amps):
        raise PsgiError("dihedralized dimension is not a power of two")
    eps = 1 - inst.thresholds.beta
    bounds = {
        "m": m,
        "completeness": (1 - eps) ** m,
        "completeness_lower": 1 - m * eps,
        "soundness": inst.thresholds.alpha**m,
    }
    return StateVector(nq, amps), drep, bounds


# ----------------------------------------------------------------------
# Instance generation
# ----------------------------------------------------------------------

def random_state(n: int, rng: np.random.Generator) -> StateVector:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


def random_pauli_psgi_instance(n: int, thresholds: DecisionThresholds,
                               kind: str, rng: np.random.Generator,
                               rep: Optional[FiniteGroupRep] = None,
                               max_tries: int = 200) -> PsgiInstance:
    """Generate a promise-respecting instance over the phased Pauli group.

    YES instances are exact (overlap 1 at the planted witness).  NO
    instances are rejection-sampled; note that at n = 1 no state pair can
    have all Pauli overlaps below 1/sqrt(2), so alpha >= 0.71 is needed
    there for the NO branch to be satisfiable.
    """
    from .groups import pauli_group

    rep = rep or pauli_group(n)
    if kind == "yes":
        psi1 = random_state(n, rng)
        label = rep.elements[int(rng.integers(rep.order))]
        p = PauliOp(n, *label)
        psi2 = StateVector(n, p.hermitian_conjugate().apply(psi1.amplitudes))
        return PsgiInstance(psi1, psi2, rep, thresholds)
    if kind != "no":
        raise PsgiError(f"kind must be 'yes' or 'no', got {kind!r}")
    # Start from a pair whose Pauli overlaps all have modulus 2^{-n/2}
    # (a basis state against a fully-edged graph state); conjugating both
    # by a random Clifford permutes the overlap moduli, and a small
    # verified perturbation keeps the family non-degenerate.
    from .paulis import graph_state, random_clifford
    from .graphs import Graph

    base2 = graph_state(Graph.complete(n))
    for _ in range(max_tries):
        c = random_clifford(n, rng)
        a1 = c.stabilized_state()        # C applied to the basis state |0^n>
        a2 = c.apply(base2).amplitudes
        noise = 0.04 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        a1 = a1 + noise
        a2 = a2 + 0.04 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        inst = PsgiInstance(
            StateVector(n, a1 / np.linalg.norm(a1)),
            StateVector(n, a2 / np.linalg.norm(a2)),
            rep, thresholds,
        )
        if psgi_oracle(inst).decision == "NO":
            return inst
    raise PsgiError(
        f"could not sample a NO instance at n={n}, alpha={thresholds.alpha} "
        f"in {max_tries} tries"
    )
