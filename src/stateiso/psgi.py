"""Deciding state isomorphism under a represented group.

Two solvers: an exact brute-force oracle for any enumerable group, and an
exact simulation of the Fourier-sampling algorithm for the phased Pauli
group.  The latter works over the label group Gamma = Z2^{2n+2}: two-copy
Pauli labels (x, z, s) plus the dihedral bit a, acting on
|Psi> = (|0>|psi1 psi1> + |1>|psi2 psi2>)/sqrt(2).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import obs
from .linalg import StateVector, check_budget, kron_vectors
from .groups import DecisionThresholds, FiniteGroupRep, dihedralize
from .paulis import PauliOp, pauli_table, walsh_hadamard

SAMPLE_CONSTANT = 6          # characters sampled per bit of log2|Gamma|
DEFAULT_COPIES = 2
NO_INSTANCE_TRIES = 200      # rejection-sampling tries for a NO instance


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
    """Exact decision by one product over the orbit of psi2.

    Ties in the Re-argmax (within 1e-15) break toward the earliest element
    in the group's fixed ordering, so verdicts are deterministic.
    """
    rep = inst.rep
    ovs = rep.orbit(inst.psi2.amplitudes) @ inst.psi1.amplitudes.conj()
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
# The quantum algorithm for the Pauli group, simulated exactly
# ----------------------------------------------------------------------

def character_distribution(psi1: np.ndarray, psi2: np.ndarray, n: int, m: int) -> np.ndarray:
    """Exact Fourier-sampling distribution over the 2^{2n+2} characters.

    Label u = x | z << n | s << 2n | a << 2n+1 acts on |Psi> as
    X^a (-1)^s B x B with B = X^x Z^z, so f1(u) = <Psi|u|Psi> is
    (-1)^s (T11^2 + T22^2)/2 at a = 0 and (-1)^s Re T12^2 at a = 1, from
    the Pauli tables Tij = pauli_table(psi_i, psi_j).  The m-copy
    expectation is f1^m, and prob(chi) is its normalized Walsh-Hadamard
    transform.
    """
    t11, t22, t12 = (pauli_table(a, c, n).T for a, c in
                     ((psi1, psi1), (psi2, psi2), (psi1, psi2)))
    even, odd = ((t11**2 + t22**2) / 2).real, (t12**2).real
    f1 = np.stack((even, -even, odd, -odd)).ravel()
    probs = walsh_hadamard((f1**m)[:, None])[:, 0] / len(f1)
    total = probs.sum()
    if abs(total - 1.0) > 1e-8:
        raise PsgiError(f"character distribution sums to {total}")
    return np.clip(probs, 0.0, None)


def _kernel(chis: np.ndarray, size: int) -> np.ndarray:
    """Mask of the labels u below ``size`` with chi . u even for every
    sampled chi: where the Walsh-Hadamard transform of the sample histogram
    equals the sample count."""
    return walsh_hadamard(np.bincount(chis, minlength=size)[:, None])[:, 0] == len(chis)


def pauli_psgi_quantum(inst: PsgiInstance, m: int = DEFAULT_COPIES,
                       seed: int = 0, shot_mode: bool = False,
                       shots: int = 4096) -> PsgiVerdict:
    """Fourier-sampling decision procedure for the phased Pauli group.

    Samples t = SAMPLE_CONSTANT * log2|Gamma| characters from the exact
    distribution and accepts if some odd label (dihedral bit set) of their
    simultaneous kernel has expectation estimate at least 1/2: exact, or a
    simulated Hadamard test of ``shots`` shots per label in label order.
    The witness is the phased Pauli i^p X^x Z^z of largest Re i^p T12[x, z]
    over the accepted labels, ties within 1e-15 going to the earliest
    (p, x, z) as in ``psgi_oracle``.
    """
    n = inst.psi1.n_qubits
    if inst.rep.name != f"pauli({n})":
        raise PsgiError(f"the quantum solver needs the group pauli({n}), got {inst.rep.name}")
    rng = np.random.default_rng(seed)
    a1, a2 = inst.psi1.amplitudes, inst.psi2.amplitudes
    probs = character_distribution(a1, a2, n, m)
    t = SAMPLE_CONSTANT * (2 * n + 2)
    chis = rng.choice(len(probs), size=t, p=probs / probs.sum())
    odd = _kernel(chis, len(probs)).reshape(2, 2, 1 << n, 1 << n)[1]   # [s, z, x]
    obs.count("psgi.characters_sampled", t)
    obs.count("psgi.kernel_labels", odd.sum())
    t12 = pauli_table(a1, a2, n)
    f = (t12.T**2).real
    est = np.stack((f, -f))[odd]
    if shot_mode:
        est = 2 * rng.binomial(shots, np.clip((1 + est) / 2, 0.0, 1.0)) / shots - 1
    accepted = np.zeros(odd.shape, dtype=bool)
    accepted[odd] = est**m >= 0.5
    accepted = accepted.any(axis=0).T                                 # [x, z]
    if not accepted.any():
        return PsgiVerdict("NO", None, 0j)
    ovs = (np.array((1, 1j, -1, -1j))[:, None, None] * t12).real      # [p, x, z]
    ovs[:, ~accepted] = -np.inf
    i = np.flatnonzero(ovs >= ovs.max() - 1e-15)[0]
    ph, x, z = (int(v) for v in np.unravel_index(i, ovs.shape))
    # the reported overlap is re-evaluated densely at the witness
    best = (1j**ph) * complex(np.vdot(a1, PauliOp(n, 0, x, z).apply(a2)))
    if best.real >= inst.thresholds.beta - 1e-8:
        return PsgiVerdict("YES", (ph, x, z), best)
    return PsgiVerdict("NO", None, best)


def psgi_to_statehsp(inst: PsgiInstance, m: int = 1):
    """Reduce an abelian-group instance to a hidden-subgroup-style search
    over the dihedralized rep.

    Returns (|Phi>, dihedralized rep, bounds dict).  |Phi> is the m-fold
    tensor power of (|0>|psi1> + |1>|psi2>)/sqrt(2); the odd-element
    overlap satisfies <Phi|R'(h,1)^{x m}|Phi> = (Re<psi1|R(h)|psi2>)^m.
    m < 1, or an |Phi> over ``linalg.check_budget``, raises PsgiError
    before anything is built.
    """
    if m < 1:
        raise PsgiError(f"the reduction needs at least one copy, got m={m}")
    nq = m * (inst.psi1.n_qubits + 1)               # qubits of |Phi>
    check_budget(4 + nq, f"{m} copies of |Phi> on {nq} qubits", PsgiError)
    rep = inst.rep
    if not rep.is_abelian():
        raise PsgiError("reduction requires an abelian group")
    drep = dihedralize(rep)
    single = np.concatenate([inst.psi1.amplitudes, inst.psi2.amplitudes]) / np.sqrt(2)
    amps = functools.reduce(kron_vectors, [single] * m, np.ones(1, dtype=complex))
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
                               rep: Optional[FiniteGroupRep] = None) -> PsgiInstance:
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
        psi2 = StateVector(n, rep.unitary(label).conj().T @ psi1.amplitudes)
        return PsgiInstance(psi1, psi2, rep, thresholds)
    if kind != "no":
        raise PsgiError(f"kind must be 'yes' or 'no', got {kind!r}")
    # Start from a pair whose Pauli overlaps all have modulus 2^{-n/2}
    # (a basis state against a fully-edged graph state); conjugating both
    # by a random Clifford permutes the overlap moduli, and a small
    # verified perturbation keeps the family non-degenerate.
    from .paulis import batch_apply, graph_state, random_clifford
    from .graphs import Graph

    base = np.column_stack((np.eye(1 << n, 1), graph_state(Graph.complete(n)).amplitudes))
    for tries in range(1, NO_INSTANCE_TRIES + 1):
        a1, a2 = batch_apply(random_clifford(n, rng), base)[0].T
        noise = 0.04 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        a1 = a1 + noise
        a2 = a2 + 0.04 * (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
        inst = PsgiInstance(
            StateVector(n, a1 / np.linalg.norm(a1)),
            StateVector(n, a2 / np.linalg.norm(a2)),
            rep, thresholds,
        )
        if psgi_oracle(inst).decision == "NO":
            obs.count("psgi.instance_tries", tries)
            return inst
    obs.count("psgi.instance_tries", NO_INSTANCE_TRIES)
    raise PsgiError(
        f"could not sample a NO instance at n={n}, alpha={thresholds.alpha} "
        f"in {NO_INSTANCE_TRIES} tries"
    )
