"""Round-level simulation of the interactive protocols.

Implements global-Clifford classical shadows, one shadow round that serves
both the pure-state protocol (the instance's group) and the low-rank one
(the qubit permutations), the twirl-and-distinguish exchange for
mixed-state instances, and trial aggregation with Wilson intervals.  In the
shadow round the verifier sends shadows of R(g)|psi_j> and the prover names
the orbit; only the group and the shadow budget differ between the two
protocols.  The prover is computationally unbounded and is realized as
exact computation on the simulated states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Optional

import numpy as np

from . import obs
from .groups import clifford_group, k_twirl
from .linalg import check_budget, trace_distance
from .paulis import batch_apply, batch_unitaries, qubit_permutation_batch, random_clifford_batch

DEFAULT_SHADOW_DELTA = 0.05
WILSON_Z = 1.96              # two-sided 95% normal quantile


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolTranscript:
    j: int
    j_prime: int

    @property
    def accept(self) -> bool:
        return self.j == self.j_prime


# ----------------------------------------------------------------------
# Classical shadows
# ----------------------------------------------------------------------

def _median_of_means(singles: np.ndarray, n_targets: int,
                     delta: float) -> np.ndarray:
    """Aggregate per-shadow estimates (N x M) with 2*ceil(log(2M/delta))
    buckets.  The median of the k bucket means is read off one partition,
    as np.median takes it."""
    n = singles.shape[0]
    k = max(1, 2 * math.ceil(math.log(2 * n_targets / delta)))
    k = min(k, n)
    size = n // k
    means = singles[: k * size].reshape(k, size, -1).mean(axis=1)
    h = k // 2
    if k % 2:
        return np.partition(means, h, axis=0)[h]
    p = np.partition(means, (h - 1, h), axis=0)
    return (p[h - 1] + p[h]) / 2


def shadow_single_shots(rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(N, M) single-shot global-Clifford shadow estimates
    (d + 1) |<b|U|t>|^2 - 1, from each row <b|U of ``rows`` (N, d), for each
    column t of ``targets`` (d, M).  Over uniform Cliffords U and Born-rule
    outcomes b of U|psi>, the mean is |<t|psi>|^2."""
    return (rows.shape[1] + 1) * np.abs(rows @ targets) ** 2 - 1


def _shadow_estimates(state: np.ndarray, target_mat: np.ndarray,
                      n_shadows: int, rng, delta: float) -> np.ndarray:
    """Global-Clifford classical-shadow estimates of |<target_i|state>|^2.

    Each shadow draws a uniform Clifford U and a Born-rule outcome b of
    U|state>; its single-shot estimates (``shadow_single_shots``) are
    aggregated by median of means.  ``target_mat`` has one target per
    column; at n <= 2 the Cliffords are drawn from the cached
    ``groups.clifford_group(n)``.  An (N, dim, dim) unitary stack over
    ``linalg.check_budget`` is refused.
    """
    if n_shadows < 1:
        raise ProtocolError(f"need at least one shadow, got {n_shadows}")
    n = state.shape[0].bit_length() - 1
    check_budget(4 + math.log2(n_shadows) + 2 * n, f"the unitaries of {n_shadows} shadows "
                 f"of a {n}-qubit state", ProtocolError)
    obs.count("protocols.shadows_drawn", n_shadows)
    if n <= 2:
        unitaries = clifford_group(n).unitaries
        us = unitaries[rng.integers(0, len(unitaries), size=n_shadows)]
    else:
        us = batch_unitaries(random_clifford_batch(n, rng, n_shadows))
    rotated = us @ state                       # (N, dim)
    probs = np.abs(rotated) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    b = (cum < rng.random(size=(n_shadows, 1))).sum(axis=1)
    rows = us[np.arange(n_shadows), b]         # <b| U
    return _median_of_means(shadow_single_shots(rows, target_mat), target_mat.shape[1], delta)


# ----------------------------------------------------------------------
# Protocol rounds
# ----------------------------------------------------------------------

def _context(orbits: tuple, labels) -> dict:
    """The prover's orbit targets: each of the two orbits (rows R(g) psi_j
    in label order) deduplicated modulo a global phase.  A row's key is |v|
    to 10 decimals and the angle of v relative to its first largest entry
    to 8, with -0.0 read as 0.0; the first row of each key stands for it, in
    label order.  The targets are one column per representative, the first
    state's orbit first."""
    reps = []
    for orbit in orbits:
        mag = np.abs(orbit)
        top = orbit[np.arange(len(orbit)), mag.argmax(axis=1)]
        rel = np.angle(orbit * np.exp(-1j * np.angle(top))[:, None])
        key = np.hstack((np.round(mag, 10), np.round(rel, 8))) + 0.0
        # keyed by the row bytes, which the + 0.0 makes alike for -0.0 and
        # 0.0; a dict keeps each key's first index, in insertion order
        first = {}
        for i, row in enumerate(key):
            first.setdefault(row.tobytes(), i)
        reps.append(orbit[list(first.values())])
    return {"orbits": orbits, "labels": labels,
            "targets": np.vstack(reps).T, "split": len(reps[0])}


def _shadow_round(ctx: dict, n_shadows: int, seed: int, delta: float) -> ProtocolTranscript:
    """One verifier round over a ``_context``: pick j and g, send shadows of
    R(g) psi_j; the prover shadow-estimates the fidelity with every orbit
    target and names the orbit with the larger maximum, breaking an exact
    tie by a fair coin."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 3))
    gi = int(rng.integers(len(ctx["labels"])))
    state = ctx["orbits"][j - 1][gi]
    ests = _shadow_estimates(state, ctx["targets"], n_shadows, rng, delta)
    f1 = float(ests[: ctx["split"]].max())
    f2 = float(ests[ctx["split"]:].max())
    j_prime = int(rng.integers(1, 3)) if f1 == f2 else 1 if f1 > f2 else 2
    return ProtocolTranscript(j=j, j_prime=j_prime)


def qcszk_context(inst) -> dict:
    """The prover's orbit targets under the instance's group."""
    rep = inst.rep
    return _context((rep.orbit(inst.psi1.amplitudes), rep.orbit(inst.psi2.amplitudes)),
                    rep.elements)


def qcszk_round(ctx: dict, n_shadows: int = 2000, seed: int = 0) -> ProtocolTranscript:
    """One shadow round of the pure-state protocol over a ``qcszk_context``."""
    return _shadow_round(ctx, n_shadows, seed, DEFAULT_SHADOW_DELTA)


def qszk_mixed_context(inst, k: int) -> dict:
    """Exact k-twirled states and their trace distance."""
    tau1 = k_twirl(inst.rep, inst.sigma1, k)
    tau2 = k_twirl(inst.rep, inst.sigma2, k)
    return {"k": k, "distance": trace_distance(tau1, tau2)}


def qszk_mixed_round(ctx: dict, seed: int = 0) -> ProtocolTranscript:
    """Twirl-and-distinguish round over a ``qszk_mixed_context``: the
    verifier sends k twirled copies of sigma_j; the prover applies the
    Helstrom-optimal measurement, which guesses correctly with probability
    1/2 + D/2 for the exact twirled trace distance D."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 3))
    p_correct = 0.5 + ctx["distance"] / 2
    correct = rng.random() < p_correct
    j_prime = j if correct else 3 - j
    return ProtocolTranscript(j=j, j_prime=j_prime)


def szk_lowrank_context(lr1, lr2) -> dict:
    """The orbits of the materialized low-rank states under the qubit
    permutations, each a gather of basis indices with no unitary built,
    labelled by permutation tuples.  Each orbit takes 16 n! 2^n bytes, and
    tracemalloc measures a peak of 6.7 orbits at n = 6 and 7 (the two
    orbits, the action's index tables and the deduplication keys); counted
    as 8 orbits, a peak over ``linalg.check_budget`` (from n = 8) is
    refused before any state is materialized."""
    n = lr1.n_qubits
    check_budget(7 + math.log2(math.factorial(n)) + n,
                 f"the qubit-permutation orbits of {n}-qubit states at their peak", ProtocolError)
    perms = list(permutations(range(n)))
    batch = qubit_permutation_batch(perms, n)
    return _context(tuple(batch_apply(batch, lr.materialize().amplitudes[:, None])[..., 0]
                          for lr in (lr1, lr2)), perms)


def szk_lowrank_round(ctx: dict, gamma: float = 0.05, seed: int = 0,
                      n_shadows: Optional[int] = None) -> ProtocolTranscript:
    """One shadow round over a ``szk_lowrank_context`` with confidence
    gamma; by default max(200, 48 ln(2M/gamma)) shadows for M orbit targets."""
    if not 0 < gamma < 1:
        raise ProtocolError(f"gamma must be in (0,1), got {gamma}")
    if n_shadows is None:
        n_shadows = max(200, int(48 * math.log(2 * ctx["targets"].shape[1] / gamma)))
    return _shadow_round(ctx, n_shadows, seed, gamma)


# ----------------------------------------------------------------------
# Trial aggregation
# ----------------------------------------------------------------------

def wilson_interval(successes: int, trials: int) -> tuple:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ProtocolError("trials must be positive")
    p, z = successes / trials, WILSON_Z
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_trials(round_fn: Callable[[int], ProtocolTranscript], trials: int,
               seed: int = 0) -> dict:
    """Run seeded independent rounds; report the accept rate with a 95%
    Wilson interval."""
    seeds = np.random.default_rng(seed).integers(0, 1 << 31, size=trials)
    accepts = sum(round_fn(int(s)).accept for s in seeds)
    low, high = wilson_interval(accepts, trials)
    return {
        "trials": trials, "accepts": accepts,
        "accept_rate": accepts / trials,
        "wilson_low": low, "wilson_high": high,
    }

