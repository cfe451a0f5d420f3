"""Round-level simulation of the interactive protocols.

Implements global-Clifford classical shadows, the shadow-based
verifier/prover exchange for pure-state instances, the twirl-and-distinguish
exchange for mixed-state instances, and the low-rank variant, plus trial
aggregation with Wilson intervals.  The prover is computationally unbounded
and is realized as exact computation on the simulated states.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .groups import k_twirl
from .linalg import trace_distance
from .paulis import (batch_of, batch_unitaries, clifford_batches, clifford_group_order,
                     qubit_permutation_clifford, random_clifford_batch)
from .psgi import PsgiInstance
from .reductions import MsgiInstance

DEFAULT_SHADOW_DELTA = 0.05


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class ProtocolTranscript:
    j: int
    g: object
    message: dict
    j_prime: int
    accept: bool

    def __post_init__(self):
        if self.accept != (self.j == self.j_prime):
            raise ProtocolError("accept flag must equal (j == j')")

    def to_json(self) -> str:
        return json.dumps({
            "j": self.j,
            "g": repr(self.g),
            "message": self.message,
            "j_prime": self.j_prime,
            "accept": self.accept,
        })


# ----------------------------------------------------------------------
# Classical shadows
# ----------------------------------------------------------------------

_UNITARY_CACHE: dict = {}


def _clifford_unitaries(n: int) -> Optional[np.ndarray]:
    """Stacked unitaries of the full n-qubit Clifford group (n <= 2)."""
    if n > 2:
        return None
    if n not in _UNITARY_CACHE:
        group = next(clifford_batches(n, clifford_group_order(n)))
        _UNITARY_CACHE[n] = batch_unitaries(group)
    return _UNITARY_CACHE[n]


def _median_of_means(singles: np.ndarray, n_targets: int,
                     delta: float) -> np.ndarray:
    """Aggregate per-shadow estimates (N x M) with 2*ceil(log(2M/delta))
    buckets."""
    n = singles.shape[0]
    k = max(1, 2 * math.ceil(math.log(2 * n_targets / delta)))
    k = min(k, n)
    size = n // k
    trimmed = singles[: k * size].reshape(k, size, -1)
    return np.median(trimmed.mean(axis=1), axis=0)


def _shadow_estimates(state: np.ndarray, target_mat: np.ndarray,
                      n_shadows: int, rng, delta: float) -> np.ndarray:
    """Global-Clifford classical-shadow estimates of |<target_i|state>|^2.

    Each shadow draws a uniform Clifford U and a Born-rule outcome b of
    U|state>; its single-shot estimate (2^n + 1) |<b|U|target>|^2 - 1 is
    aggregated by median of means.  ``target_mat`` has one target per
    column; uses the cached full Clifford group when available.
    """
    if n_shadows < 1:
        raise ProtocolError(f"need at least one shadow, got {n_shadows}")
    dim = state.shape[0]
    n = dim.bit_length() - 1
    unitaries = _clifford_unitaries(n)
    if unitaries is not None:
        idx = rng.integers(0, len(unitaries), size=n_shadows)
        us = unitaries[idx]
    else:
        us = batch_unitaries(random_clifford_batch(n, rng, n_shadows))
    rotated = us @ state                       # (N, dim)
    probs = np.abs(rotated) ** 2
    probs /= probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(probs, axis=1)
    b = (cum < rng.random(size=(n_shadows, 1))).sum(axis=1)
    rows = us[np.arange(n_shadows), b]         # <b| U
    singles = (dim + 1) * np.abs(rows @ target_mat) ** 2 - 1
    return _median_of_means(singles, target_mat.shape[1], delta)


# ----------------------------------------------------------------------
# Protocol rounds
# ----------------------------------------------------------------------

def _orbit_targets(orbit1: list, orbit2: list) -> dict:
    """Both orbits as columns of one target matrix, psi1's orbit first."""
    return {"targets": np.stack(orbit1 + orbit2).T, "split": len(orbit1)}


def _orbit_scan(state: np.ndarray, ctx: dict, n_shadows: int, rng,
                delta: float) -> int:
    """The prover's answer j': shadow-estimate the fidelity of ``state``
    with every orbit target and name the orbit with the larger maximum,
    breaking an exact tie by a fair coin from ``rng``."""
    ests = _shadow_estimates(state, ctx["targets"], n_shadows, rng, delta)
    f1 = float(ests[: ctx["split"]].max())
    f2 = float(ests[ctx["split"]:].max())
    if f1 == f2:
        return int(rng.integers(1, 3))
    return 1 if f1 > f2 else 2


def qcszk_context(inst: PsgiInstance) -> dict:
    """Precompute the prover's orbit targets for qcszk_round."""
    orbits = []
    for psi in (inst.psi1, inst.psi2):
        seen = {}
        for g in inst.rep.elements:
            vec = inst.rep.unitary(g) @ psi.amplitudes
            key = tuple(np.round(np.abs(vec), 10)) + tuple(
                np.round(np.angle(vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))), 8)
            )
            seen.setdefault(key, vec)
        orbits.append(list(seen.values()))
    return _orbit_targets(*orbits)


def qcszk_round(inst: PsgiInstance, n_shadows: int = 2000, seed: int = 0,
                context: Optional[dict] = None,
                delta: float = DEFAULT_SHADOW_DELTA) -> ProtocolTranscript:
    """One verifier round: pick j and g, send shadows of R(g) psi_j; the
    prover scans both group orbits by shadow-estimated fidelity."""
    ctx = context or qcszk_context(inst)
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 3))
    g = inst.rep.elements[int(rng.integers(inst.rep.order))]
    psi = inst.psi1 if j == 1 else inst.psi2
    state = inst.rep.unitary(g) @ psi.amplitudes
    j_prime = _orbit_scan(state, ctx, n_shadows, rng, delta)
    return ProtocolTranscript(
        j=j, g=g, message={"type": "shadows", "count": n_shadows},
        j_prime=j_prime, accept=(j == j_prime),
    )


def qszk_mixed_context(inst: MsgiInstance, k: int) -> dict:
    """Exact k-twirled states and their trace distance."""
    tau1 = k_twirl(inst.rep, inst.sigma1, k)
    tau2 = k_twirl(inst.rep, inst.sigma2, k)
    return {"k": k, "distance": trace_distance(tau1, tau2)}


def qszk_mixed_round(inst: MsgiInstance, k: int = 2, seed: int = 0,
                     context: Optional[dict] = None) -> ProtocolTranscript:
    """Twirl-and-distinguish round: the verifier sends k twirled copies of
    sigma_j; the prover applies the Helstrom-optimal measurement, which
    guesses correctly with probability 1/2 + D/2 for the exact twirled
    trace distance D."""
    ctx = context or qszk_mixed_context(inst, k)
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 3))
    p_correct = 0.5 + ctx["distance"] / 2
    correct = rng.random() < p_correct
    j_prime = j if correct else 3 - j
    return ProtocolTranscript(
        j=j, g=None,
        message={"type": "twirled-copies", "k": ctx["k"]},
        j_prime=j_prime, accept=(j == j_prime),
    )


def szk_lowrank_context(lr1, lr2) -> dict:
    """Materialize the low-rank states and their permutation orbits."""
    psi1, psi2 = lr1.materialize(), lr2.materialize()
    n = psi1.n_qubits
    perms = _all_permutations(n)
    unis = list(batch_unitaries(batch_of(qubit_permutation_clifford(p, n) for p in perms)))
    orbits = []
    for psi in (psi1, psi2):
        orbit = {tuple(np.round(u @ psi.amplitudes, 10)) for u in unis}
        orbits.append([np.array(v) for v in orbit])
    return {"psi": (psi1, psi2), "perms": perms, "unitaries": unis,
            **_orbit_targets(*orbits)}


def _all_permutations(n: int):
    from itertools import permutations as _perms
    if n > 6:
        raise ProtocolError("permutation orbit enumeration is limited to 6 qubits")
    return list(_perms(range(n)))


def szk_lowrank_round(lr1, lr2, gamma: float = 0.05, seed: int = 0,
                      n_shadows: Optional[int] = None,
                      context: Optional[dict] = None) -> ProtocolTranscript:
    """Low-rank round over the qubit-permutation group: shadows of a
    permuted state, prover answers by exact orbit-overlap scan on the
    materialized states."""
    if not 0 < gamma < 1:
        raise ProtocolError(f"gamma must be in (0,1), got {gamma}")
    ctx = context or szk_lowrank_context(lr1, lr2)
    m = ctx["targets"].shape[1]
    if n_shadows is None:
        n_shadows = max(200, int(48 * math.log(2 * m / gamma)))
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 3))
    gi = int(rng.integers(len(ctx["perms"])))
    psi = ctx["psi"][j - 1]
    state = ctx["unitaries"][gi] @ psi.amplitudes
    j_prime = _orbit_scan(state, ctx, n_shadows, rng, gamma)
    return ProtocolTranscript(
        j=j, g=ctx["perms"][gi],
        message={"type": "shadows", "count": n_shadows},
        j_prime=j_prime, accept=(j == j_prime),
    )


# ----------------------------------------------------------------------
# Trial aggregation
# ----------------------------------------------------------------------

def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ProtocolError("trials must be positive")
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_trials(round_fn: Callable[[int], ProtocolTranscript], trials: int,
               seed: int = 0, transcript_file: Optional[str] = None) -> dict:
    """Run seeded independent rounds; report the accept rate with a 95%
    Wilson interval.  Optionally logs one JSON transcript per line."""
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 1 << 31, size=trials)
    accepts = 0
    fh = open(transcript_file, "w") if transcript_file else None
    try:
        for s in seeds:
            t = round_fn(int(s))
            accepts += t.accept
            if fh:
                fh.write(t.to_json() + "\n")
    finally:
        if fh:
            fh.close()
    low, high = wilson_interval(accepts, trials)
    return {
        "trials": trials, "accepts": accepts,
        "accept_rate": accepts / trials,
        "wilson_low": low, "wilson_high": high,
    }


def write_summary_csv(path: str, rows: list) -> None:
    """rows: list of dicts with instance, trials, accept_rate, CI bounds."""
    fields = ["instance", "trials", "accepts", "accept_rate",
              "wilson_low", "wilson_high"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})
