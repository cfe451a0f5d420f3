"""Few-photon core states, passive linear optics, and graph encodings.

States are sparse maps from Fock multi-indices to amplitudes, capped at a
small total photon number.  A mode unitary V acts by the stellar
substitution z -> Vz on the state's polynomial; with each photon sector a
symmetric tensor, it and the overlap gradients in V are tensor contractions
(Chabaud, Markham, Grosshans, PRL 124, 063605, 2020).  The permanent
formula is kept only as an independent cross-check of the same action.
The overlap max_V |<c2|R(V)|c1>| is estimated by QR-retraction ascent on
U(n) (Absil, Mahony, Sepulchre, 2008), with all restarts of one call run in
lockstep over a stack of unitaries.
"""
from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

import numpy as np

from . import obs
from .graphs import Graph
from .linalg import UnitaryMatrix

# mode unitaries are plain unitary matrices on C^n
ModeUnitary = UnitaryMatrix

PHOTON_CAP = 4


class BosonicError(ValueError):
    pass


class MultiIndex(tuple):
    """Fock occupation numbers (k_1, ..., k_n)."""

    def __new__(cls, ks):
        ks = tuple(int(k) for k in ks)
        if any(k < 0 for k in ks):
            raise BosonicError(f"negative occupation in {ks}")
        return super().__new__(cls, ks)

    @property
    def r(self) -> int:
        return sum(self)

    def factorial(self) -> int:
        out = 1
        for k in self:
            out *= math.factorial(k)
        return out


def sector_basis(n: int, r: int) -> list:
    """All multi-indices on n modes with total exactly r."""
    if n == 1:
        return [MultiIndex((r,))]
    out = []
    for first in range(r + 1):
        for rest in sector_basis(n - 1, r - first):
            out.append(MultiIndex((first,) + tuple(rest)))
    return out


def sector_dimension(n: int, r: int) -> int:
    return math.comb(n + r - 1, r)


@dataclass(frozen=True)
class CoreState:
    """Sparse normalized state over Fock indices with total photons <= r_max."""

    n_modes: int
    r_max: int
    amplitudes: dict

    def __post_init__(self):
        if self.r_max > PHOTON_CAP:
            raise BosonicError(f"photon cap is {PHOTON_CAP}, got r_max={self.r_max}")
        clean = {}
        total = 0.0
        for k, amp in self.amplitudes.items():
            k = MultiIndex(k)
            if len(k) != self.n_modes:
                raise BosonicError(f"index {k} has wrong mode count")
            if k.r > self.r_max:
                raise BosonicError(f"index {k} exceeds photon cap {self.r_max}")
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise BosonicError(f"amplitude of {k} is not finite: {amp}")
            if amp != 0:
                clean[k] = amp
                total += abs(amp) ** 2
        if abs(total - 1.0) > 1e-9:
            raise BosonicError(f"core state norm^2 = {total}, expected 1")
        object.__setattr__(self, "amplitudes", clean)

    # -- polynomial (stellar) converters -------------------------------
    def to_polynomial(self) -> dict:
        """Coefficients of P(z): psi_k / sqrt(k!)."""
        return {k: amp / math.sqrt(k.factorial()) for k, amp in self.amplitudes.items()}

    @staticmethod
    def from_polynomial(n_modes: int, r_max: int, poly: dict) -> "CoreState":
        amps = {
            MultiIndex(k): c * math.sqrt(MultiIndex(k).factorial())
            for k, c in poly.items()
        }
        return CoreState(n_modes, r_max, amps)

    # -- serialization ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps({
            "n_modes": self.n_modes,
            "r_max": self.r_max,
            "amplitudes": [
                {"k": list(k), "amp": [amp.real, amp.imag]}
                for k, amp in sorted(self.amplitudes.items())
            ],
        })

    @staticmethod
    def from_json(text: str) -> "CoreState":
        """Read ``to_json`` output; a field of the wrong kind raises
        BosonicError, and the constructor checks the values."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise BosonicError("core state JSON must be an object")
        missing = [f for f in ("n_modes", "r_max", "amplitudes") if f not in obj]
        if missing:
            raise BosonicError(f"core state JSON lacks {', '.join(missing)}")
        n, r_max, entries = obj["n_modes"], obj["r_max"], obj["amplitudes"]
        if type(n) is not int or type(r_max) is not int:
            raise BosonicError(f"n_modes and r_max must be integers, got {n!r}, {r_max!r}")
        try:
            ks = [e["k"] for e in entries]
            pairs = np.array([e["amp"] for e in entries], dtype=float)
        except (TypeError, KeyError, ValueError):
            ks, pairs = [], np.zeros(0)
        if (not isinstance(entries, list) or pairs.shape != (len(entries), 2)
                or not all(isinstance(k, list) and all(type(i) is int for i in k)
                           for k in ks)):
            raise BosonicError('amplitudes must list {"k": [ints], "amp": [re, im]} entries')
        return CoreState(n, r_max, dict(zip(map(MultiIndex, ks),
                                            pairs.view(complex)[:, 0].tolist())))

    def dense(self, basis: list) -> np.ndarray:
        return np.array([self.amplitudes.get(k, 0j) for k in basis])


def core_overlap(c1: CoreState, c2: CoreState) -> complex:
    """<c1|c2>."""
    if c1.n_modes != c2.n_modes:
        raise BosonicError("mode count mismatch")
    keys = set(c1.amplitudes) & set(c2.amplitudes)
    return complex(sum(c1.amplitudes[k].conjugate() * c2.amplitudes[k] for k in keys))


# ----------------------------------------------------------------------
# Graph encoding
# ----------------------------------------------------------------------

def encode_graph_bosonic(g: Graph) -> CoreState:
    """P_G(z) = 1/sqrt(12n) sum z_i^3 + 1/sqrt(2|E|) sum_{ij in E} z_i z_j.

    Amplitudes: 1/sqrt(2n) on each |3_i> and 1/sqrt(2|E|) on |1_i 1_j>;
    normalization is exact.  Graphs with no edges are rejected.
    """
    n = g.n
    e = len(g.edges)
    if e < 1:
        raise BosonicError("graph encoding needs at least one edge")
    amps = {}
    for i in range(n):
        k = [0] * n
        k[i] = 3
        amps[MultiIndex(k)] = 1.0 / math.sqrt(2 * n)
    for u, v in g.edges:
        k = [0] * n
        k[u] = k[v] = 1
        amps[MultiIndex(k)] = 1.0 / math.sqrt(2 * e)
    return CoreState(n, 3, amps)


# ----------------------------------------------------------------------
# Linear-optical action
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sector_layout(n: int, r: int) -> tuple:
    """Flat layout of an (n,)*r sector tensor: its occupation tuples k, the
    index of k at every flat position, the first flat position of each k,
    and the entry weight sqrt(k!)/r! of each k."""
    occ = np.array([[p.count(i) for i in range(n)] for p in product(range(n), repeat=r)])
    occ, first, slot = np.unique(occ, axis=0, return_index=True, return_inverse=True)
    keys = tuple(MultiIndex(k) for k in occ.tolist())
    weight = np.array([math.sqrt(k.factorial()) for k in keys]) / math.factorial(r)
    slot = slot.reshape(-1)
    for a in (slot, first, weight):   # shared by every caller through the cache
        a.flags.writeable = False
    return keys, slot, first, weight


def _sector_tensors(amps: dict, n: int) -> dict:
    """{r: T_r}, T_r[i_1..i_r] = psi_k sqrt(k!)/r! where k counts the i's, so
    sum T_r[i] z_{i_1}..z_{i_r} is sector r of the stellar polynomial.
    The amplitudes need not be normalized."""
    out = {}
    for r in sorted({k.r for k in amps}):
        keys, slot, _, weight = _sector_layout(n, r)
        vec = np.array([amps.get(k, 0j) for k in keys], dtype=complex) * weight
        out[r] = vec[slot].reshape((n,) * r)
    return out


def _contract_leading(t: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Contract V into the leading axis of t, m times; each new axis goes
    to the back, so the result is 2-d: (remaining axes, new axes).  Over a
    stack v is (R, n, n), and t carries the same leading axis R."""
    n, lead = v.shape[-1], v.shape[:-2]
    rest = math.prod(t.shape[len(lead):]) // n
    for _ in range(m):
        t = t.reshape(lead + (n, rest)).swapaxes(-1, -2) @ v
    return t


def permanent(m: np.ndarray) -> complex:
    r = m.shape[0]
    if r == 0:
        return 1.0 + 0j
    total = 0j
    for perm in permutations(range(r)):
        prod = 1.0 + 0j
        for i, j in enumerate(perm):
            prod *= m[i, j]
        total += prod
    return total


def transition_amplitude(v: np.ndarray, k: MultiIndex, j: MultiIndex) -> complex:
    """<k|R(V)|j> = Per(V^T[k|j]) / sqrt(k! j!) in the substitution
    convention (the transpose is pinned by the equivalence with z -> Vz)."""
    if k.r != j.r:
        return 0j
    rows = [i for i, c in enumerate(k) for _ in range(c)]
    cols = [i for i, c in enumerate(j) for _ in range(c)]
    return permanent(v.T[np.ix_(rows, cols)]) / math.sqrt(k.factorial() * j.factorial())


def apply_linear_optical(v: ModeUnitary, c: CoreState,
                         method: str = "substitution",
                         adjoint: bool = False) -> CoreState:
    """R(V)|c>: the stellar substitution z -> Vz (default implementation)
    or the equivalent permanent formula.  ``adjoint`` applies V^dagger."""
    if v.dim != c.n_modes:
        raise BosonicError("mode unitary dimension mismatch")
    mat = v.matrix.conj().T if adjoint else v.matrix
    if method == "substitution":
        # S_r = T_r with V contracted into every axis; psi'_k = S_r[k] r!/sqrt(k!)
        out = {}
        for r, t in _sector_tensors(c.amplitudes, c.n_modes).items():
            keys, _, first, weight = _sector_layout(c.n_modes, r)
            s = _contract_leading(t, mat, r).reshape(-1)
            out.update(zip(keys, (s[first] / weight).tolist()))
        return CoreState(c.n_modes, c.r_max, out)
    if method == "permanent":
        by_sector = {}
        for j, amp in c.amplitudes.items():
            by_sector.setdefault(j.r, {})[j] = amp
        out = {}
        for r, sector in by_sector.items():
            for k in sector_basis(c.n_modes, r):
                val = sum(
                    transition_amplitude(mat, k, j) * amp
                    for j, amp in sector.items()
                )
                if abs(val) > 1e-14:
                    out[k] = out.get(k, 0j) + val
        return CoreState(c.n_modes, c.r_max, out)
    raise BosonicError(f"unknown method {method!r}")


def cubic_overlap(v: ModeUnitary) -> complex:
    """(1/n) sum_{i,k} V_{ik}^3."""
    return complex(np.sum(v.matrix**3) / v.dim)


@dataclass(frozen=True)
class PermutationProjection:
    perm: Optional[tuple]   # row i maps to column perm[i]
    phases: Optional[np.ndarray]
    residual: float
    collision: bool


def nearest_permutation_phase(v: ModeUnitary) -> PermutationProjection:
    """Project V onto the nearest permutation-times-phase-diagonal via the
    row-wise argmax assignment T_{i k_i} = V_{i k_i}/|V_{i k_i}|."""
    m = v.matrix
    n = v.dim
    cols = [int(np.argmax(np.abs(m[i]))) for i in range(n)]
    if len(set(cols)) != n:
        return PermutationProjection(None, None, float("inf"), True)
    t = np.zeros_like(m)
    phases = np.zeros(n, dtype=complex)
    for i, ki in enumerate(cols):
        ph = m[i, ki] / abs(m[i, ki])
        t[i, ki] = ph
        phases[ki] = ph
    residual = float(np.linalg.norm(m - t))
    return PermutationProjection(tuple(cols), phases, residual, False)


def permutation_mode_unitary(perm, n: int) -> ModeUnitary:
    """Mode unitary sending z_i -> z_{perm[i]} under substitution."""
    m = np.zeros((n, n), dtype=complex)
    for i in range(n):
        m[i, perm[i]] = 1.0
    return ModeUnitary(n, m)


def perturbed_permutation_unitary(rng, n: int, scale: float) -> ModeUnitary:
    """A permutation-times-phase unitary moved by a small random rotation.

    Phases are cube roots of unity so the cubic overlap of the unperturbed
    matrix is exactly 1; ``scale`` bounds the rotation angle.  Useful for
    sampling inside the delta-regime of nearest_permutation_phase.
    """
    p = rng.permutation(n)
    d = np.exp(2j * np.pi * rng.integers(0, 3, n) / 3)
    base = permutation_mode_unitary(tuple(p), n).matrix @ np.diag(d)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (h + h.conj().T) / 2
    w, vec = np.linalg.eigh(h)
    eps = rng.uniform(0, scale)
    rot = vec @ np.diag(np.exp(1j * eps * w)) @ vec.conj().T
    return ModeUnitary(n, rot @ base)


def haar_mode_unitary(n: int, seed) -> ModeUnitary:
    """Exact Haar sample: complex Ginibre QR with the phase correction."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return ModeUnitary(n, _haar_stack(n, rng, 1)[0])


# ----------------------------------------------------------------------
# SZK samplers and TV estimation
# ----------------------------------------------------------------------

def truncated_basis(n: int, r_max: int) -> list:
    out = []
    for r in range(r_max + 1):
        out.extend(sector_basis(n, r))
    return out


def default_sigma(b: float, n: int, r: int) -> float:
    """sigma = b / n^{r/2} with unit constant."""
    return b / n ** (r / 2)


def _check_sigma(sigma: float) -> None:
    if not sigma > 0:
        raise BosonicError(f"noise scale sigma must be > 0, got {sigma}")


def szk_sampler(c: CoreState, sigma: float, seed,
                basis: Optional[list] = None) -> tuple:
    """One sample |c_U> + eta with U Haar and eta ~ N_C(0, sigma^2 I).

    Returns (noisy dense vector, basis, U).
    """
    _check_sigma(sigma)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    u = haar_mode_unitary(c.n_modes, rng)
    moved = apply_linear_optical(u, c)
    basis = basis or truncated_basis(c.n_modes, c.r_max)
    vec = moved.dense(basis)
    d = len(basis)
    eta = sigma / math.sqrt(2) * (rng.normal(size=d) + 1j * rng.normal(size=d))
    return vec + eta, basis, u


def gaussian_tv_upper(u: np.ndarray, v: np.ndarray, sigma: float) -> float:
    """Pinsker bound on the TV distance between N_C(u, sigma^2 I) and
    N_C(v, sigma^2 I): TV <= ||u - v|| / (2 sigma)."""
    return min(1.0, float(np.linalg.norm(u - v)) / (2 * sigma))


def orbit_distance(z: np.ndarray, basis: list, c: CoreState,
                   warm_starts, iters: int = 25,
                   good_enough: float = 0.0) -> float:
    """Distance from a vector to the linear-optical orbit of c.

    Refines max_U |<z|R(U)|c>| by Riemannian ascent from the warm-start
    unitaries, in lockstep, and converts the best overlap to a distance.
    The best is taken over the starts up to the first whose ascent
    certifies a distance below ``good_enough``; the later ones stop there.
    """
    n = c.n_modes
    overlap = _overlap_plan(_sector_tensors(c.amplitudes, n),
                            _sector_tensors({k: a for k, a in zip(basis, z) if a != 0}, n), n)
    z_norm_sq = float(np.vdot(z, z).real)
    # overlap needed to certify dist <= good_enough
    stop_at = (z_norm_sq + 1.0 - good_enough**2) / 2.0
    starts = np.asarray(warm_starts, dtype=complex).reshape(-1, n, n)
    _, _, val = _ascend(starts, overlap, iters, stop_at=stop_at)
    # the starts after the first to reach stop_at were never needed
    val = val[:np.argmax(val >= stop_at) + 1] if (val >= stop_at).any() else val
    best = float(val.max(initial=0.0))
    return math.sqrt(max(z_norm_sq + 1.0 - 2.0 * best, 0.0))


def estimate_tv_gap(c1: CoreState, c2: CoreState, sigma: float, n_samples: int,
                    seed: int, n_reference: int = 150, n_warm: int = 3,
                    b: Optional[float] = None) -> tuple:
    """Lower-bound the total variation distance between the two samplers.

    Uses the region statistic Z = { z : dist(z, orbit of c1) <= b/2 },
    where b is the distance between the two noiseless orbits: the TV
    distance is at least P_1[Z] - P_2[Z].  Orbit distances are computed by
    warm-started ascent from the closest of n_reference cached orbit
    points.  Returns (tv_lower, diagnostics).
    """
    if c1.n_modes != c2.n_modes:
        raise BosonicError("mode count mismatch")
    if n_samples < 1 or not 1 <= n_warm <= n_reference:
        raise BosonicError("need n_samples >= 1 and 1 <= n_warm <= n_reference, got "
                           f"{n_samples}, {n_warm}, {n_reference}")
    _check_sigma(sigma)
    rng = np.random.default_rng(seed)
    basis = truncated_basis(c1.n_modes, max(c1.r_max, c2.r_max))
    refs = [(u, apply_linear_optical(ModeUnitary(c1.n_modes, u), c1).dense(basis))
            for u in _haar_stack(c1.n_modes, rng, n_reference)]
    if b is None:
        _, best_abs, _ = optimize_overlap(c1, c2, restarts=20, seed=rng.integers(1 << 31))
        b = math.sqrt(max(2.0 - 2.0 * best_abs, 0.0))
    hits = [0, 0]
    for side, c in enumerate((c1, c2)):
        for _ in range(n_samples):
            z, _, _ = szk_sampler(c, sigma, rng, basis)
            align = [abs(np.vdot(vec, z)) for _, vec in refs]
            order = np.argsort(align)[::-1][:n_warm]
            starts = [refs[i][0] for i in order]
            if orbit_distance(z, basis, c1, starts, good_enough=b / 2) <= b / 2:
                hits[side] += 1
    p1, p2 = hits[0] / n_samples, hits[1] / n_samples
    tv_lower = p1 - p2
    half_width = 2 * math.sqrt(0.25 / n_samples)  # ~95% binomial CI each side
    diag = {"p1": p1, "p2": p2, "b": b, "sigma": sigma,
            "ci_half_width": 2 * half_width, "n_samples": n_samples}
    return tv_lower, diag


# ----------------------------------------------------------------------
# Overlap optimization over U(n)
# ----------------------------------------------------------------------

def _overlap_plan(src: dict, tgt: dict, n: int):
    """V -> (f, grad) of _overlap_grad for one pair of sector tensors, over
    a stack (R, n, n); f has shape (R, 1, 1), so that it broadcasts against
    the stack.  Built once per ascent.  Each sector r >= 2 contributes
    T1_r, flattened for its first contraction with V, and Q_r = [P_r,
    P_r / r] with P_r = r r! T2_r^dagger, so that M_r Q_r holds grad_r next
    to grad_r / r, whose inner product with V is f_r.  The first
    contractions of all sectors are one product, and so are the products
    with Q_r.  Sectors 0 and 1 do not depend on V through M."""
    f0, base, layout, firsts, qs = 0j, None, [], [], []
    for r in sorted(src.keys() & tgt.keys()):
        t1, t2 = src[r], tgt[r]
        if r == 0:
            f0 = complex(t2.conjugate() * t1)
            continue
        p = (r * math.factorial(r)) * t2.reshape(n, -1).conj().T
        q = np.concatenate([p, p / r], axis=1)
        if r == 1:
            base = t1.reshape(n, 1) @ q
        else:
            # rows lo:hi of the first product, and the contractions left
            lo = sum(len(t) for t in firsts)
            layout.append((lo, lo + n ** (r - 1), r - 2))
            firsts.append(t1.reshape(n, -1).T)
            qs.append(q)
    if layout:
        firsts, q_all = np.concatenate(firsts), np.concatenate(qs)
    elif base is None:
        base = np.zeros((n, 2 * n), dtype=complex)

    def overlap(v: np.ndarray):
        if layout:
            x, ms = firsts @ v, []
            for lo, hi, more in layout:
                ms.append(_contract_leading(x[:, lo:hi], v, more).reshape(len(v), n, hi - lo))
            acc = np.concatenate(ms, axis=2) @ q_all
            if base is not None:
                acc += base
        else:
            acc = np.broadcast_to(base, (len(v),) + base.shape)
        f = np.add.reduce(v * acc[:, :, n:], axis=(1, 2), keepdims=True)
        return (f + f0 if f0 else f), acc[:, :, :n]

    return overlap


def _overlap_grad(v: np.ndarray, src: dict, tgt: dict):
    """f = <target|R(V)|source> and grad[a, b] = df/dV_ab from the sector
    tensors: with M = T1_r contracted with V on axes 2..r, grad_r =
    r r! M T2_r^dagger, and f_r = sum(V * grad_r) / r by homogeneity.
    ``v`` is one (n, n) matrix or a stack (R, n, n)."""
    f, grad = _overlap_plan(src, tgt, v.shape[-1])(v.reshape((-1,) + v.shape[-2:]))
    if v.ndim == 2:
        return complex(f.item()), grad[0]
    return f[:, 0, 0], grad


def _qr_retract(m: np.ndarray) -> np.ndarray:
    """Q of m = QR with R's diagonal made positive, over a stack (R, n, n)."""
    q, r = np.linalg.qr(m)
    d = r.diagonal(0, 1, 2)
    return q * (d / np.abs(d))[:, None]


def _rgrad(v: np.ndarray, f: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Euclidean ascent direction of |f|^2, projected to the tangent space
    of U(n) at each V of the stack (f has shape (R, 1, 1))."""
    egrad = 2 * f * grad.conj()
    return egrad - v @ egrad.conj().swapaxes(1, 2) @ v


def _going(steps, iters, rgrad, val, stop_at) -> np.ndarray:
    """Rows whose ascent goes on from their current point: fewer than
    ``iters`` accepted steps, a Riemannian gradient above 1e-12, and no
    row up to and including this one at ``stop_at``."""
    sq = np.add.reduce(np.square(rgrad.view(float)), axis=(1, 2), keepdims=True)
    return (steps < iters) & (sq >= 1e-24) & np.logical_and.accumulate(val < stop_at)


def _ascend(v: np.ndarray, overlap, iters: int, stop_at: float = np.inf):
    """Riemannian ascent of |<target|R(V)|source>| from a stack of starts.

    ``v`` is (R, n, n) and ``overlap`` comes from _overlap_plan.  The rows
    run in lockstep: each round, every live row evaluates one trial point,
    the QR retraction of V + step * rgrad.  An accepted trial advances the
    row one iteration and multiplies its step by 1.3; a rejected one halves
    it.  A row stops after ``iters`` accepted steps, once its value reaches
    ``stop_at``, when its Riemannian gradient vanishes or when its step
    falls to 1e-10, so it follows the trajectory it would follow alone.
    Once a row reaches ``stop_at``, every later row stops as well.  The
    per-row state has shape (R, 1, 1) to broadcast against the stack, and
    a stopped row gets step 0.  Returns the stack, f and |f| at each row's
    last accepted point.
    """
    v = np.array(v, dtype=complex)
    f, grad = overlap(v)
    val = np.abs(f)
    rgrad = _rgrad(v, f, grad)
    steps = np.zeros(val.shape, dtype=int)
    step = np.where(_going(steps, iters, rgrad, val, stop_at), 0.5, 0.0)
    trials = 0
    while trying := np.count_nonzero(live := step > 1e-10):
        trials += trying
        trial = _qr_retract(v + step * rgrad)
        f_t, grad_t = overlap(trial)
        val_t = np.abs(f_t)
        acc = live & (val_t > val + 1e-14)
        step = step * np.where(acc, 1.3, 0.5)
        moved = np.count_nonzero(acc)
        if moved == len(v):     # every row moved: the trial is the new state
            v, f, val, rgrad = trial, f_t, val_t, _rgrad(trial, f_t, grad_t)
        elif moved:
            np.copyto(v, trial, where=acc)
            np.copyto(f, f_t, where=acc)
            np.copyto(val, val_t, where=acc)
            np.copyto(rgrad, _rgrad(trial, f_t, grad_t), where=acc)
        if moved:
            steps = steps + acc
            step = np.where(_going(steps, iters, rgrad, val, stop_at), step, 0.0)
    obs.count("bosonic.restarts", len(v))
    obs.count("bosonic.ascent_trials", trials)
    obs.count("bosonic.ascent_steps", steps.sum())
    return v, f[:, 0, 0], val[:, 0, 0]


def _haar_stack(n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` exact Haar samples: complex Ginibre QR with the phase
    correction; the draws are those of ``count`` single samples in turn."""
    g = rng.normal(size=(count, 2, n, n))
    return _qr_retract((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2))


def optimize_overlap(c1: CoreState, c2: CoreState, restarts: int = 50,
                     iters: int = 150, seed: int = 0,
                     trace_file: Optional[str] = None) -> tuple:
    """Random-restart Riemannian ascent of |<c2|R(V)|c1>| over U(n).

    Starts at the identity, then at Haar draws from ``seed``, and runs all
    restarts in lockstep (_ascend); the overlap and its gradient come from
    sector tensors built once per call.  Returns (best ModeUnitary, best
    |overlap|, Re overlap at the best V), the best being the first restart
    with the largest value.  Non-convergence is reflected in the returned
    value, never raised.
    """
    if c1.n_modes != c2.n_modes:
        raise BosonicError("mode count mismatch")
    if restarts < 1:
        raise BosonicError(f"restarts must be >= 1, got {restarts}")
    n = c1.n_modes
    overlap = _overlap_plan(_sector_tensors(c1.amplitudes, n),
                            _sector_tensors(c2.amplitudes, n), n)
    rng = np.random.default_rng(seed)
    starts = np.concatenate([np.eye(n, dtype=complex)[None],
                             _haar_stack(n, rng, restarts - 1)])
    v, f, val = _ascend(starts, overlap, iters)
    best = int(np.argmax(val))
    if trace_file is not None:
        with open(trace_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["restart", "best_value"])
            writer.writerows(enumerate(val.tolist()))
    return ModeUnitary(n, v[best]), float(val[best]), float(f[best].real)
