"""Few-photon core states, passive linear optics, and graph encodings.

States are sparse maps from Fock multi-indices to amplitudes, capped at a
small total photon number.  A mode unitary V acts by the stellar
substitution z -> Vz on the state's polynomial; with each photon sector a
symmetric tensor, it and the overlap gradients in V are tensor contractions
(Chabaud, Markham, Grosshans, PRL 124, 063605, 2020).  The permanent
formula is kept only as an independent cross-check of the same action.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

import numpy as np

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
        obj = json.loads(text)
        missing = [f for f in ("n_modes", "r_max", "amplitudes") if f not in obj]
        if missing:
            raise BosonicError(f"core state JSON lacks {', '.join(missing)}")
        amps = {
            MultiIndex(e["k"]): complex(e["amp"][0], e["amp"][1])
            for e in obj["amplitudes"]
        }
        return CoreState(obj["n_modes"], obj["r_max"], amps)

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
    to the back, so the result is 2-d: (remaining axes, new axes)."""
    n = v.shape[0]
    for _ in range(m):
        t = t.reshape(n, -1).T @ v
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
    g = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    return ModeUnitary(n, _qr_retract(g))


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

    Refines max_U |<z|R(U)|c>| by Riemannian ascent from each warm-start
    unitary and converts the best overlap to a distance.  Stops early if
    the distance already falls below ``good_enough``.
    """
    src = _sector_tensors(c.amplitudes, c.n_modes)
    tgt = _sector_tensors({k: a for k, a in zip(basis, z) if a != 0}, c.n_modes)
    z_norm_sq = float(np.vdot(z, z).real)
    # overlap needed to certify dist <= good_enough
    stop_at = (z_norm_sq + 1.0 - good_enough**2) / 2.0
    best = 0.0
    for u0 in warm_starts:
        _, _, val = _ascend(u0, src, tgt, iters, stop_at=stop_at)
        best = max(best, val)
        if best >= stop_at:
            break
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
    refs = []
    for _ in range(n_reference):
        u = haar_mode_unitary(c1.n_modes, rng)
        refs.append((u.matrix, apply_linear_optical(u, c1).dense(basis)))
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

def _overlap_grad(v: np.ndarray, src: dict, tgt: dict):
    """f = <target|R(V)|source> and grad[a, b] = df/dV_ab from the sector
    tensors: with M = T1_r contracted with V on axes 2..r, grad_r =
    r r! M T2_r^dagger, and f_r = sum(V * grad_r) / r by homogeneity."""
    n = v.shape[0]
    f, grad = 0j, np.zeros((n, n), dtype=complex)
    for r in sorted(src.keys() & tgt.keys()):
        t1, t2 = src[r], tgt[r]
        if r == 0:
            f += complex(t2.conjugate() * t1)
            continue
        m = _contract_leading(t1, v, r - 1).reshape(n, -1)
        g = (r * math.factorial(r)) * (m @ t2.reshape(n, -1).conj().T)
        f += np.sum(v * g) / r
        grad += g
    return complex(f), grad


def _qr_retract(m: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _ascend(v: np.ndarray, src: dict, tgt: dict, iters: int,
            stop_at: float = np.inf):
    """Riemannian ascent of |<target|R(V)|source>| from a fixed start.

    ``src``/``tgt`` are sector tensors; each trial point costs one
    _overlap_grad.  Stops early once the value reaches ``stop_at``.
    """
    step = 0.5
    f, grad = _overlap_grad(v, src, tgt)
    val = abs(f)
    for _ in range(iters):
        if val >= stop_at:
            break
        # Euclidean ascent direction for |f|^2, projected to the tangent
        # space of U(n), then QR retraction
        egrad = 2 * f * grad.conjugate()
        rgrad = egrad - v @ egrad.conj().T @ v
        if np.linalg.norm(rgrad) < 1e-12:
            break
        improved = False
        while step > 1e-10:
            v_new = _qr_retract(v + step * rgrad)
            f_new, grad_new = _overlap_grad(v_new, src, tgt)
            if abs(f_new) > val + 1e-14:
                v, f, grad, val = v_new, f_new, grad_new, abs(f_new)
                improved = True
                step *= 1.3
                break
            step /= 2
        if not improved:
            break
    return v, f, val


def optimize_overlap(c1: CoreState, c2: CoreState, restarts: int = 50,
                     iters: int = 150, seed: int = 0,
                     trace_file: Optional[str] = None) -> tuple:
    """Random-restart Riemannian ascent of |<c2|R(V)|c1>| over U(n).

    Starts at the identity, then at Haar draws from ``seed``; the overlap
    and its gradient come from sector tensors built once per call.
    Returns (best ModeUnitary, best |overlap|, Re overlap at the best V).
    Non-convergence is reflected in the returned value, never raised.
    """
    if c1.n_modes != c2.n_modes:
        raise BosonicError("mode count mismatch")
    if restarts < 1:
        raise BosonicError(f"restarts must be >= 1, got {restarts}")
    n = c1.n_modes
    src, tgt = _sector_tensors(c1.amplitudes, n), _sector_tensors(c2.amplitudes, n)
    rng = np.random.default_rng(seed)
    best_val, best_v, best_f = -1.0, None, 0j
    rows = []
    for restart in range(restarts):
        v0 = np.eye(n, dtype=complex) if restart == 0 else haar_mode_unitary(n, rng).matrix
        v, f, val = _ascend(v0, src, tgt, iters)
        rows.append((restart, val))
        if val > best_val:
            best_val, best_v, best_f = val, v, f
    if trace_file is not None:
        with open(trace_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["restart", "best_value"])
            writer.writerows(rows)
    return ModeUnitary(n, best_v), float(best_val), float(best_f.real)
