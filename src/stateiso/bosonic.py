"""Few-photon core states, passive linear optics, and graph encodings.

States are sparse maps from Fock multi-indices to amplitudes, capped at a
small total photon number.  A mode unitary V acts by the stellar
substitution z -> Vz on the state's polynomial; with each photon sector a
symmetric tensor, it and the overlap gradients in V are tensor contractions
(Chabaud, Markham, Grosshans, PRL 124, 063605, 2020).  The permanent
formula <k|R(V)|j> = Per(V^T[k|j]) / sqrt(k! j!) (Aaronson, Arkhipov, STOC
2011) is kept as an independent cross-check of the same action: all the
minors of a photon sector, over all r! permutations, are one gather.
The overlap max_V |<c2|R(V)|c1>| is estimated by QR-retraction ascent on
U(n) (Absil, Mahony, Sepulchre, 2008), with all restarts of one call run in
lockstep over a stack of unitaries.  The samples of a tv-gap estimate
ascend in lockstep too: the warm starts of every noisy sample form one
stack, each row with its own target, and the orbit points they start from
are one stacked substitution.
"""
from __future__ import annotations

import cmath
import contextlib
import csv
import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations, product
from typing import Optional

import numpy as np
from numpy.linalg import _umath_linalg

from . import obs
from .graphs import Graph
from .linalg import UnitaryMatrix

# mode unitaries are plain unitary matrices on C^n
ModeUnitary = UnitaryMatrix

PHOTON_CAP = 4

# the QR factorization in place (numpy < 2 names its m <= n case qr_r_raw_m)
# and the Q it builds from the reflectors, as numpy's own qr resolves them
_qr_r_raw = getattr(_umath_linalg, "qr_r_raw", None) or _umath_linalg.qr_r_raw_m
_qr_reduced = _umath_linalg.qr_reduced


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
    """All multi-indices on n modes with total exactly r, ascending."""
    return list(_sector_layout(n, r)[0])


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
            if type(k) is not MultiIndex:   # a MultiIndex was checked when made
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

    # -- serialization ----------------------------------------------------
    def to_obj(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "r_max": self.r_max,
            "amplitudes": [
                {"k": list(k), "amp": [amp.real, amp.imag]}
                for k, amp in sorted(self.amplitudes.items())
            ],
        }

    @staticmethod
    def from_obj(obj) -> "CoreState":
        """Read ``to_obj`` output; a field of the wrong kind raises
        BosonicError, and the constructor checks the values."""
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

@cache
def _sector_layout(n: int, r: int) -> tuple:
    """Flat layout of an (n,)*r sector tensor: its occupation tuples k in
    ascending order, the index of k at every flat position, the first flat
    position of each k, the entry weight sqrt(k!)/r! of each k, and the
    modes of each k, (K, r): mode i k_i times, which is its first flat
    position read as r digits."""
    flat = list(product(range(n), repeat=r))
    occ = np.array([[p.count(i) for i in range(n)] for p in flat])
    occ, first, slot = np.unique(occ, axis=0, return_index=True, return_inverse=True)
    keys = tuple(MultiIndex(k) for k in occ.tolist())
    weight = np.array([math.sqrt(k.factorial()) for k in keys]) / math.factorial(r)
    slot = slot.reshape(-1)
    modes = np.array([flat[i] for i in first], dtype=np.intp).reshape(len(keys), r)
    for a in (slot, first, weight, modes):   # shared by every caller through the cache
        a.flags.writeable = False
    return keys, slot, first, weight, modes


def _sector_tensors(amps: dict, n: int) -> dict:
    """{r: T_r}, T_r[i_1..i_r] = psi_k sqrt(k!)/r! where k counts the i's, so
    sum T_r[i] z_{i_1}..z_{i_r} is sector r of the stellar polynomial.
    The amplitudes need not be normalized."""
    out = {}
    for r in sorted({k.r for k in amps}):
        keys, slot, _, weight, _ = _sector_layout(n, r)
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


# entries of one (K, J, r!, r) gather of the permanent formula
_GATHER_ENTRIES = 1 << 16
# the (r!, r) permutations of range(r), for every sector
_PERMS = [np.array(list(permutations(range(r))), dtype=np.intp).reshape(math.factorial(r), r)
          for r in range(PHOTON_CAP + 1)]


def apply_linear_optical(v: ModeUnitary, c: CoreState,
                         method: str = "substitution") -> CoreState:
    """R(V)|c>: the stellar substitution z -> Vz (default implementation)
    or the equivalent permanent formula."""
    if v.dim != c.n_modes:
        raise BosonicError("mode unitary dimension mismatch")
    if method == "substitution":
        # S_r = T_r with V contracted into every axis; psi'_k = S_r[k] r!/sqrt(k!)
        out = {}
        for r, t in _sector_tensors(c.amplitudes, c.n_modes).items():
            keys, _, first, weight, _ = _sector_layout(c.n_modes, r)
            s = _contract_leading(t, v.matrix, r).reshape(-1)
            out.update(zip(keys, (s[first] / weight).tolist()))
        return CoreState(c.n_modes, c.r_max, out)
    if method == "permanent":
        # <k|R(V)|j> = Per(V^T[k|j]) / sqrt(k! j!): per sector, the products
        # over every permutation of every (k, j) minor are one gather
        vt = v.matrix.T
        by_sector = {}
        for j, amp in c.amplitudes.items():
            by_sector.setdefault(j.r, {})[j] = amp
        out = {}
        for r, sector in by_sector.items():
            keys, _, _, weight, rows = _sector_layout(c.n_modes, r)
            cols = rows[[keys.index(j) for j in sector]][:, _PERMS[r]]     # (J, r!, r)
            amps = np.array(list(sector.values())) / np.sqrt([j.factorial() for j in sector])
            step = max(1, _GATHER_ENTRIES // max(1, cols.size))
            vals = np.empty(len(keys), dtype=complex)
            for lo in range(0, len(keys), step):
                minors = vt[rows[lo:lo + step, None, None, :], cols[None]]
                vals[lo:lo + step] = minors.prod(axis=-1).sum(axis=-1) @ amps
            # sqrt(k!) == weight r! exactly for every r <= PHOTON_CAP
            for k, val in zip(keys, (vals / (weight * math.factorial(r))).tolist()):
                if abs(val) > 1e-14:
                    out[k] = out.get(k, 0j) + val
        return CoreState(c.n_modes, c.r_max, out)
    raise BosonicError(f"unknown method {method!r}")


def _orbit_points(c: CoreState, us: np.ndarray, basis: list) -> np.ndarray:
    """(R, len(basis)): R(U)|c> over ``basis`` for every U of a stack (R,
    n, n), by the substitution of apply_linear_optical with one stacked
    contraction per sector."""
    n = c.n_modes
    col = {k: i for i, k in enumerate(basis)}
    # column -1 takes the keys that are not in the basis
    out = np.zeros((len(us), len(basis) + 1), dtype=complex)
    for r, t in _sector_tensors(c.amplitudes, n).items():
        keys, _, first, weight, _ = _sector_layout(n, r)
        s = _contract_leading(t[None].repeat(len(us), axis=0), us, r).reshape(len(us), -1)
        out[:, [col.get(k, -1) for k in keys]] = s[:, first] / weight
    return out[:, :-1]


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
    return ModeUnitary(n, _haar_stack(n, np.random.default_rng(seed), 1)[0])


# ----------------------------------------------------------------------
# SZK samplers and TV estimation
# ----------------------------------------------------------------------

def truncated_basis(n: int, r_max: int) -> list:
    out = []
    for r in range(r_max + 1):
        out.extend(sector_basis(n, r))
    return out


def _check_sigma(sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma > 0):
        raise BosonicError(f"noise scale sigma must be finite and > 0, got {sigma}")


def szk_samples(c: CoreState, sigma: float, rng: np.random.Generator,
                basis: list, count: int) -> tuple:
    """``count`` samples |c_U> + eta over ``basis``, U Haar and eta ~
    N_C(0, sigma^2 I), from one block of normals whose rows hold, in turn,
    the draws of one sample: U's Ginibre matrix, then eta's real and
    imaginary parts.  Returns (z, us), shapes (count, len(basis)) and
    (count, n, n).  A sample whose squared norm is not finite (the noise
    overflowed) raises BosonicError.
    """
    _check_sigma(sigma)
    n, d = c.n_modes, len(basis)
    g = rng.normal(size=(count, 2 * n * n + 2 * d))
    ginibre, re, im = np.split(g, [2 * n * n, 2 * n * n + d], axis=1)
    us = _ginibre_unitaries(ginibre.reshape(count, 2, n, n))
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        z = _orbit_points(c, us, basis) + sigma / math.sqrt(2) * (re + 1j * im)
        if not np.isfinite(np.einsum("sd,sd->s", z.conj(), z).real).all():
            raise BosonicError(f"the squared norm of a noisy sample is not finite at sigma={sigma}")
    return z, us


# entries of the top-sector target tensors of one block of orbit_distance rows
_ASCENT_ENTRIES = 1 << 16


def orbit_distance(z: np.ndarray, basis: list, c: CoreState,
                   warm_starts, iters: int = 25,
                   good_enough: float = 0.0):
    """Distance from each vector of a stack to the linear-optical orbit of c.

    ``z`` is (S, len(basis)), or one vector, and ``warm_starts`` holds W
    unitaries for each vector, (S, W, n, n), or (W, n, n) for one vector.
    Refines max_U |<z|R(U)|c>| by Riemannian ascent from every warm start,
    all in lockstep, and converts each vector's best overlap to a distance.
    The best is taken over the vector's starts up to the first whose ascent
    certifies a distance below ``good_enough``; the later ones stop there.
    Returns an (S,) array of distances, or a float for one vector.
    """
    n = c.n_modes
    z = np.asarray(z, dtype=complex)
    zs = z.reshape(-1, z.shape[-1])
    starts = np.asarray(warm_starts, dtype=complex).reshape(len(zs), -1, n, n)
    w = starts.shape[1]
    z_sq = np.array([np.vdot(row, row).real for row in zs])
    # overlap needed to certify dist <= good_enough
    stop_at = ((z_sq + 1.0 - good_enough**2) / 2.0)[:, None]
    src = _sector_tensors(c.amplitudes, n)
    best = np.empty(len(zs))
    block = max(1, _ASCENT_ENTRIES // (w * n ** c.r_max))
    for lo in range(0, len(zs), block):
        part = slice(lo, lo + block)
        tgts = [_sector_tensors(dict(zip(basis, row)), n) for row in zs[part]]
        tgt = {r: np.stack([t[r] for t in tgts]).repeat(w, axis=0) for r in tgts[0]}
        _, _, val = _ascend(starts[part].reshape(-1, n, n), _overlap_plan(src, tgt, n),
                            iters, stop_at=stop_at[part])
        val = val.reshape(-1, w)
        reached = val >= stop_at[part]
        # the starts after the first to reach stop_at were never needed
        needed = np.cumsum(reached, axis=1) - reached == 0
        best[part] = np.where(needed, val, 0.0).max(axis=1)
    dist = np.sqrt(np.maximum(z_sq + 1.0 - 2.0 * best, 0.0))
    return dist.reshape(z.shape[:-1])[()]


def estimate_tv_gap(c1: CoreState, c2: CoreState, sigma: float, n_samples: int,
                    seed: int, n_reference: int = 150, n_warm: int = 3,
                    b: Optional[float] = None) -> tuple:
    """Lower-bound the total variation distance between the two samplers.

    Uses the region statistic Z = { z : dist(z, orbit of c1) <= b/2 },
    where b is the distance between the two noiseless orbits: the TV
    distance is at least P_1[Z] - P_2[Z].  Orbit distances are computed by
    warm-started ascent from the n_warm closest of n_reference cached orbit
    points, for all samples of both sides in one lockstep stack.  Returns
    (tv_lower, diagnostics).
    """
    if c1.n_modes != c2.n_modes:
        raise BosonicError("mode count mismatch")
    if n_samples < 1 or not 1 <= n_warm <= n_reference:
        raise BosonicError("need n_samples >= 1 and 1 <= n_warm <= n_reference, got "
                           f"{n_samples}, {n_warm}, {n_reference}")
    _check_sigma(sigma)
    rng = np.random.default_rng(seed)
    basis = truncated_basis(c1.n_modes, max(c1.r_max, c2.r_max))
    us = _haar_stack(c1.n_modes, rng, n_reference)
    refs = _orbit_points(c1, us, basis)
    if b is None:
        _, best_abs, _ = optimize_overlap(c1, c2, restarts=20, seed=rng.integers(1 << 31))
        b = math.sqrt(max(2.0 - 2.0 * best_abs, 0.0))
    z = np.concatenate([szk_samples(c, sigma, rng, basis, n_samples)[0] for c in (c1, c2)])
    align = np.abs(z @ refs.conj().T)
    order = np.argsort(align, axis=1)[:, ::-1][:, :n_warm]
    dist = orbit_distance(z, basis, c1, us[order], good_enough=b / 2)
    hits = np.count_nonzero((dist <= b / 2).reshape(2, n_samples), axis=1).tolist()
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
    """V -> (f, grad) over a stack (R, n, n): f = <target|R(V)|source> and
    grad[a, b] = df/dV_ab, for one source and one target per row.  With M =
    T1_r contracted with V on axes 2..r, grad_r = r r! M T2_r^dagger, and
    f_r = sum(V * grad_r) / r by homogeneity.  Each target tensor carries a
    leading row axis of length R, or none, when one target serves every
    row.  f has shape (R, 1, 1), so that it broadcasts against the stack.
    Built once per ascent.  Each sector r >= 2 contributes T1_r, flattened
    for its first contraction with V, and Q_r = [P_r, P_r / r] with P_r =
    r r! T2_r^dagger, so that M_r Q_r holds grad_r next to grad_r / r, whose
    inner product with V is f_r.  The first contractions of all sectors are
    one product, and so are the products with Q_r.  Sectors 0 and 1 do not
    depend on V through M."""
    f0, base, layout, firsts, qs = None, None, [], [], []
    for r in sorted(src.keys() & tgt.keys()):
        t1, t2 = src[r], tgt[r]
        lead = t2.shape[:t2.ndim - r]       # (R,) or ()
        if r == 0:
            f0 = (t2.conjugate() * t1).reshape(lead + (1, 1))
            continue
        p = (r * math.factorial(r)) * t2.reshape(lead + (n, -1)).conj().swapaxes(-1, -2)
        q = np.concatenate([p, p / r], axis=-1)
        if r == 1:
            base = t1.reshape(n, 1) @ q
        else:
            # rows lo:hi of the first product, and the contractions left
            lo = sum(len(t) for t in firsts)
            layout.append((lo, lo + n ** (r - 1), r - 2))
            firsts.append(t1.reshape(n, -1).T)
            qs.append(q)
    if layout:
        firsts, q_all = np.concatenate(firsts), np.concatenate(qs, axis=-2)
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
            acc = np.broadcast_to(base, (len(v), n, 2 * n))
        f = np.add.reduce(v * acc[:, :, n:], axis=(1, 2), keepdims=True)
        return (f if f0 is None else f + f0), acc[:, :, :n]

    return overlap


def _qr_retract(m: np.ndarray) -> np.ndarray:
    """Q of m = QR with R's diagonal made positive, over a stack (R, n, n).

    The two LAPACK gufuncs (geqrf, then ungqr) on a copy of m, as numpy's
    own qr calls them without its per-call wrapper, so Q is bit for bit its
    Q; the factored copy holds R in its upper triangle."""
    a = np.array(m, dtype=complex)
    q = _qr_reduced(a, _qr_r_raw(a))
    d = a.diagonal(0, 1, 2)
    return q * (d / np.abs(d))[:, None]


def _rgrad(v: np.ndarray, f: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Euclidean ascent direction of |f|^2, projected to the tangent space
    of U(n) at each V of the stack (f has shape (R, 1, 1))."""
    egrad = 2 * f * grad.conj()
    return egrad - v @ egrad.conj().swapaxes(1, 2) @ v


def _going(steps, iters, rgrad, val, stop_at) -> np.ndarray:
    """Rows whose ascent goes on from their current point: fewer than
    ``iters`` accepted steps, a Riemannian gradient above 1e-12, and no
    row of its group up to and including this one at the group's
    ``stop_at`` (S, 1)."""
    sq = np.add.reduce(np.square(rgrad.view(float)), axis=(1, 2), keepdims=True)
    below = np.logical_and.accumulate(val.reshape(len(stop_at), -1) < stop_at, axis=1)
    return (steps < iters) & (sq >= 1e-24) & below.reshape(val.shape)


def _ascend(v: np.ndarray, overlap, iters: int, stop_at: float = np.inf):
    """Riemannian ascent of |<target|R(V)|source>| from a stack of starts.

    ``v`` is (R, n, n) and ``overlap`` comes from _overlap_plan.  The rows
    run in lockstep: each round, every live row evaluates one trial point,
    the QR retraction of V + step * rgrad.  An accepted trial advances the
    row one iteration and multiplies its step by 1.3; a rejected one halves
    it.  A row stops after ``iters`` accepted steps, once its value reaches
    ``stop_at``, when its Riemannian gradient vanishes or when its step
    falls to 1e-10, so it follows the trajectory it would follow alone.
    ``stop_at`` is one value for every row, or one for each of S groups
    of consecutive rows, (S, 1).  Once a row reaches its group's value,
    every later row of the group stops as well.  The per-row state has
    shape (R, 1, 1) to broadcast against the stack, and a stopped row gets
    step 0.  Returns the stack, f and |f| at each row's last accepted
    point.
    """
    v = np.array(v, dtype=complex)
    stop_at = np.reshape(stop_at, (-1, 1))
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
    return _ginibre_unitaries(rng.normal(size=(count, 2, n, n)))


def _ginibre_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from normals (R, 2, n, n), the real and imaginary
    parts of R Ginibre matrices: QR with the phase correction."""
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
    # a trace file that cannot be opened is refused before the ascent
    with (open(trace_file, "w", newline="") if trace_file is not None
          else contextlib.nullcontext()) as fh:
        v, f, val = _ascend(starts, overlap, iters)
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(["restart", "best_value"])
            writer.writerows(enumerate(val.tolist()))
    best = int(np.argmax(val))
    return ModeUnitary(n, v[best]), float(val[best]), float(f[best].real)
