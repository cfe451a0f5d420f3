"""Dense complex linear algebra for small Hilbert spaces.

States, density matrices, unitaries, circuits and the standard metrics
(square-root fidelity, trace distance).  Everything is double precision and
immutable after construction; the intended scale is at most 16 qubits.
States and matrices read and write JSON objects through ``to_obj`` and
``from_obj``, with complex entries as [re, im] pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-8
PSD_TOL = 1e-6               # negative eigenvalues matrix_sqrt_psd clamps to 0
_DENSE_BUDGET = 1 << 28      # bytes allowed for one dense allocation or its measured peak

_SQ2 = 1.0 / math.sqrt(2.0)

# Fixed gate alphabet.  R8 is the pi/8 phase gate diag(1, e^{i pi/8}),
# needed to prepare (|0> + e^{i pi/8}|1>)/sqrt(2) exactly.
GATES_1Q = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
    "TDG": np.array([[1, 0], [0, np.exp(-1j * np.pi / 4)]], dtype=complex),
    "R8": np.array([[1, 0], [0, np.exp(1j * np.pi / 8)]], dtype=complex),
}
GATES_2Q = {"CZ", "CNOT"}

GATE_ALPHABET = set(GATES_1Q) | GATES_2Q


class LinalgError(ValueError):
    """Structured error for invalid states, circuits or metric inputs."""


def check_budget(log2_bytes: float, what: str, error) -> None:
    """Raise ``error`` before an allocation of 2^log2_bytes bytes over the
    ``_DENSE_BUDGET`` byte budget; ``what`` names it in the message.  The
    cost comes in as a log so that no caller builds a huge byte count."""
    if log2_bytes > math.log2(_DENSE_BUDGET):
        raise error(f"{what}: about 2^{log2_bytes:.1f} bytes, over the "
                    f"{_DENSE_BUDGET >> 20} MiB budget")


def kron_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The tensor product of two vectors, entry i len(b) + j = a[i] b[j]: one
    broadcast product, bit for bit ``np.kron`` without its overhead."""
    return (a[:, None] * b).reshape(-1)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state on ``n_qubits`` qubits (big-endian basis order:
    qubit 0 is the most significant bit of the basis index)."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if self.n_qubits < 0:
            raise LinalgError("n_qubits must be nonnegative")
        if amps.shape != (2**self.n_qubits,):
            raise LinalgError(
                f"amplitude vector has length {amps.shape}, expected 2^{self.n_qubits}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-6:
            raise LinalgError(f"state not normalized: |psi| = {norm}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))

    def to_obj(self) -> dict:
        return {"n_qubits": self.n_qubits, "amplitudes": to_pairs(self.amplitudes)}

    @staticmethod
    def from_obj(obj) -> "StateVector":
        return StateVector(*_read_pairs(obj, "n_qubits", "amplitudes"))


def to_pairs(a: np.ndarray) -> list:
    """A complex array as nested [re, im] pairs of floats, the JSON form
    that ``from_obj`` reads back."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def _read_pairs(obj, size: str, key: str):
    """(size, complex array) of a JSON object whose integer ``size`` field
    counts qubits or modes and whose ``key`` field nests [re, im] pairs; a
    field of the wrong kind raises LinalgError and the constructor checks
    the shape."""
    n = obj[size] if isinstance(obj, dict) else None
    if type(n) is not int:
        raise LinalgError(f"{size} must be an integer, got {n!r}")
    pairs = _pairs(obj[key])
    if pairs is None:
        raise LinalgError(f"{key} must nest [re, im] pairs of finite numbers")
    return n, pairs


def _pairs(value):
    """The complex array of a JSON value that nests [re, im] pairs of
    finite numbers, or None for a value of any other kind."""
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, ValueError):
        return None
    if pairs.ndim < 2 or pairs.shape[-1] != 2 or not np.isfinite(pairs).all():
        return None
    return pairs.view(complex)[..., 0]


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, PSD, unit-trace matrix on ``n_qubits`` qubits."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        d = 2**self.n_qubits
        if m.shape != (d, d):
            raise LinalgError(f"matrix shape {m.shape}, expected ({d},{d})")
        if np.abs(m - m.conj().T).max() > 1e-8:
            raise LinalgError("density matrix not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-6:
            raise LinalgError(f"trace is {np.trace(m)}, expected 1")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-7:
            raise LinalgError(f"negative eigenvalue {evals.min()}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def to_obj(self) -> dict:
        return {"n_qubits": self.n_qubits, "matrix": to_pairs(self.matrix)}

    @staticmethod
    def from_obj(obj) -> "DensityMatrix":
        return DensityMatrix(*_read_pairs(obj, "n_qubits", "matrix"))

    # The trusted constructor, for a complex matrix that the library built
    # PSD with unit trace (k_twirl's average of tensor powers of states):
    # it skips __post_init__, whose eigvalsh is O(d^3).  Matrices from
    # outside the library go through the checked constructor.
    @classmethod
    def _trusted(cls, n_qubits: int, matrix: np.ndarray) -> "DensityMatrix":
        rho = object.__new__(cls)
        rho.__dict__.update(n_qubits=n_qubits, matrix=matrix)
        return rho


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary ``dim`` x ``dim`` matrix; its JSON object is {"n", "matrix"}."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dim, self.dim):
            raise LinalgError(f"matrix shape {m.shape}, expected square of dim {self.dim}")
        err = np.linalg.norm(m.conj().T @ m - np.eye(self.dim))
        if err > UNITARY_TOL:
            raise LinalgError(f"not unitary: ||U^dag U - I||_F = {err}")

    def to_obj(self) -> dict:
        return {"n": self.dim, "matrix": to_pairs(self.matrix)}

    @staticmethod
    def from_obj(obj) -> "UnitaryMatrix":
        return UnitaryMatrix(*_read_pairs(obj, "n", "matrix"))


@dataclass(frozen=True)
class Circuit:
    """Gate list over the fixed alphabet."""

    n_qubits: int
    gates: tuple = ()

    def __post_init__(self):
        gates = tuple((str(g).upper(), tuple(int(t) for t in targets)) for g, targets in self.gates)
        object.__setattr__(self, "gates", gates)
        for name, targets in gates:
            if name not in GATE_ALPHABET:
                raise LinalgError(f"unknown gate {name!r}")
            expect = 2 if name in GATES_2Q else 1
            if len(targets) != expect:
                raise LinalgError(f"gate {name} expects {expect} targets, got {targets}")
            if len(set(targets)) != len(targets):
                raise LinalgError(f"gate {name} has repeated targets {targets}")
            for q in targets:
                if not 0 <= q < self.n_qubits:
                    raise LinalgError(f"qubit index {q} out of range for {self.n_qubits} qubits")


def _apply_1q(amps: np.ndarray, gate: np.ndarray, q: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n)
    t = np.moveaxis(t, q, 0)
    t = np.tensordot(gate, t, axes=([1], [0]))
    return np.moveaxis(t, 0, q).reshape(-1)


def _apply_2q(amps: np.ndarray, name: str, q0: int, q1: int, n: int) -> np.ndarray:
    t = amps.reshape([2] * n).copy()
    idx = [slice(None)] * n
    if name == "CZ":
        idx[q0], idx[q1] = 1, 1
        t[tuple(idx)] *= -1
    elif name == "CNOT":
        i10, i11 = list(idx), list(idx)
        i10[q0], i10[q1] = 1, 0
        i11[q0], i11[q1] = 1, 1
        t[tuple(i10)], t[tuple(i11)] = t[tuple(i11)].copy(), t[tuple(i10)].copy()
    else:  # pragma: no cover
        raise LinalgError(f"unknown 2-qubit gate {name}")
    return t.reshape(-1)


def run_circuit(c: Circuit) -> StateVector:
    """Run the gate list on |0...0> and return the output pure state."""
    n = c.n_qubits
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for name, targets in c.gates:
        if name in GATES_1Q:
            amps = _apply_1q(amps, GATES_1Q[name], targets[0], n)
        else:
            amps = _apply_2q(amps, name, targets[0], targets[1], n)
    return StateVector(n, amps)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix A A^dag / Tr(A A^dag) with A a
    complex Gaussian dim x dim matrix; ``dim`` must be a power of two."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(dim.bit_length() - 1, m / np.trace(m).real)


def matrix_sqrt_psd(m: np.ndarray) -> np.ndarray:
    """PSD square root by Hermitian eigendecomposition.

    Eigenvalues in [-PSD_TOL, 0) are clamped to 0; anything below raises.
    """
    m = np.asarray(m, dtype=complex)
    if np.abs(m - m.conj().T).max() > 1e-8:
        raise LinalgError("matrix_sqrt_psd requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh(m)
    if evals.min() < -PSD_TOL:
        raise LinalgError(f"eigenvalue {evals.min()} below -{PSD_TOL}")
    evals = np.clip(evals, 0.0, None)
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def sqrt_fidelity(r: DensityMatrix, s: DensityMatrix) -> float:
    """Square-root fidelity F(rho, sigma) = Tr|sqrt(rho) sqrt(sigma)|."""
    if r.n_qubits != s.n_qubits:
        raise LinalgError("dimension mismatch in fidelity")
    return fidelity_matrices(r.matrix, s.matrix)


def fidelity_matrices(r: np.ndarray, s: np.ndarray):
    """Square-root fidelity on raw PSD matrices (no unit-trace requirement).

    ``s`` may be a stack of shape (..., d, d); sqrt(r) is then taken once
    and the result is an array of shape (...), else a float.
    """
    sr = matrix_sqrt_psd(r)
    inner = sr @ s @ sr
    evals = np.linalg.eigvalsh((inner + np.swapaxes(inner.conj(), -1, -2)) / 2)
    f = np.sqrt(np.clip(evals, 0.0, None)).sum(axis=-1)
    return float(f) if f.ndim == 0 else f


def trace_distance(r: DensityMatrix, s: DensityMatrix) -> float:
    """D(rho, sigma) = (1/2) Tr|rho - sigma|."""
    if r.n_qubits != s.n_qubits:
        raise LinalgError("dimension mismatch in trace distance")
    return trace_norm(r.matrix - s.matrix) / 2


def trace_norm(m: np.ndarray) -> float:
    m = np.asarray(m, dtype=complex)
    if not m.any():
        # exact; the twirls of an isomorphic pair differ by exactly zero
        return 0.0
    if np.abs(m - m.conj().T).max() < 1e-10:
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())
