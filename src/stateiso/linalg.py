"""Dense complex linear algebra for small Hilbert spaces.

States, density matrices, circuits and the standard metrics (square-root
fidelity, trace distance).  Everything is double precision and immutable
after construction; the intended scale is at most 16 qubits.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-8

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "amplitudes": [[z.real, z.imag] for z in self.amplitudes],
            }
        )

    @staticmethod
    def from_json(text: str) -> "StateVector":
        return StateVector(*_read_pairs(text, "amplitudes"))


def _read_pairs(text: str, key: str):
    """(n_qubits, complex array) of a JSON state or matrix whose ``key``
    field nests [re, im] pairs; a field of the wrong kind raises LinalgError
    and the constructor checks the shape."""
    obj = json.loads(text)
    n = obj["n_qubits"] if isinstance(obj, dict) else None
    if type(n) is not int:
        raise LinalgError(f"n_qubits must be an integer, got {n!r}")
    try:
        pairs = np.array(obj[key], dtype=float)
    except (TypeError, ValueError):
        pairs = np.zeros(0)
    if pairs.ndim < 2 or pairs.shape[-1] != 2 or not np.isfinite(pairs).all():
        raise LinalgError(f"{key} must nest [re, im] pairs of finite numbers")
    return n, pairs.view(complex)[..., 0]


def basis_state(n_qubits: int, index: int = 0) -> StateVector:
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[index] = 1.0
    return StateVector(n_qubits, amps)


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix],
            }
        )

    @staticmethod
    def from_json(text: str) -> "DensityMatrix":
        return DensityMatrix(*_read_pairs(text, "matrix"))


@dataclass(frozen=True)
class UnitaryMatrix:
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


@dataclass(frozen=True)
class Circuit:
    """Gate list over the fixed alphabet, with an optional set of qubits to
    trace out after running (for preparing mixed states)."""

    n_qubits: int
    gates: tuple = ()
    traced: tuple = ()

    def __post_init__(self):
        gates = tuple((str(g).upper(), tuple(int(t) for t in targets)) for g, targets in self.gates)
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "traced", tuple(sorted(int(q) for q in self.traced)))
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
        for q in self.traced:
            if not 0 <= q < self.n_qubits:
                raise LinalgError(f"traced qubit {q} out of range")

    def then(self, other: "Circuit") -> "Circuit":
        if other.n_qubits != self.n_qubits:
            raise LinalgError("circuit sizes differ")
        return Circuit(self.n_qubits, self.gates + other.gates, self.traced + other.traced)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_qubits": self.n_qubits,
                "gates": [{"gate": g, "targets": list(t)} for g, t in self.gates],
                "traced": list(self.traced),
            }
        )

    @staticmethod
    def from_json(text: str) -> "Circuit":
        obj = json.loads(text)
        gates = tuple((g["gate"], tuple(g["targets"])) for g in obj["gates"])
        return Circuit(obj["n_qubits"], gates, tuple(obj.get("traced", ())))


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
    """Run the gate list on |0...0> and return the output pure state.

    Traced-out qubits declared on the circuit are ignored here; use
    :func:`prepare_mixed` for the partial-trace semantics.
    """
    n = c.n_qubits
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    for name, targets in c.gates:
        if name in GATES_1Q:
            amps = _apply_1q(amps, GATES_1Q[name], targets[0], n)
        else:
            amps = _apply_2q(amps, name, targets[0], targets[1], n)
    return StateVector(n, amps)


def partial_trace(rho: np.ndarray, traced: Sequence[int], n_qubits: int) -> np.ndarray:
    """Trace out the given qubits of a 2^n x 2^n matrix."""
    traced = sorted(set(int(q) for q in traced))
    for q in traced:
        if not 0 <= q < n_qubits:
            raise LinalgError(f"traced qubit {q} out of range")
    keep = [q for q in range(n_qubits) if q not in traced]
    t = rho.reshape([2] * (2 * n_qubits))
    # Move kept row/col axes to the front, traced axes to the back.
    perm = keep + [n_qubits + q for q in keep] + traced + [n_qubits + q for q in traced]
    t = np.transpose(t, perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    t = t.reshape(dk, dk, dt, dt)
    return np.trace(t, axis1=2, axis2=3)


def prepare_mixed(c: Circuit) -> DensityMatrix:
    """Run the circuit and trace out its declared ancilla qubits."""
    psi = run_circuit(c)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    out = partial_trace(rho, c.traced, c.n_qubits)
    return DensityMatrix(c.n_qubits - len(c.traced), out)


def random_density(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank density matrix A A^dag / Tr(A A^dag) with A a
    complex Gaussian dim x dim matrix; ``dim`` must be a power of two."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityMatrix(dim.bit_length() - 1, m / np.trace(m).real)


def inner_product(a: StateVector, b: StateVector) -> complex:
    if a.n_qubits != b.n_qubits:
        raise LinalgError("dimension mismatch in inner product")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def matrix_sqrt_psd(m: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """PSD square root by Hermitian eigendecomposition.

    Eigenvalues in [-tol, 0) are clamped to 0; anything below -tol raises.
    """
    m = np.asarray(m, dtype=complex)
    if np.abs(m - m.conj().T).max() > 1e-8:
        raise LinalgError("matrix_sqrt_psd requires a Hermitian matrix")
    evals, evecs = np.linalg.eigh(m)
    if evals.min() < -tol:
        raise LinalgError(f"eigenvalue {evals.min()} below -{tol}")
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
    if np.abs(m - m.conj().T).max() < 1e-10:
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())
