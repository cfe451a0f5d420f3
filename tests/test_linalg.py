import json
import math

import numpy as np
import pytest

from stateiso.linalg import (
    Circuit,
    DensityMatrix,
    GATES_1Q,
    LinalgError,
    StateVector,
    UnitaryMatrix,
    check_budget,
    fidelity_matrices,
    kron_vectors,
    matrix_sqrt_psd,
    random_density,
    run_circuit,
    sqrt_fidelity,
    trace_distance,
    trace_norm,
)
from stateiso.groups import GroupError
from stateiso.paulis import PauliError
from stateiso.protocols import ProtocolError
from stateiso.psgi import PsgiError
from stateiso.reductions import ReductionError

RNG = np.random.default_rng(20240817)


@pytest.mark.parametrize("error", [PauliError, GroupError, PsgiError, ReductionError,
                                   ProtocolError])
def test_check_budget_admits_256_mib_and_refuses_above(error):
    check_budget(28, "a 256 MiB stack", error)
    with pytest.raises(error, match="a 257 MiB stack: .* over the 256 MiB budget"):
        check_budget(math.log2(257 << 20), "a 257 MiB stack", error)
    with pytest.raises(error, match="budget"):
        check_budget(math.nextafter(28, math.inf), "one byte more", error)


def test_kron_vectors_is_np_kron_bit_for_bit():
    # complex by complex and by real, with signed zeros among the entries
    for la, lb in ((1, 2), (2, 1), (3, 5), (8, 16)):
        a = RNG.normal(size=la) + 1j * RNG.normal(size=la)
        b = RNG.normal(size=lb) + 1j * RNG.normal(size=lb)
        a[::2] = complex(-0.0, 0.0)
        b[1::3] = complex(0.0, -0.0)
        for right in (b, b.real.copy()):
            assert kron_vectors(a, right).tobytes() == np.kron(a, right).tobytes()


def random_state(n):
    v = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return StateVector(n, v / np.linalg.norm(v))


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(LinalgError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(LinalgError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_density_is_projector(self):
        psi = random_state(2)
        rho = psi.density()
        assert np.allclose(rho.matrix @ rho.matrix, rho.matrix)

    def test_json_roundtrip(self):
        psi = random_state(2)
        back = StateVector.from_obj(json.loads(json.dumps(psi.to_obj())))
        assert np.allclose(back.amplitudes, psi.amplitudes)

    def test_big_endian_ordering(self):
        # qubit 0 is the most significant bit: X on qubit 0 of |00> -> |10>
        out = run_circuit(Circuit(2, (("X", (0,)),)))
        assert abs(out.amplitudes[2] - 1) < 1e-12


class TestDensityMatrix:
    def test_rejects_nonhermitian(self):
        with pytest.raises(LinalgError):
            DensityMatrix(1, np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(LinalgError):
            DensityMatrix(1, np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(LinalgError):
            DensityMatrix(1, np.diag([1.5, -0.5]))

    def test_rejects_negative_from_obj(self):
        obj = {"n_qubits": 1, "matrix": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}
        with pytest.raises(LinalgError, match="negative eigenvalue"):
            DensityMatrix.from_obj(obj)

    def test_json_roundtrip(self):
        rho = random_density(4, RNG)
        back = DensityMatrix.from_obj(json.loads(json.dumps(rho.to_obj())))
        assert np.allclose(back.matrix, rho.matrix)


class TestUnitaryMatrix:
    def test_rejects_nonunitary(self):
        with pytest.raises(LinalgError):
            UnitaryMatrix(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestCircuits:
    def test_h_makes_plus(self):
        out = run_circuit(Circuit(1, (("H", (0,)),)))
        assert np.allclose(out.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_bell_state_via_cnot(self):
        out = run_circuit(Circuit(2, (("H", (0,)), ("CNOT", (0, 1)))))
        want = np.zeros(4)
        want[0] = want[3] = 1 / np.sqrt(2)
        assert np.allclose(out.amplitudes, want)

    def test_cz_phase(self):
        gates = (("H", (0,)), ("H", (1,)), ("CZ", (0, 1)))
        out = run_circuit(Circuit(2, gates))
        assert np.allclose(out.amplitudes, np.array([1, 1, 1, -1]) / 2)

    def test_gate_matrices_unitary(self):
        for name, m in GATES_1Q.items():
            assert np.allclose(m @ m.conj().T, np.eye(2)), name

    def test_dense_matrix_reference(self):
        # compare a small random circuit against explicit kron products
        gates = (("T", (1,)), ("H", (0,)), ("S", (1,)), ("CZ", (0, 1)), ("X", (1,)))
        out = run_circuit(Circuit(2, gates))
        u = np.eye(4, dtype=complex)
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        for name, t in gates:
            if name == "CZ":
                step = cz
            elif t[0] == 0:
                step = np.kron(GATES_1Q[name], np.eye(2))
            else:
                step = np.kron(np.eye(2), GATES_1Q[name])
            u = step @ u
        assert np.allclose(out.amplitudes, u[:, 0])


class TestMetrics:
    def test_pure_state_fidelity(self):
        a, b = random_state(2), random_state(2)
        f = sqrt_fidelity(a.density(), b.density())
        assert abs(f - abs(np.vdot(a.amplitudes, b.amplitudes))) < 1e-8

    def test_pure_state_trace_distance(self):
        a, b = random_state(2), random_state(2)
        f = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
        d = trace_distance(a.density(), b.density())
        assert abs(d - np.sqrt(1 - f)) < 1e-8

    def test_fidelity_bounds_and_symmetry(self):
        r, s = random_density(4, RNG), random_density(4, RNG)
        f1, f2 = sqrt_fidelity(r, s), sqrt_fidelity(s, r)
        assert abs(f1 - f2) < 1e-8
        assert -1e-10 <= f1 <= 1 + 1e-10
        assert abs(sqrt_fidelity(r, r) - 1) < 1e-8

    def test_fidelity_matrices_on_subnormalized(self):
        r = random_density(2, RNG)
        assert abs(fidelity_matrices(r.matrix, r.matrix) - 1) < 1e-8
        half = 0.5 * r.matrix
        assert abs(fidelity_matrices(half, half) - 0.5) < 1e-8

    def test_matrix_sqrt_psd(self):
        r = random_density(4, RNG)
        root = matrix_sqrt_psd(r.matrix)
        assert np.allclose(root @ root, r.matrix)

    def test_trace_norm_of_difference(self):
        a, b = random_density(4, RNG), random_density(4, RNG)
        m = a.matrix - b.matrix
        want = np.abs(np.linalg.eigvalsh(m)).sum()
        assert abs(trace_norm(m) - want) < 1e-10

    def test_trace_norm_of_zero_skips_the_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decomposed a zero matrix")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for m in (np.zeros((8, 8)), np.zeros((3, 5), dtype=complex)):
            assert trace_norm(m) == 0.0
