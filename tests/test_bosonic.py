import json
import math
from itertools import permutations

import numpy as np
import pytest

from stateiso.bosonic import (
    PHOTON_CAP,
    BosonicError,
    ModeUnitary,
    CoreState,
    MultiIndex,
    apply_linear_optical,
    core_overlap,
    cubic_overlap,
    encode_graph_bosonic,
    estimate_tv_gap,
    haar_mode_unitary,
    nearest_permutation_phase,
    optimize_overlap,
    orbit_distance,
    permutation_mode_unitary,
    perturbed_permutation_unitary,
    sector_basis,
    szk_samples,
    truncated_basis,
    _ascend,
    _haar_stack,
    _orbit_points,
    _overlap_plan,
    _qr_retract,
    _sector_tensors,
)
from stateiso import bosonic, obs
from stateiso.graphs import Graph

RNG = np.random.default_rng(31)


def permanent(m: np.ndarray) -> complex:
    """Per(m) by the sum over permutations: the scalar reference for the
    batched minors of apply_linear_optical(method="permanent")."""
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


def recursive_sector_basis(n: int, r: int) -> list:
    """All multi-indices on n modes with total exactly r, by recursion on
    the first mode: the reference for the layout that sector_basis reads."""
    if n == 1:
        return [MultiIndex((r,))]
    return [MultiIndex((first,) + rest) for first in range(r + 1)
            for rest in recursive_sector_basis(n - 1, r - first)]


def transition_amplitude(v: np.ndarray, k: MultiIndex, j: MultiIndex) -> complex:
    """<k|R(V)|j> = Per(V^T[k|j]) / sqrt(k! j!) in the substitution
    convention (the transpose is pinned by the equivalence with z -> Vz)."""
    if k.r != j.r:
        return 0j
    rows = [i for i, c in enumerate(k) for _ in range(c)]
    cols = [i for i, c in enumerate(j) for _ in range(c)]
    return permanent(v.T[np.ix_(rows, cols)]) / math.sqrt(k.factorial() * j.factorial())


def _overlap_grad(v: np.ndarray, src: dict, tgt: dict):
    """(f, grad) of _overlap_plan at one (n, n) matrix or a stack (R, n, n)."""
    f, grad = _overlap_plan(src, tgt, v.shape[-1])(v.reshape((-1,) + v.shape[-2:]))
    return (complex(f.item()), grad[0]) if v.ndim == 2 else (f[:, 0, 0], grad)


def dense_vector(c: CoreState, basis: list) -> np.ndarray:
    """The amplitudes of c over ``basis``, read off the sparse state: the
    reference for the stacked orbit points."""
    return np.array([c.amplitudes.get(k, 0j) for k in basis])


def random_core(n, r, rng, n_terms=4):
    basis = sector_basis(n, r)
    amps = {}
    picks = rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False)
    for i in picks:
        amps[basis[i]] = complex(rng.normal(), rng.normal())
    nrm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return CoreState(n, r, {k: a / nrm for k, a in amps.items()})


def mixed_core(n, r_max, rng, n_terms=3):
    """A random core with terms in every sector 0..r_max."""
    amps = {}
    for r in range(r_max + 1):
        basis = sector_basis(n, r)
        for i in rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False):
            amps[basis[i]] = complex(rng.normal(), rng.normal())
    nrm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return CoreState(n, r_max, {k: a / nrm for k, a in amps.items()})


class TestBasics:
    def test_sector_dimension(self):
        assert len(sector_basis(3, 2)) == 6  # multichoose(3, 2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sector_basis_matches_recursion(self, n):
        # same keys in the same ascending order, as MultiIndex
        for r in range(PHOTON_CAP + 1):
            basis = sector_basis(n, r)
            assert basis == recursive_sector_basis(n, r)
            assert all(type(k) is MultiIndex for k in basis)

    def test_multi_index_factorial(self):
        k = MultiIndex((2, 0, 3))
        assert k.r == 5
        assert k.factorial() == 12

    def test_norm_enforced(self):
        with pytest.raises(BosonicError):
            CoreState(1, 1, {MultiIndex((1,)): 0.5})

    @pytest.mark.parametrize("amps, match", [
        ({MultiIndex((1, 0)): 1.0}, "mode count"),
        ({MultiIndex((0, 2, 0)): 1.0}, "photon cap"),
        ({MultiIndex((1, 0, 0)): complex("nan")}, "finite"),
        ({MultiIndex((1, 0, 0)): 0.6, MultiIndex((0, 1, 0)): 0.6}, "norm")])
    def test_multi_index_keys_still_checked(self, amps, match):
        with pytest.raises(BosonicError, match=match):
            CoreState(3, 1, amps)

    def test_keys_are_multi_indices(self):
        # tuple keys are converted; zero amplitudes are dropped
        c = CoreState(2, 2, {(1, 1): 1.0, MultiIndex((2, 0)): 0.0})
        assert list(c.amplitudes) == [MultiIndex((1, 1))]
        assert all(type(k) is MultiIndex for k in c.amplitudes)
        with pytest.raises(BosonicError, match="negative"):
            CoreState(2, 2, {(2, -1): 1.0})

    def test_json_roundtrip(self):
        c = random_core(3, 3, RNG)
        back = CoreState.from_obj(json.loads(json.dumps(c.to_obj())))
        assert back.n_modes == c.n_modes
        assert abs(core_overlap(back, c) - 1) < 1e-12


class TestGraphEncoding:
    def test_single_edge_amplitudes(self):
        c = encode_graph_bosonic(Graph(2, ((0, 1),)))
        a_cubic = c.amplitudes[MultiIndex((3, 0))]
        a_edge = c.amplitudes[MultiIndex((1, 1))]
        assert abs(a_cubic - 0.5) < 1e-12
        assert abs(a_edge - 1 / math.sqrt(2)) < 1e-12

    def test_triangle_amplitudes(self):
        c = encode_graph_bosonic(Graph.complete(3))
        vals = sorted(abs(a) for a in c.amplitudes.values())
        assert len(vals) == 6
        assert all(abs(v - 1 / math.sqrt(6)) < 1e-12 for v in vals)

    def test_empty_graph_rejected(self):
        with pytest.raises(BosonicError):
            encode_graph_bosonic(Graph(3, ()))


class TestCoreStateJson:
    @pytest.mark.parametrize("field", ["n_modes", "r_max", "amplitudes"])
    def test_missing_field_named(self, field):
        obj = encode_graph_bosonic(Graph.path(3)).to_obj()
        del obj[field]
        with pytest.raises(BosonicError, match=field):
            CoreState.from_obj(obj)

    @pytest.mark.parametrize("field, value", [
        ("amplitudes", 5), ("amplitudes", {}), ("amplitudes", [[1.0, 0.0]]),
        ("amp", 5), ("amp", [1.0]), ("amp", ["a", 0.0]), ("k", 5), ("k", [1.5, 0, 0]),
        ("n_modes", "3"), ("r_max", 3.0)])
    def test_field_of_wrong_kind_rejected(self, field, value):
        obj = encode_graph_bosonic(Graph.path(3)).to_obj()
        if field in ("amp", "k"):
            obj["amplitudes"][0][field] = value
        else:
            obj[field] = value
        with pytest.raises(BosonicError):
            CoreState.from_obj(obj)

    @pytest.mark.parametrize("amp", [float("nan"), float("inf"), complex(0, float("-inf"))])
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(BosonicError, match="finite"):
            CoreState(1, 1, {MultiIndex((1,)): amp})
        obj = encode_graph_bosonic(Graph.path(3)).to_obj()
        obj["amplitudes"][0]["amp"] = [amp.real, amp.imag]
        with pytest.raises(BosonicError, match="finite"):
            CoreState.from_obj(obj)


class TestLinearOptics:
    def test_hong_ou_mandel(self):
        bs = ModeUnitary(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        c = CoreState(2, 2, {MultiIndex((1, 1)): 1.0})
        out = apply_linear_optical(bs, c)
        a20 = out.amplitudes.get(MultiIndex((2, 0)), 0)
        a02 = out.amplitudes.get(MultiIndex((0, 2)), 0)
        a11 = out.amplitudes.get(MultiIndex((1, 1)), 0)
        assert abs(abs(a20) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(a02) - 1 / math.sqrt(2)) < 1e-12
        assert abs(a11) < 1e-12

    def test_phase_shifter_on_cubic_term(self):
        phi = 0.8
        v = ModeUnitary(1, np.array([[np.exp(1j * phi)]]))
        c = CoreState(1, 3, {MultiIndex((3,)): 1.0})
        out = apply_linear_optical(v, c)
        assert abs(out.amplitudes[MultiIndex((3,))] - np.exp(3j * phi)) < 1e-12

    def test_permanent_matches_substitution(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            r = int(rng.integers(1, 4))
            c = random_core(n, r, rng)
            v = haar_mode_unitary(n, rng)
            a = apply_linear_optical(v, c, method="substitution")
            b = apply_linear_optical(v, c, method="permanent")
            assert abs(core_overlap(a, b) - 1) < 1e-9

    def test_adjoint_inverts(self):
        rng = np.random.default_rng(2)
        c = random_core(3, 3, rng)
        v = haar_mode_unitary(3, rng)
        v_dag = ModeUnitary(3, v.matrix.conj().T)
        back = apply_linear_optical(v_dag, apply_linear_optical(v, c))
        assert abs(core_overlap(back, c) - 1) < 1e-10

    def test_norm_and_sector_preserved(self):
        rng = np.random.default_rng(3)
        c = random_core(3, 2, rng)
        out = apply_linear_optical(haar_mode_unitary(3, rng), c)
        assert all(k.r == 2 or abs(a) < 1e-12 for k, a in out.amplitudes.items())

    def test_permanent_small_cases(self):
        assert permanent(np.array([[3.0]])) == 3.0
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert permanent(m) == pytest.approx(10.0)

    def test_transition_amplitude_hom(self):
        bs = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        amp = transition_amplitude(bs, MultiIndex((2, 0)), MultiIndex((1, 1)))
        assert abs(abs(amp) - 1 / math.sqrt(2)) < 1e-12

    def test_batched_minors_match_scalar_reference(self):
        """Every <k|R(V)|j> of the batched permanent path against the scalar
        permanent, over every sector r <= 4 (the vacuum and multiply
        occupied modes among them) at n = 1..5."""
        rng = np.random.default_rng(63)
        for n in range(1, 6):
            v = haar_mode_unitary(n, rng)
            for r in range(5):
                basis = sector_basis(n, r)
                for j in basis:
                    out = apply_linear_optical(v, CoreState(n, r, {j: 1.0}),
                                               method="permanent").amplitudes
                    for k in basis:
                        want = transition_amplitude(v.matrix, k, j)
                        assert abs(out.get(k, 0j) - want) < 1e-12

    @pytest.mark.parametrize("budget", [1, bosonic._GATHER_ENTRIES])
    def test_batched_minors_across_gather_chunks(self, monkeypatch, budget):
        # every key of n = 6, r = 4: a (126, 126, 24, 4) gather, so over the
        # entry budget; a budget of 1 gathers one output row at a time
        monkeypatch.setattr(bosonic, "_GATHER_ENTRIES", budget)
        rng = np.random.default_rng(64)
        c = random_core(6, 4, rng, n_terms=126)
        v = haar_mode_unitary(6, rng)
        got = apply_linear_optical(v, c, method="permanent").amplitudes
        picks = rng.choice(126, size=8, replace=False)
        for i in picks:
            k = sector_basis(6, 4)[i]
            want = sum(transition_amplitude(v.matrix, k, j) * a
                       for j, a in c.amplitudes.items())
            assert abs(got.get(k, 0j) - want) < 1e-12
        assert abs(core_overlap(apply_linear_optical(v, c), CoreState(6, 4, got)) - 1) < 1e-12


class TestCubicOverlap:
    def test_hadamard_value(self):
        h = ModeUnitary(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        assert abs(cubic_overlap(h) - 1 / (2 * math.sqrt(2))) < 1e-12

    def test_identity(self):
        assert abs(cubic_overlap(ModeUnitary(3, np.eye(3))) - 1) < 1e-12

    def test_permutation_unitary(self):
        v = permutation_mode_unitary((1, 2, 0), 3)
        assert abs(cubic_overlap(v) - 1) < 1e-12


class TestNearestPermutation:
    def test_recovers_planted(self):
        rng = np.random.default_rng(4)
        perm = (2, 0, 3, 1)
        phases = np.exp(2j * np.pi * rng.integers(3, size=4) / 3)
        m = permutation_mode_unitary(perm, 4).matrix @ np.diag(phases)
        v = ModeUnitary(4, m)
        proj = nearest_permutation_phase(v)
        assert proj.perm == perm
        assert proj.residual < 1e-10
        assert not proj.collision

    def test_residual_bound_in_delta_regime(self):
        rng = np.random.default_rng(5)
        n = 4
        for _ in range(50):
            v = perturbed_permutation_unitary(rng, n, scale=0.25 / n)
            delta = 1 - cubic_overlap(v).real
            if delta >= 0.38 / n:
                continue
            proj = nearest_permutation_phase(v)
            t = np.zeros((n, n), dtype=complex)
            for i, ki in enumerate(proj.perm):
                t[i, ki] = proj.phases[ki]
            assert np.linalg.norm(v.matrix - t) <= math.sqrt(3 * n * delta) + 1e-9


class TestOptimizer:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        c1 = random_core(2, 3, rng)
        c2 = random_core(2, 3, rng)
        v = haar_mode_unitary(2, rng).matrix
        src = _sector_tensors(c1.amplitudes, 2)
        tgt = _sector_tensors(c2.amplitudes, 2)
        f, grad = _overlap_grad(v, src, tgt)
        eps = 1e-6
        for a in range(2):
            for b in range(2):
                dv = np.zeros((2, 2), dtype=complex)
                dv[a, b] = eps
                fp, _ = _overlap_grad(v + dv, src, tgt)
                fm, _ = _overlap_grad(v - dv, src, tgt)
                fip, _ = _overlap_grad(v + 1j * dv, src, tgt)
                fim, _ = _overlap_grad(v - 1j * dv, src, tgt)
                # holomorphic derivative from real/imag partials
                d_re = (fp - fm) / (2 * eps)
                d_im = (fip - fim) / (2 * eps)
                want = (d_re - 1j * d_im) / 2
                assert abs(grad[a, b] - want) < 1e-5

    def test_sector_kernel_matches_permanent_formula(self):
        """f from the sector tensors, and the tensor substitution, against
        the permanent formula, for sparse and dense (unnormalized) targets."""
        rng = np.random.default_rng(61)
        for n in range(1, 6):
            for r in range(5):
                for c1 in (random_core(n, r, rng), mixed_core(n, r, rng)):
                    v = haar_mode_unitary(n, rng)
                    moved = apply_linear_optical(v, c1, method="permanent")
                    assert abs(core_overlap(apply_linear_optical(v, c1), moved) - 1) < 1e-12
                    src = _sector_tensors(c1.amplitudes, n)
                    c2 = mixed_core(n, r, rng)
                    f, _ = _overlap_grad(v.matrix, src,
                                         _sector_tensors(c2.amplitudes, n))
                    assert abs(f - core_overlap(c2, moved)) < 1e-12
                    basis = truncated_basis(n, r)
                    z = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
                    f, _ = _overlap_grad(v.matrix, src,
                                         _sector_tensors(dict(zip(basis, z)), n))
                    assert abs(f - np.vdot(z, dense_vector(moved, basis))) < 1e-12

    def test_sector_kernel_gradient_is_directional_derivative(self):
        rng = np.random.default_rng(62)
        for n, r in ((1, 4), (3, 2), (4, 3), (5, 4)):
            src = _sector_tensors(mixed_core(n, r, rng).amplitudes, n)
            tgt = _sector_tensors(mixed_core(n, r, rng).amplitudes, n)
            v = haar_mode_unitary(n, rng).matrix
            e = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            _, grad = _overlap_grad(v, src, tgt)
            eps = 1e-6
            fp, _ = _overlap_grad(v + eps * e, src, tgt)
            fm, _ = _overlap_grad(v - eps * e, src, tgt)
            assert abs((fp - fm) / (2 * eps) - np.sum(grad * e)) < 1e-6

    @pytest.mark.parametrize("restarts", [0, -3])
    def test_nonpositive_restarts_rejected(self, restarts):
        c = encode_graph_bosonic(Graph.path(3))
        with pytest.raises(BosonicError):
            optimize_overlap(c, c, restarts=restarts)

    def test_isomorphic_graphs_reach_one(self):
        g1 = Graph.path(4)
        g2 = g1.relabel((1, 3, 0, 2))
        c1 = encode_graph_bosonic(g1)
        c2 = encode_graph_bosonic(g2)
        _, best_abs, _ = optimize_overlap(c1, c2, restarts=6, iters=150, seed=0)
        assert best_abs > 1 - 1e-8

    def test_non_isomorphic_stays_below_threshold(self):
        c1 = encode_graph_bosonic(Graph.path(4))
        c2 = encode_graph_bosonic(Graph.star(4))
        _, best_abs, _ = optimize_overlap(c1, c2, restarts=6, iters=150, seed=0)
        assert best_abs <= 1 - 1 / (96 * 4**5)

    def test_trace_file(self, tmp_path):
        c1 = encode_graph_bosonic(Graph.path(3))
        c2 = encode_graph_bosonic(Graph.path(3))
        trace = tmp_path / "trace.csv"
        optimize_overlap(c1, c2, restarts=2, iters=30, seed=0,
                         trace_file=str(trace))
        lines = trace.read_text().strip().splitlines()
        assert lines[0].startswith("restart")
        assert len(lines) == 3


def _plan(c1, c2, n):
    return _overlap_plan(_sector_tensors(c1.amplitudes, n), _sector_tensors(c2.amplitudes, n), n)


def _nudge(u, eps, rng):
    """u times exp(i eps H) for a random Hermitian H."""
    h = rng.normal(size=u.shape) + 1j * rng.normal(size=u.shape)
    w, vec = np.linalg.eigh((h + h.conj().T) / 2)
    return u @ (vec * np.exp(1j * eps * w)) @ vec.conj().T


def _sequential_ascent(v, src, tgt, iters, stop_at=np.inf):
    """The per-start loop that the lockstep kernel replaced, as a reference."""
    step = 0.5
    f, grad = _overlap_grad(v, src, tgt)
    val = abs(f)
    for _ in range(iters):
        if val >= stop_at:
            break
        egrad = 2 * f * grad.conjugate()
        rgrad = egrad - v @ egrad.conj().T @ v
        if np.linalg.norm(rgrad) < 1e-12:
            break
        improved = False
        while step > 1e-10:
            v_new = _qr_retract((v + step * rgrad)[None])[0]
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


class TestLockstepAscent:
    def test_rows_match_sequential_ascents(self):
        rng = np.random.default_rng(64)
        pairs = [(4, encode_graph_bosonic(Graph.path(4)), encode_graph_bosonic(Graph.star(4)))]
        pairs += [(n, mixed_core(n, 3, rng), mixed_core(n, 3, rng)) for n in range(2, 6)]
        for n, c1, c2 in pairs:
            src, tgt = _sector_tensors(c1.amplitudes, n), _sector_tensors(c2.amplitudes, n)
            starts = np.concatenate([np.eye(n, dtype=complex)[None], _haar_stack(n, rng, 2)])
            _, _, val = _ascend(starts, _overlap_plan(src, tgt, n), 60)
            for i, start in enumerate(starts):
                # |f| only: near a maximum the phase of f can drift by rounding
                # along directions that leave |f| flat
                assert abs(_sequential_ascent(start, src, tgt, 60)[2] - val[i]) <= 1e-12

    def test_rows_match_single_start_ascents(self):
        rng = np.random.default_rng(63)
        pairs = [(4, encode_graph_bosonic(Graph.path(4)), encode_graph_bosonic(Graph.star(4)))]
        pairs += [(n, mixed_core(n, 3, rng), mixed_core(n, 3, rng)) for n in range(2, 6)]
        for n, c1, c2 in pairs:
            plan = _plan(c1, c2, n)
            starts = np.concatenate([np.eye(n, dtype=complex)[None], _haar_stack(n, rng, 4)])
            v, _, val = _ascend(starts, plan, 60)
            for i, start in enumerate(starts):
                assert abs(_ascend(start[None], plan, 60)[2][0] - val[i]) <= 1e-12
            f_stack, grad_stack = _overlap_grad(v, _sector_tensors(c1.amplitudes, n),
                                                _sector_tensors(c2.amplitudes, n))
            for i in range(len(v)):
                f_row, grad_row = _overlap_grad(v[i], _sector_tensors(c1.amplitudes, n),
                                                _sector_tensors(c2.amplitudes, n))
                assert abs(f_row - f_stack[i]) <= 1e-12
                assert np.abs(grad_row - grad_stack[i]).max() <= 1e-12

    def test_starts_do_not_move(self):
        v = _haar_stack(3, np.random.default_rng(1), 3)
        start = v.copy()
        plan = _plan(mixed_core(3, 2, RNG), mixed_core(3, 2, RNG), 3)
        _ascend(v, plan, 10)
        assert np.array_equal(v, start)

    def test_haar_stack_draws_as_single_samples(self):
        one, many = np.random.default_rng(5), np.random.default_rng(5)
        singles = [haar_mode_unitary(4, one).matrix for _ in range(6)]
        assert np.abs(np.array(singles) - _haar_stack(4, many, 6)).max() <= 1e-14
        assert one.random() == many.random()

    def test_retraction_is_per_matrix(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        stacked = _qr_retract(m)
        for i in range(5):
            q, r = np.linalg.qr(m[i])
            d = np.diagonal(r)
            assert np.abs(stacked[i] - q * (d / np.abs(d))).max() <= 1e-14

    @pytest.mark.parametrize("rows", [1, 3, 50])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_retraction_is_np_linalg_qr_exactly(self, rows, n):
        """The LAPACK gufuncs np.linalg.qr calls, called directly: the same
        bits, on Ginibre stacks and on the near-unitary stacks of an ascent
        step, and the argument left as it was."""
        rng = np.random.default_rng(100 * rows + n)
        ginibre = rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n))
        v = _haar_stack(n, rng, rows)
        f = rng.normal(size=(rows, 1, 1)) + 1j * rng.normal(size=(rows, 1, 1))
        grad = rng.normal(size=(rows, n, n)) + 1j * rng.normal(size=(rows, n, n))
        rgrad = bosonic._rgrad(v, f, grad)
        for m in [ginibre] + [v + s * rgrad for s in (0.5, 1e-3, 1e-9)]:
            before = m.copy()
            q, r = np.linalg.qr(m)
            d = r.diagonal(0, 1, 2)
            assert np.array_equal(_qr_retract(m), q * (d / np.abs(d))[:, None])
            assert np.array_equal(m, before)

    def test_optimize_overlap_pinned(self, tmp_path):
        """P4 vs K_{1,3}, 6 restarts from seed 0: the values of the
        sequential per-restart ascent that the lockstep kernel replaced."""
        c1 = encode_graph_bosonic(Graph.path(4))
        c2 = encode_graph_bosonic(Graph.star(4))
        trace = tmp_path / "trace.csv"
        _, best_abs, best_re = optimize_overlap(c1, c2, restarts=6, seed=0,
                                                trace_file=str(trace))
        assert abs(best_abs - 0.8785419149611424) <= 1e-12
        assert abs(best_re - 0.8785417863973434) <= 1e-12
        lines = trace.read_text().splitlines()
        assert lines[0] == "restart,best_value"
        want = [0.7732613785283363, 0.7732613666180072, 0.7400859576980954,
                0.7311692769582325, 0.7400771050789404, 0.8785419149611424]
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(r) for r, _ in rows] == list(range(6))
        assert all(abs(float(x) - w) <= 1e-12 for (_, x), w in zip(rows, want))

    def test_orbit_distance_stops_at_first_start_in_order(self):
        """Start 2 is at stop_at from the outset, but start 1 is the first in
        order to reach it, after some steps; start 3 would do better still.
        The distance is that of the sequential loop over single starts."""
        rng = np.random.default_rng(9)
        c = encode_graph_bosonic(Graph.path(4))
        basis = truncated_basis(4, 3)
        u = haar_mode_unitary(4, rng).matrix
        z = dense_vector(apply_linear_optical(ModeUnitary(4, u), c), basis)
        good_enough = 0.3
        z_sq = float(np.vdot(z, z).real)
        stop_at = (z_sq + 1 - good_enough**2) / 2
        starts = [haar_mode_unitary(4, rng).matrix, _nudge(u, 0.2, rng), _nudge(u, 0.05, rng), u]
        src, tgt = _sector_tensors(c.amplitudes, 4), _sector_tensors(dict(zip(basis, z)), 4)
        first = [abs(_overlap_grad(s, src, tgt)[0]) for s in starts]
        single = [_sequential_ascent(s, src, tgt, 25, stop_at)[2] for s in starts]
        assert single[0] < stop_at and first[1] < stop_at <= single[1]
        assert first[2] >= stop_at and single[3] > single[1]
        best = 0.0
        for val in single:
            best = max(best, val)
            if best >= stop_at:
                break
        want = math.sqrt(max(z_sq + 1 - 2 * best, 0.0))
        got = orbit_distance(z, basis, c, starts, iters=25, good_enough=good_enough)
        assert abs(got - want) <= 1e-12
        assert got > 0.1        # the best start alone would give distance 0


class TestSzkSampler:
    def test_sampler_shapes_and_noise(self):
        rng = np.random.default_rng(7)
        c = encode_graph_bosonic(Graph.path(4))
        basis = truncated_basis(4, c.r_max)
        z, us = szk_samples(c, 0.01, rng, basis, 1)
        assert z.shape == (1, len(basis))
        assert us.shape == (1, 4, 4)
        # with tiny noise z is close to the rotated dense vector
        dense = dense_vector(apply_linear_optical(ModeUnitary(4, us[0]), c), basis)
        # noise norm concentrates near sigma * sqrt(len(basis))
        assert np.linalg.norm(z[0] - dense) < 0.01 * math.sqrt(len(basis)) * 3

    def test_orbit_distance_same_orbit(self):
        rng = np.random.default_rng(8)
        c = encode_graph_bosonic(Graph.path(3))
        basis = truncated_basis(3, 3)
        u = haar_mode_unitary(3, rng)
        z = dense_vector(apply_linear_optical(u, c), basis)
        warm = [haar_mode_unitary(3, rng).matrix for _ in range(3)] + [u.matrix]
        d = orbit_distance(z, basis, c, warm, iters=40)
        assert d < 1e-4

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": -1}, {"n_warm": 0},
        {"n_warm": 4, "n_reference": 3}])
    def test_estimate_tv_gap_rejects_bad_counts(self, kwargs):
        c = encode_graph_bosonic(Graph.path(3))
        args = {"n_samples": 1, "n_reference": 3, "n_warm": 1, **kwargs}
        with pytest.raises(BosonicError):
            estimate_tv_gap(c, c, 0.02, seed=0, b=0.5, **args)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_nonpositive_sigma_rejected(self, sigma):
        c = encode_graph_bosonic(Graph.path(3))
        with pytest.raises(BosonicError, match="sigma"):
            szk_samples(c, sigma, np.random.default_rng(0), truncated_basis(3, c.r_max), 1)
        with pytest.raises(BosonicError, match="sigma"):
            estimate_tv_gap(c, c, sigma, n_samples=1, seed=0, n_reference=3,
                            n_warm=1, b=0.5)

    @pytest.mark.parametrize("sigma", [float("inf"), -float("inf")])
    def test_infinite_sigma_rejected(self, sigma):
        c = encode_graph_bosonic(Graph.path(3))
        with pytest.raises(BosonicError, match="sigma"):
            szk_samples(c, sigma, np.random.default_rng(0), truncated_basis(3, c.r_max), 1)
        with pytest.raises(BosonicError, match="sigma"):
            estimate_tv_gap(c, c, sigma, n_samples=1, seed=0, n_reference=3,
                            n_warm=1, b=0.5)

    def test_overflowing_sample_rejected(self):
        # the noise of a finite sigma near the float limit overflows: the
        # NaN distances it led to would count as misses and read as tv = 0
        c = encode_graph_bosonic(Graph.path(3))
        with pytest.raises(BosonicError, match="not finite"):
            szk_samples(c, 1e308, np.random.default_rng(0), truncated_basis(3, c.r_max), 1)
        with pytest.raises(BosonicError, match="not finite"):
            estimate_tv_gap(c, c, 1e308, n_samples=2, seed=0, n_reference=3,
                            n_warm=1, b=0.5)

    def test_estimate_tv_gap_isomorphic_near_zero(self):
        g = Graph.path(4)
        c1 = encode_graph_bosonic(g)
        c2 = encode_graph_bosonic(g.relabel((2, 0, 1, 3)))
        tv, diag = estimate_tv_gap(c1, c2, sigma=0.02, n_samples=6, seed=0,
                                   n_reference=20, n_warm=2)
        assert tv <= 0.5
        assert 0 <= diag["p1"] <= 1 and 0 <= diag["p2"] <= 1


# estimate_tv_gap on P4 vs K_{1,3} at sigma 0.02 with 30 reference points:
# (seed, b, n_samples, n_warm, p1, p2, b used, restarts, trials, steps),
# recorded from the loop that ran one orbit_distance ascent per sample
TV_GAP_PINS = [
    (0, 0.49, 1, 1, 1.0, 0.0, 0.49, 2, 48, 35),
    (0, 0.49, 1, 3, 1.0, 0.0, 0.49, 6, 144, 106),
    (0, 0.49, 3, 1, 0.3333333333333333, 0.0, 0.49, 6, 184, 135),
    (0, 0.49, 3, 3, 0.3333333333333333, 0.0, 0.49, 18, 553, 406),
    (0, None, 1, 1, 0.0, 0.0, 0.492865261532478, 22, 4085, 2947),
    (0, None, 1, 3, 0.0, 0.0, 0.492865261532478, 26, 4221, 3047),
    (0, None, 3, 1, 0.0, 0.0, 0.492865261532478, 26, 4221, 3047),
    (0, None, 3, 3, 0.0, 0.0, 0.492865261532478, 38, 4631, 3347),
    (1, 0.49, 1, 1, 0.0, 0.0, 0.49, 2, 68, 50),
    (1, 0.49, 1, 3, 0.0, 0.0, 0.49, 6, 205, 150),
    (1, 0.49, 3, 1, 0.3333333333333333, 0.0, 0.49, 6, 188, 138),
    (1, 0.49, 3, 3, 0.6666666666666666, 0.0, 0.49, 18, 539, 395),
    (1, None, 1, 1, 0.0, 0.0, 0.49286525905591483, 22, 4085, 2947),
    (1, None, 1, 3, 0.0, 0.0, 0.49286525905591483, 26, 4221, 3047),
    (1, None, 3, 1, 0.0, 0.0, 0.49286525905591483, 26, 4222, 3047),
    (1, None, 3, 3, 0.3333333333333333, 0.0, 0.49286525905591483, 38, 4631, 3346),
    (2, 0.49, 1, 1, 0.0, 0.0, 0.49, 2, 68, 50),
    (2, 0.49, 1, 3, 0.0, 0.0, 0.49, 6, 204, 150),
    (2, 0.49, 3, 1, 0.3333333333333333, 0.0, 0.49, 6, 180, 132),
    (2, 0.49, 3, 3, 0.3333333333333333, 0.0, 0.49, 18, 542, 396),
    (2, None, 1, 1, 0.0, 0.0, 0.4928652631849746, 22, 4085, 2947),
    (2, None, 1, 3, 0.0, 0.0, 0.4928652631849746, 26, 4222, 3047),
    (2, None, 3, 1, 0.0, 0.0, 0.4928652631849746, 26, 4221, 3047),
    (2, None, 3, 3, 0.0, 0.0, 0.4928652631849746, 38, 4630, 3347),
    (3, 0.49, 1, 1, 1.0, 0.0, 0.49, 2, 43, 31),
    (3, 0.49, 1, 3, 1.0, 0.0, 0.49, 6, 129, 94),
    (3, 0.49, 3, 1, 0.3333333333333333, 0.0, 0.49, 6, 180, 131),
    (3, 0.49, 3, 3, 0.3333333333333333, 0.0, 0.49, 18, 536, 394),
    (3, None, 1, 1, 0.0, 0.0, 0.4928652590710849, 22, 4080, 2947),
    (3, None, 1, 3, 0.0, 0.0, 0.4928652590710849, 26, 4217, 3047),
    (3, None, 3, 1, 0.3333333333333333, 0.0, 0.4928652590710849, 26, 4213, 3044),
    (3, None, 3, 3, 0.3333333333333333, 0.0, 0.4928652590710849, 38, 4619, 3340),
]


def _warm_rows(rng, u, n):
    """Warm starts for a sample on the orbit point u: a Haar start, then u
    nudged by 0.2, then by 0.05, then u itself."""
    return [haar_mode_unitary(n, rng).matrix, _nudge(u, 0.2, rng), _nudge(u, 0.05, rng), u]


class TestTvGapStack:
    @pytest.mark.parametrize("pin", TV_GAP_PINS, ids=lambda p: "-".join(map(str, p[:4])))
    def test_estimate_tv_gap_pinned(self, pin):
        seed, b, n_samples, n_warm, p1, p2, b_used, restarts, trials, steps = pin
        c1 = encode_graph_bosonic(Graph.path(4))
        c2 = encode_graph_bosonic(Graph.star(4))
        with obs.recording() as rec:
            tv, diag = estimate_tv_gap(c1, c2, 0.02, n_samples, seed, n_reference=30,
                                       n_warm=n_warm, b=b)
        assert tv == p1 - p2
        assert diag == {"p1": p1, "p2": p2, "b": b_used, "sigma": 0.02,
                        "ci_half_width": 2 * 2 * math.sqrt(0.25 / n_samples),
                        "n_samples": n_samples}
        assert rec.counts == {"bosonic.restarts": restarts, "bosonic.ascent_trials": trials,
                              "bosonic.ascent_steps": steps}

    def test_orbit_points_match_core_states(self):
        rng = np.random.default_rng(12)
        for n, c in [(4, encode_graph_bosonic(Graph.path(4))), (3, mixed_core(3, 3, rng))]:
            basis = truncated_basis(n, 3)
            us = _haar_stack(n, rng, 5)
            want = [dense_vector(apply_linear_optical(ModeUnitary(n, u), c), basis) for u in us]
            assert np.array_equal(_orbit_points(c, us, basis), want)

    def test_stack_matches_single_vectors(self):
        """Two samples in one stack, each with its own first start to reach
        stop_at, give the distances and counts of one call per sample."""
        rng = np.random.default_rng(9)
        c = encode_graph_bosonic(Graph.path(4))
        basis = truncated_basis(4, 3)
        us = [haar_mode_unitary(4, rng).matrix for _ in range(2)]
        z = np.array([dense_vector(apply_linear_optical(ModeUnitary(4, u), c), basis) for u in us])
        starts = np.array([_warm_rows(rng, u, 4) for u in us])
        starts[1] = starts[1, ::-1]     # the second sample reaches stop_at at once
        with obs.recording() as single:
            want = [orbit_distance(z[i], basis, c, starts[i], good_enough=0.3)
                    for i in range(2)]
        with obs.recording() as stacked:
            got = orbit_distance(z, basis, c, starts, good_enough=0.3)
        assert got.shape == (2,) and got.tolist() == want
        assert want[0] > 0.1 and want[1] < 1e-6
        assert stacked.counts == single.counts
        assert isinstance(want[0], float)

    def test_stack_across_blocks(self, monkeypatch):
        # blocks of two samples: 2 + 2 + 1 over five noisy samples
        rng = np.random.default_rng(10)
        c = encode_graph_bosonic(Graph.path(4))
        basis = truncated_basis(4, 3)
        z, us = szk_samples(c, 0.05, rng, basis, 5)
        starts = np.array([_warm_rows(rng, u, 4)[:3] for u in us])
        monkeypatch.setattr(bosonic, "_ASCENT_ENTRIES", 2 * 3 * 4 ** 3)
        with obs.recording() as stacked:
            got = orbit_distance(z, basis, c, starts, iters=15, good_enough=0.25)
        with obs.recording() as single:
            want = [orbit_distance(z[i], basis, c, starts[i], iters=15, good_enough=0.25)
                    for i in range(5)]
        assert got.tolist() == want
        assert stacked.counts == single.counts
