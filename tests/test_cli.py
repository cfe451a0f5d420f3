import json
import os
import subprocess
import sys
import time
import tracemalloc

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

from stateiso import bosonic, cli, psgi
from stateiso.cli import main
from stateiso.graphs import Graph
from stateiso.linalg import DensityMatrix, to_pairs


@pytest.fixture
def runner():
    return CliRunner()


def _write_graph(path, g):
    path.write_text(g.to_edge_list_text())
    return str(path)


def _json_body(output):
    """Parse the JSON result, skipping the config announcement lines."""
    lines = output.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln == "{")
    return json.loads("\n".join(lines[start:]))


class TestPsgiCommand:
    def test_same_state_yes_identity_witness(self, runner):
        res = runner.invoke(main, ["psgi", "--same-state", "--n", "2", "--seed", "1"])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert body["decision"] == "YES"
        assert body["witness"] == "identity"

    def test_no_instance_exit_one(self, runner):
        res = runner.invoke(main, ["psgi", "--n", "2", "--kind", "no", "--seed", "2"])
        assert res.exit_code == 1
        assert _json_body(res.output)["decision"] == "NO"

    def test_quantum_solver_flag(self, runner):
        res = runner.invoke(main, ["psgi", "--quantum", "--same-state",
                                   "--n", "1", "--seed", "3"])
        assert res.exit_code == 0
        assert _json_body(res.output)["decision"] == "YES"

    @pytest.mark.parametrize("args, code", [
        (["psgi", "--group", "clifford", "--n", "2"], 0),
        (["psgi", "--quantum", "--same-state", "--n", "8"], 0),
    ], ids=["oracle-clifford2-yes", "quantum-pauli8-same-state"])
    def test_exit_code(self, runner, args, code):
        res = runner.invoke(main, args)
        assert res.exit_code == code, res.exc_info

    def test_quantum_on_non_pauli_group_is_config_error(self, runner):
        res = runner.invoke(main, ["psgi", "--quantum", "--group", "clifford", "--n", "1",
                                   "--same-state"])
        _assert_config_error(res)
        assert "pauli(1)" in res.stderr

    def test_bad_thresholds_config_error(self, runner):
        res = runner.invoke(main, ["psgi", "--alpha", "0.9", "--beta", "0.5"])
        assert res.exit_code == 2

    def test_missing_instance_file(self, runner):
        res = runner.invoke(main, ["psgi", "--instance", "/nonexistent.json"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flags, code, decision", [
        (["--kind", "yes"], 0, "YES"),
        (["--kind", "no"], 1, "NO"),
        (["--same-state"], 0, "YES"),
    ], ids=["yes", "no", "same-state"])
    def test_two_copy_pauli_draws_on_its_2n_qubits(self, runner, flags, code, decision):
        res = runner.invoke(main, ["psgi", "--group", "two_copy_pauli", "--n", "1", *flags])
        assert res.exit_code == code, res.output
        assert _json_body(res.output)["decision"] == decision


    @pytest.mark.parametrize("kind, code, decision", [("yes", 0, "YES"), ("no", 1, "NO")])
    def test_six_qubits_decide_through_the_orbit(self, runner, kind, code, decision):
        # pauli(6)'s 16,384 matrices would take 1 GiB; the orbit of psi2
        # that the oracle reads takes 16 MiB
        res = runner.invoke(main, ["psgi", "--n", "6", "--kind", kind, "--seed", "3"])
        assert res.exit_code == code, res.output
        assert _json_body(res.output)["decision"] == decision

    def test_non_unitary_explicit_group_is_config_error(self, runner, tmp_path):
        # with 2 X as an element, |<0| 2X |psi2>| = 1.6 used to decide YES
        bundle = tmp_path / "scaled.json"
        bundle.write_text(json.dumps({
            "version": 1, "type": "psgi",
            "psi1": {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            "psi2": {"n_qubits": 1, "amplitudes": [[0.6, 0.0], [0.8, 0.0]]},
            "group": {"type": "explicit", "elements": ["e", "m"],
                      "matrices": [to_pairs(np.eye(2)), to_pairs(np.array([[0, 2], [2, 0]]))]},
            "alpha": 0.6, "beta": 0.99}))
        res = runner.invoke(main, ["psgi", "--instance", str(bundle)])
        _assert_config_error(res)
        assert "unitary" in res.stderr

    @pytest.mark.parametrize("labels, identity", [
        (["a", "a"], None), (["e", "x"], "x"), (["e", "x"], "q"),
    ], ids=["repeated-label", "identity-not-I", "identity-not-a-label"])
    def test_explicit_group_refusals_are_config_errors(self, runner, tmp_path, labels, identity):
        # the first two decided |1> ~ |0> YES with the witness "identity",
        # which was X
        group = {"type": "explicit", "elements": labels,
                 "matrices": [to_pairs(np.eye(2)), to_pairs(np.array([[0, 1], [1, 0]]))]}
        if identity is not None:
            group["identity"] = identity
        bundle = tmp_path / "explicit.json"
        bundle.write_text(json.dumps({
            "version": 1, "type": "psgi",
            "psi1": {"n_qubits": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
            "psi2": {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            "group": group, "alpha": 0.6, "beta": 0.99}))
        res = runner.invoke(main, ["psgi", "--instance", str(bundle)])
        _assert_config_error(res)
        assert "missing field" not in res.stderr


class TestGroupFlag:
    @pytest.mark.parametrize("command", [["psgi"], ["reduce", "qsd-msgi"],
                                         ["reduce", "qsd-mixedhsp"]],
                             ids=["psgi", "qsd-msgi", "qsd-mixedhsp"])
    @pytest.mark.parametrize("group", ["z2k", "cyclic", "explicit"])
    def test_only_groups_that_n_builds(self, runner, tmp_path, command, group):
        # these groups need fields (k, N, elements) that --n does not give;
        # they used to exit 2 with "missing field" for a field never written
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(DensityMatrix(1, np.diag([0.7, 0.3]).astype(complex)).to_obj()))
        states = [str(rho), str(rho)] if command[0] == "reduce" else []
        res = runner.invoke(main, command + states + ["--group", group])
        assert res.exit_code == 2, res.output
        assert "Invalid value for '--group'" in res.stderr
        assert "missing field" not in res.stderr


def _bundle_of_type(runner, tmp_path, bundle_type):
    """A bundle as ``reduce`` writes it for that type."""
    g = _write_graph(tmp_path / "g.txt", Graph.path(3))
    rho = tmp_path / "rho.json"
    rho.write_text(json.dumps(DensityMatrix(1, np.diag([0.7, 0.3]).astype(complex)).to_obj()))
    psgi_bundle = tmp_path / "psgi.json"
    # the state-HSP reduction needs an abelian group
    psgi_bundle.write_text(json.dumps(_psgi_bundle(group={"type": "cyclic", "N": 2,
                                                          "rep": "shift"})))
    args = {"gi_clifford": ["gi-clifford", g, g],
            "gi_lowrank": ["gi-lowrank", g, g],
            "gi_bosonic": ["gi-bosonic", g, g],
            "msgi": ["qsd-msgi", str(rho), str(rho)],
            "mixed_hsp": ["qsd-mixedhsp", str(rho), str(rho)],
            "state_hsp": ["psgi-statehsp", str(psgi_bundle)]}[bundle_type]
    path = tmp_path / "bundle.json"
    res = runner.invoke(main, ["reduce", *args, "--out", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(path.read_text())["type"] == bundle_type
    return path


def _psgi_bundle(**fields):
    state = {"n_qubits": 1, "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
    return {"version": 1, "type": "psgi", "psi1": state, "psi2": state,
            "group": {"type": "pauli", "n": 1}, "alpha": 0.6, "beta": 0.99, **fields}


class TestInstanceBundleType:
    @pytest.mark.parametrize("bundle_type",
                             ["gi_lowrank", "gi_bosonic", "msgi", "mixed_hsp", "state_hsp"])
    def test_other_reduce_outputs_are_refused(self, runner, tmp_path, bundle_type):
        path = _bundle_of_type(runner, tmp_path, bundle_type)
        res = runner.invoke(main, ["psgi", "--instance", str(path)])
        _assert_config_error(res)
        assert repr(bundle_type) in res.stderr

    @pytest.mark.parametrize("bundle_type", [None, 5, ["psgi"], {"type": "psgi"}],
                             ids=["null", "number", "list", "object"])
    def test_non_string_type_is_refused(self, runner, tmp_path, bundle_type):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_psgi_bundle(type=bundle_type)))
        res = runner.invoke(main, ["psgi", "--instance", str(path)])
        _assert_config_error(res)
        assert repr(bundle_type) in res.stderr

    @pytest.mark.parametrize("bundle_type", ["gi_clifford", "gi_lowrank", "gi_bosonic",
                                             "msgi", "mixed_hsp", "state_hsp"])
    def test_statehsp_refuses_other_reduce_outputs(self, runner, tmp_path, bundle_type):
        path = _bundle_of_type(runner, tmp_path, bundle_type)
        res = runner.invoke(main, ["reduce", "psgi-statehsp", str(path)])
        _assert_config_error(res)
        assert repr(bundle_type) in res.stderr

    @pytest.mark.parametrize("bundle_type", [None, 5, ["psgi"], {"type": "psgi"}],
                             ids=["null", "number", "list", "object"])
    def test_statehsp_refuses_a_non_string_type(self, runner, tmp_path, bundle_type):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(_psgi_bundle(type=bundle_type)))
        res = runner.invoke(main, ["reduce", "psgi-statehsp", str(path)])
        _assert_config_error(res)
        assert repr(bundle_type) in res.stderr

    def test_bundle_without_type_is_decided_as_psgi(self, runner, tmp_path):
        typed, untyped = tmp_path / "typed.json", tmp_path / "untyped.json"
        typed.write_text(json.dumps(_psgi_bundle()))
        bundle = _psgi_bundle()
        del bundle["type"]
        untyped.write_text(json.dumps(bundle))
        res = runner.invoke(main, ["psgi", "--instance", str(untyped)])
        assert res.exit_code == 0
        assert _json_body(res.output)["decision"] == "YES"
        assert _json_body(res.output) == _json_body(
            runner.invoke(main, ["psgi", "--instance", str(typed)]).output)


class TestReducePipeline:
    def test_gi_clifford_isomorphic_pipeline(self, runner, tmp_path):
        g1 = Graph.path(4)
        g2 = g1.relabel((2, 0, 3, 1))
        p1 = _write_graph(tmp_path / "g1.txt", g1)
        p2 = _write_graph(tmp_path / "g2.txt", g2)
        bundle = tmp_path / "bundle.json"
        res = runner.invoke(main, ["reduce", "gi-clifford", p1, p2,
                                   "--out", str(bundle)])
        assert res.exit_code == 0
        res = runner.invoke(main, ["psgi", "--instance", str(bundle)])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert body["decision"] == "YES"
        assert abs(body["achieved_overlap"][0] - 1) < 1e-9

    def test_gi_clifford_yes_searches_once(self, runner, tmp_path, monkeypatch):
        # the witness is the one isomorphism search of a YES bundle
        from stateiso import graphs, reductions
        p1 = _write_graph(tmp_path / "g1.txt", Graph.cycle(5))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.cycle(5).relabel((3, 0, 4, 1, 2)))
        bundle = tmp_path / "bundle.json"
        runner.invoke(main, ["reduce", "gi-clifford", p1, p2, "--out", str(bundle)])
        calls = []
        real = graphs.find_isomorphism
        for module in (graphs, reductions):
            monkeypatch.setattr(module, "find_isomorphism",
                                lambda g1, g2: calls.append(1) or real(g1, g2))
        res = runner.invoke(main, ["psgi", "--instance", str(bundle)])
        assert res.exit_code == 0 and _json_body(res.output)["decision"] == "YES"
        assert len(calls) == 1

    def test_gi_clifford_witness_is_stable(self, runner, tmp_path):
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(4))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.path(4).relabel((2, 0, 3, 1)))
        bundle = tmp_path / "bundle.json"
        runner.invoke(main, ["reduce", "gi-clifford", p1, p2, "--out", str(bundle)])
        witnesses = [
            _json_body(runner.invoke(main, ["psgi", "--instance", str(bundle)]).output)["witness"]
            for _ in range(2)
        ]
        assert witnesses[0] == witnesses[1]
        assert witnesses[0].startswith("CliffordElement(X -> ")
        assert "0x" not in witnesses[0]

    def test_gi_clifford_non_isomorphic_pipeline(self, runner, tmp_path):
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(4))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.star(4))
        bundle = tmp_path / "bundle.json"
        runner.invoke(main, ["reduce", "gi-clifford", p1, p2, "--out", str(bundle)])
        res = runner.invoke(main, ["psgi", "--instance", str(bundle),
                                   "--sweep-count", "2000"])
        assert res.exit_code == 1
        body = _json_body(res.output)
        assert body["decision"] == "NO"
        assert body["sweep"]["exceed_count"] == 0

    def test_gi_clifford_edge_count_mismatch_pipeline(self, runner, tmp_path):
        # different edge counts decide NO without building a state
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(4))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.cycle(4))
        bundle = tmp_path / "bundle.json"
        res = runner.invoke(main, ["reduce", "gi-clifford", p1, p2, "--out", str(bundle)])
        assert res.exit_code == 0
        body = json.loads(bundle.read_text())
        assert body["note"] == "vertex or edge counts differ; instance is NO"
        assert "psi1" not in body and "psi2" not in body
        res = runner.invoke(main, ["psgi", "--instance", str(bundle)])
        assert res.exit_code == 1
        body = _json_body(res.output)
        assert body["decision"] == "NO" and body["witness"] is None
        assert body["achieved_overlap"] == [0.0, 0.0]
        assert "sweep" not in body

    def test_gi_lowrank_vertex_count_mismatch(self, runner, tmp_path):
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(3))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.path(4))
        res = runner.invoke(main, ["reduce", "gi-lowrank", p1, p2])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert body["note"] == "vertex or edge counts differ; instance is NO"
        assert "psi1" not in body

    def test_gi_lowrank_bundle(self, runner, tmp_path):
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(4))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.star(4))
        res = runner.invoke(main, ["reduce", "gi-lowrank", p1, p2])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert body["alpha"] == pytest.approx(1 - 1 / 98304)

    def test_gi_bosonic_bundle(self, runner, tmp_path):
        p1 = _write_graph(tmp_path / "g1.txt", Graph.path(3))
        p2 = _write_graph(tmp_path / "g2.txt", Graph.path(3))
        res = runner.invoke(main, ["reduce", "gi-bosonic", p1, p2])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert body["type"] == "gi_bosonic"

    def test_bad_graph_file_config_error(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph\n")
        res = runner.invoke(main, ["reduce", "gi-clifford", str(bad), str(bad)])
        assert res.exit_code == 2

    def test_qsd_msgi_bundle(self, runner, tmp_path):
        rho = DensityMatrix(1, np.diag([0.7, 0.3]).astype(complex))
        tau = DensityMatrix(1, np.diag([0.2, 0.8]).astype(complex))
        p1 = tmp_path / "s1.json"
        p2 = tmp_path / "s2.json"
        p1.write_text(json.dumps(rho.to_obj()))
        p2.write_text(json.dumps(tau.to_obj()))
        res = runner.invoke(main, ["reduce", "qsd-msgi", str(p1), str(p2),
                                   "--n", "1"])
        assert res.exit_code == 0
        body = _json_body(res.output)
        assert "diagnostics" in body


class TestVerifyCommands:
    def test_lemma_perm_n1(self, runner):
        res = runner.invoke(main, ["verify", "lemma-perm", "--n", "1"])
        assert res.exit_code == 0
        assert _json_body(res.output)["passed"]

    def test_lemma_perm_over_budget_is_config_error(self, runner):
        # a crash would exit 1 and read as a failed check
        res = runner.invoke(main, ["verify", "lemma-perm", "--n", "16", "--sampled",
                                   "--samples", "1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "budget" in res.output and "Traceback" not in res.output

    def test_lemma_perm_kept_over_budget_is_config_error(self, runner, monkeypatch):
        # threshold 1e-12 keeps 11,390 of the 2-qubit group, about 5 MiB
        from stateiso import linalg
        monkeypatch.setattr(linalg, "_DENSE_BUDGET", 1 << 20)
        res = runner.invoke(main, ["verify", "lemma-perm", "--n", "2", "--threshold", "1e-12"])
        _assert_config_error(res)
        assert "budget" in res.stderr

    def test_lemma_perm_n4_is_config_error(self, runner):
        # the 4-qubit group has 1.2e13 elements: refused, not enumerated
        res = runner.invoke(main, ["verify", "lemma-perm", "--n", "4"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "n <= 3" in res.output and "Traceback" not in res.output

    @pytest.mark.parametrize("threshold", ["nan", "inf", "1.5", "0", "-1"])
    def test_lemma_perm_threshold_out_of_range(self, runner, threshold):
        # nan, inf and 1.5 are met by no overlap, so the check would pass vacuously
        res = runner.invoke(main, ["verify", "lemma-perm", "--n", "1", "--threshold", threshold])
        _assert_config_error(res)
        assert "threshold" in res.stderr

    def test_twirl_bound(self, runner):
        res = runner.invoke(main, ["verify", "twirl-bound", "--instances", "20"])
        assert res.exit_code == 0

    def test_helper_gapped_cv(self, runner):
        res = runner.invoke(main, ["verify", "helper-gapped-cv", "--count", "50"])
        assert res.exit_code == 0

    def test_trace_transfer(self, runner):
        res = runner.invoke(main, ["verify", "trace-transfer", "--count", "20"])
        assert res.exit_code == 0

    def test_shadow_unbiased(self, runner):
        res = runner.invoke(main, ["verify", "shadow-unbiased"])
        assert res.exit_code == 0
        assert _json_body(res.output)["worst_bias"] <= 1e-10


class TestBosonicCommands:
    def test_encode_single_edge(self, runner, tmp_path):
        p = _write_graph(tmp_path / "g.txt", Graph(2, ((0, 1),)))
        res = runner.invoke(main, ["bosonic", "encode", p])
        assert res.exit_code == 0
        body = _json_body(res.output)
        amps = {tuple(t["k"]): complex(*t["amp"]) for t in body["amplitudes"]}
        assert abs(amps[(1, 1)] - 1 / np.sqrt(2)) < 1e-12

    def test_overlap_identical(self, runner, tmp_path):
        p = _write_graph(tmp_path / "g.txt", Graph.path(3))
        enc = tmp_path / "c.json"
        runner.invoke(main, ["bosonic", "encode", p, "--out", str(enc)])
        res = runner.invoke(main, ["bosonic", "overlap", str(enc), str(enc)])
        assert res.exit_code == 0
        assert abs(_json_body(res.output)["abs"] - 1) < 1e-12

    def test_optimize_isomorphic(self, runner, tmp_path):
        g1 = Graph.path(3)
        g2 = g1.relabel((1, 2, 0))
        pa = _write_graph(tmp_path / "a.txt", g1)
        pb = _write_graph(tmp_path / "b.txt", g2)
        ea, eb = tmp_path / "a.json", tmp_path / "b.json"
        runner.invoke(main, ["bosonic", "encode", pa, "--out", str(ea)])
        runner.invoke(main, ["bosonic", "encode", pb, "--out", str(eb)])
        res = runner.invoke(main, ["bosonic", "optimize", str(ea), str(eb),
                                   "--restarts", "10"])
        assert res.exit_code == 0
        assert _json_body(res.output)["best_abs"] > 1 - 1e-7

    def _encoded_pair(self, runner, tmp_path):
        pa = _write_graph(tmp_path / "a.txt", Graph.path(3))
        pb = _write_graph(tmp_path / "b.txt", Graph.star(3))
        ea, eb = tmp_path / "a.json", tmp_path / "b.json"
        runner.invoke(main, ["bosonic", "encode", pa, "--out", str(ea)])
        runner.invoke(main, ["bosonic", "encode", pb, "--out", str(eb)])
        return str(ea), str(eb)

    @pytest.mark.parametrize("restarts", ["0", "-3"])
    def test_optimize_nonpositive_restarts_is_config_error(self, runner, tmp_path,
                                                           restarts):
        ea, eb = self._encoded_pair(runner, tmp_path)
        res = runner.invoke(main, ["bosonic", "optimize", ea, eb,
                                   "--restarts", restarts])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "restarts" in res.output and "Traceback" not in res.output

    def test_apply_permanent_matches_substitution(self, runner, tmp_path):
        ea, _ = self._encoded_pair(runner, tmp_path)
        u = tmp_path / "u.json"
        u.write_text(json.dumps(bosonic.haar_mode_unitary(3, 7).to_obj()))
        moved = {}
        for method in ("substitution", "permanent"):
            res = runner.invoke(main, ["bosonic", "apply", ea, str(u), "--method", method])
            assert res.exit_code == 0, res.output
            moved[method] = bosonic.CoreState.from_obj(_json_body(res.output))
        assert abs(bosonic.core_overlap(moved["substitution"], moved["permanent"])) >= 1 - 1e-9

    def test_optimize_trace_into_missing_directory(self, runner, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the ascent ran")

        ea, eb = self._encoded_pair(runner, tmp_path)
        monkeypatch.setattr(bosonic, "_ascend", never)
        trace = tmp_path / "missing" / "t.csv"
        res = runner.invoke(main, ["bosonic", "optimize", ea, eb, "--restarts", "200",
                                   "--trace", str(trace)])
        _assert_config_error(res)
        assert not trace.exists()

    def test_tv_gap_zero_samples_is_config_error(self, runner, tmp_path):
        ea, eb = self._encoded_pair(runner, tmp_path)
        res = runner.invoke(main, ["bosonic", "tv-gap", ea, eb, "--samples", "0"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "n_samples" in res.output and "Traceback" not in res.output


class TestProtocolCommands:
    def test_write_summary_csv(self, tmp_path):
        path = tmp_path / "summary.csv"
        cli.write_summary_csv(str(path), [
            {"instance": "iso", "trials": 10, "accepts": 5,
             "accept_rate": 0.5, "wilson_low": 0.2, "wilson_high": 0.8},
        ])
        text = path.read_text()
        assert text.splitlines()[0].startswith("instance,")
        assert "iso" in text

    @pytest.mark.parametrize("k, seed", [(4, 0), (4, 3), (5, 1)])
    def test_qszk_mixed_isomorphic_distance_is_exactly_zero(self, runner, k, seed):
        # the isomorphic pair's twirls are equal bit for bit, and the trace
        # norm of their zero difference is read without a decomposition
        res = runner.invoke(main, ["protocol", "qszk-mixed", "--k", str(k), "--trials", "1",
                                   "--seed", str(seed)])
        assert res.exit_code == 0, res.output
        rows = [json.loads(ln) for ln in res.stdout.splitlines()]
        assert rows[0]["instance"] == "isomorphic"
        assert rows[0]["twirled_distance"] == 0.0
        assert rows[1]["twirled_distance"] > 0.9

    @pytest.mark.parametrize("command", ["qcszk", "qszk-mixed", "szk-lowrank"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_nonpositive_trials_refused_before_any_work(self, runner, command, trials):
        # no rounds give no accept rate; refused while the options are read,
        # before the configuration line and before any instance is built
        res = runner.invoke(main, ["protocol", command, "--trials", trials])
        _assert_config_error(res)
        assert res.stderr == f"config error: --trials must be >= 1, got {trials}\n"


P4_TEXT = Graph.path(4).to_edge_list_text()


def _malformed_inputs(runner, tmp_path):
    """(id, argv) pairs of malformed inputs that must be config errors."""
    state = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    no_psi1 = tmp_path / "no_psi1.json"
    no_psi1.write_text(json.dumps({"version": 1, "type": "psgi", "psi2": state,
                                   "group": {"type": "pauli", "n": 1},
                                   "alpha": 0.6, "beta": 0.99}))
    g1 = _write_graph(tmp_path / "g1.txt", Graph.path(4))
    g2 = _write_graph(tmp_path / "g2.txt", Graph.path(4).relabel((3, 2, 1, 0)))
    lowrank = tmp_path / "lowrank.json"
    res = runner.invoke(main, ["reduce", "gi-lowrank", g1, g2, "--out", str(lowrank)])
    assert res.exit_code == 0
    trace2 = tmp_path / "trace2.json"
    trace2.write_text(json.dumps({"n_qubits": 1,
                                  "matrix": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}))
    pure = tmp_path / "pure.json"
    pure.write_text(json.dumps(DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex)).to_obj()))
    core = tmp_path / "c.json"
    res = runner.invoke(main, ["bosonic", "encode", g1, "--out", str(core)])
    assert res.exit_code == 0
    bad_core = tmp_path / "bad.json"
    bad_core.write_text(json.dumps({"n_modes": 4, "r_max": 3}))
    bad_cores = {}
    for case, entry in (("amp-number", {"k": [0, 0, 0, 3], "amp": 5}),
                        ("k-number", {"k": 5, "amp": [1.0, 0.0]}),
                        ("nan-amplitude", {"k": [0, 0, 0, 3], "amp": [float("nan"), 0.0]}),
                        ("inf-amplitude", {"k": [0, 0, 0, 3], "amp": [float("inf"), 0.0]}),
                        ("amplitudes-number", None)):
        obj = json.loads(core.read_text())
        if entry is None:
            obj["amplitudes"] = 5
        else:
            obj["amplitudes"][0] = entry
        path = tmp_path / f"core_{case}.json"
        path.write_text(json.dumps(obj))
        bad_cores[f"bosonic-optimize-core-{case}"] = [
            "bosonic", "optimize", str(core), str(path), "--restarts", "1"]
    as_list = tmp_path / "list.json"
    as_list.write_text(json.dumps([state, state]))
    as_string = tmp_path / "string.json"
    as_string.write_text(json.dumps("psgi"))
    psi1_number = tmp_path / "psi1_number.json"
    psi1_number.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": 5,
                                       "psi2": state, "group": {"type": "pauli", "n": 1},
                                       "alpha": 0.6, "beta": 0.99}))
    bad_groups = {}
    for case, group in (("pauli-n-null", {"type": "pauli", "n": None}),
                        ("pauli-n-list", {"type": "pauli", "n": [1]}),
                        ("explicit-list-labels", {"type": "explicit", "elements": [["e"]],
                                                  "matrices": [[[[1, 0]]]]}),
                        ("explicit-matrices-number", {"type": "explicit", "elements": ["e"],
                                                      "matrices": 5}),
                        ("cyclic-zero", {"type": "cyclic", "N": 0})):
        path = tmp_path / f"group_{case}.json"
        path.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": state,
                                    "psi2": state, "group": group,
                                    "alpha": 0.6, "beta": 0.99}))
        bad_groups[f"psgi-bundle-group-{case}"] = ["psgi", "--instance", str(path)]
    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": state, "psi2": state,
                                  "group": {"type": "cyclic", "N": 2, "rep": "shift"},
                                  "alpha": 0.6, "beta": 0.99}))
    # 30 copies of |Phi> would take 16 EiB: refused before the tensor power
    statehsp = {f"reduce-psgi-statehsp-{case}-copies":
                ["reduce", "psgi-statehsp", str(cyclic), "--copies", copies]
                for case, copies in (("zero", "0"), ("negative", "-1"), ("thirty", "30"))}
    bad_states = {}
    for case, psi1 in (("amplitudes-number", {"n_qubits": 1, "amplitudes": 5}),
                       ("n-qubits-string", {"n_qubits": "one", "amplitudes": state["amplitudes"]}),
                       ("amplitude-string", {"n_qubits": 1, "amplitudes": [[1, 0], ["a", 0]]})):
        path = tmp_path / f"psi1_{case}.json"
        path.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": psi1,
                                    "psi2": state, "group": {"type": "pauli", "n": 1},
                                    "alpha": 0.6, "beta": 0.99}))
        bad_states[f"psgi-bundle-psi1-{case}"] = ["psgi", "--instance", str(path)]
    # paired with a 4-vertex path, a -3-vertex graph would read as a NO
    # instance by its mismatched vertex count
    negative = tmp_path / "negative.txt"
    negative.write_text("-3\n")
    negative_bundle = tmp_path / "negative_bundle.json"
    negative_bundle.write_text(json.dumps({"version": 1, "type": "gi_clifford",
                                           "graph1": "-3\n", "graph2": P4_TEXT}))
    eye = [[[float(i == j), 0.0] for j in range(2)] for i in range(2)]
    bad_unitaries = {}
    for case, obj in (("rows-of-numbers", {"n": 3, "matrix": [[1, 2], [3, 4], [5, 6]]}),
                      ("entry-string", {"n": 2, "matrix": [[["a", 0], [0, 0]], eye[1]]}),
                      ("matrix-number", {"n": 2, "matrix": 5}),
                      ("n-null", {"n": None, "matrix": eye})):
        path = tmp_path / f"unitary_{case}.json"
        path.write_text(json.dumps(obj))
        bad_unitaries[f"bosonic-apply-unitary-{case}"] = ["bosonic", "apply", str(core),
                                                          str(path)]
    return {
        **bad_unitaries,
        **bad_groups,
        **bad_states,
        **bad_cores,
        **statehsp,
        "psgi-bundle-without-psi1": ["psgi", "--instance", str(no_psi1)],
        "psgi-bundle-json-list": ["psgi", "--instance", str(as_list)],
        "psgi-bundle-json-string": ["psgi", "--instance", str(as_string)],
        "psgi-bundle-psi1-number": ["psgi", "--instance", str(psi1_number)],
        "psgi-isomorphic-gi-lowrank-bundle": ["psgi", "--instance", str(lowrank)],
        "reduce-qsd-msgi-trace-2": ["reduce", "qsd-msgi", str(trace2), str(pure)],
        "bosonic-optimize-core-without-amplitudes":
            ["bosonic", "optimize", str(core), str(bad_core), "--restarts", "1"],
        "bosonic-overlap-core-without-amplitudes":
            ["bosonic", "overlap", str(core), str(bad_core)],
        "verify-trace-transfer-zero-qubits": ["verify", "trace-transfer", "--n", "0"],
        "reduce-gi-clifford-negative-vertex-count":
            ["reduce", "gi-clifford", str(negative), g1],
        "psgi-gi-clifford-bundle-negative-vertex-count":
            ["psgi", "--instance", str(negative_bundle)],
        # Python would read index -1 as the group's last element
        "reduce-qsd-mixedhsp-negative-h-index":
            ["reduce", "qsd-mixedhsp", str(pure), str(pure), "--h-index", "-1"],
    }


def _assert_config_error(res):
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    errors = [ln for ln in res.stderr.splitlines() if ln.startswith("config error:")]
    assert len(errors) == 1, res.stderr


def _gi_clifford_bundle(runner, tmp_path, g1, g2):
    bundle = str(tmp_path / "bundle.json")
    res = runner.invoke(main, ["reduce", "gi-clifford", _write_graph(tmp_path / "g1.txt", g1),
                               _write_graph(tmp_path / "g2.txt", g2), "--out", bundle])
    assert res.exit_code == 0
    return bundle


class TestConfigErrorBoundary:
    @pytest.mark.parametrize("case", [
        "psgi-bundle-without-psi1",
        "psgi-bundle-json-list",
        "psgi-bundle-json-string",
        "psgi-bundle-psi1-number",
        "psgi-bundle-psi1-amplitudes-number",
        "psgi-bundle-psi1-n-qubits-string",
        "psgi-bundle-psi1-amplitude-string",
        "psgi-bundle-group-pauli-n-null",
        "psgi-bundle-group-pauli-n-list",
        "psgi-bundle-group-explicit-list-labels",
        "psgi-bundle-group-explicit-matrices-number",
        "psgi-bundle-group-cyclic-zero",
        "psgi-isomorphic-gi-lowrank-bundle",
        "reduce-qsd-msgi-trace-2",
        "bosonic-optimize-core-without-amplitudes",
        "bosonic-overlap-core-without-amplitudes",
        "bosonic-optimize-core-amp-number",
        "bosonic-optimize-core-k-number",
        "bosonic-optimize-core-nan-amplitude",
        "bosonic-optimize-core-inf-amplitude",
        "bosonic-optimize-core-amplitudes-number",
        "verify-trace-transfer-zero-qubits",
        "reduce-psgi-statehsp-zero-copies",
        "reduce-psgi-statehsp-negative-copies",
        "reduce-psgi-statehsp-thirty-copies",
        "reduce-gi-clifford-negative-vertex-count",
        "psgi-gi-clifford-bundle-negative-vertex-count",
        "bosonic-apply-unitary-rows-of-numbers",
        "bosonic-apply-unitary-entry-string",
        "bosonic-apply-unitary-matrix-number",
        "bosonic-apply-unitary-n-null",
        "reduce-qsd-mixedhsp-negative-h-index",
    ])
    def test_malformed_input_exits_two(self, runner, tmp_path, case):
        args = _malformed_inputs(runner, tmp_path)[case]
        _assert_config_error(runner.invoke(main, args))

    @pytest.mark.parametrize("args", [
        ["protocol", "qcszk", "--n", "0", "--trials", "1", "--shadows", "10"],
        ["protocol", "qcszk", "--trials", "1", "--shadows", "0"],
        ["psgi", "--n", "0"],
        ["psgi", "--quantum", "--n", "2", "--shot-mode", "--shots", "0"],
        ["psgi", "--quantum", "--n", "2", "--copies", "0"],
        ["psgi", "--quantum", "--n", "2", "--copies", "-1"],
        ["verify", "twirl-bound", "--n", "0", "--instances", "1"],
    ], ids=["qcszk-zero-qubits", "qcszk-zero-shadows", "psgi-zero-qubits",
            "psgi-zero-shots", "psgi-zero-copies", "psgi-negative-copies",
            "twirl-bound-zero-qubits"])
    def test_empty_sizes_exit_two(self, runner, args):
        _assert_config_error(runner.invoke(main, args))

    @pytest.mark.parametrize("args", [
        ["verify", "twirl-bound", "--instances", "0"],
        ["verify", "helper-gapped-cv", "--count", "0"],
        ["verify", "trace-transfer", "--count", "0"],
        ["verify", "trace-transfer", "--count", "-1"],
        ["verify", "lemma-perm", "--n", "3", "--sampled", "--samples", "0"],
        ["verify", "lemma-perm", "--n", "3", "--sampled", "--samples", "-5"],
        ["verify", "lemma-perm", "--n", "0"],
        ["verify", "lemma-perm", "--n", "-1"],
    ], ids=["twirl-bound-zero-instances", "helper-gapped-cv-zero-count",
            "trace-transfer-zero-count", "trace-transfer-negative-count",
            "lemma-perm-zero-samples", "lemma-perm-negative-samples",
            "lemma-perm-zero-qubits", "lemma-perm-negative-qubits"])
    def test_vacuous_checks_exit_two(self, runner, args):
        # a check over no instances would pass vacuously
        _assert_config_error(runner.invoke(main, args))

    def test_shadow_count_over_budget_exits_two(self, runner):
        # 10^8 shadows of a 3-qubit state need a ~95 GiB unitary stack
        res = runner.invoke(main, ["protocol", "qcszk", "--n", "3", "--trials", "1",
                                   "--shadows", "100000000"])
        _assert_config_error(res)
        assert "budget" in res.stderr

    def test_twirl_copies_over_budget_exits_two(self, runner):
        # a 10^8-fold twirl's peak is 2^(4 * 10^8 + 6) bytes: refused by its
        # log, with no int of that size built or printed
        t0 = time.perf_counter()
        res = runner.invoke(main, ["protocol", "qszk-mixed", "--k", "100000000"])
        assert time.perf_counter() - t0 < 1.0
        _assert_config_error(res)
        assert "budget" in res.stderr and "digits" not in res.stderr

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_sweep_count(self, runner, tmp_path, count):
        # a sweep of no Cliffords is no evidence for NO
        bundle = _gi_clifford_bundle(runner, tmp_path, Graph.path(4), Graph.star(4))
        res = runner.invoke(main, ["psgi", "--instance", bundle, "--sweep-count", count])
        _assert_config_error(res)

    def test_sweep_over_work_budget(self, runner, tmp_path):
        # 13-vertex graphs make 14 qubits: the default 20,000-Clifford sweep
        # is refused before any Clifford is drawn
        bundle = _gi_clifford_bundle(runner, tmp_path, Graph.path(13), Graph.star(13))
        t0 = time.perf_counter()
        res = runner.invoke(main, ["psgi", "--instance", bundle])
        assert time.perf_counter() - t0 < 1.0
        _assert_config_error(res)
        assert "--sweep-count" in res.stderr

    @pytest.mark.parametrize("args", [
        ["psgi", "--n", "7"],
        ["psgi", "--quantum", "--n", "12"],
    ], ids=["oracle-pauli7-stack", "quantum-pauli12-labels"])
    def test_group_over_budget(self, runner, args):
        # pauli(7)'s orbit of one state peaks near 2^28.8 bytes (16 per entry
        # and 40 per basis state of each of 65,536 elements); pauli(12) has
        # 4^13 labels
        t0 = time.perf_counter()
        res = runner.invoke(main, args)
        assert time.perf_counter() - t0 < 1.0
        _assert_config_error(res)
        assert "budget" in res.stderr

    @pytest.mark.parametrize("command", ["reduce-gi-clifford", "reduce-gi-lowrank",
                                         "psgi-gi-clifford-bundle"])
    def test_graph_encoding_over_budget(self, runner, tmp_path, command):
        # a 40-vertex graph's encoded states take 16 * 2^41 bytes each:
        # refused before numpy allocates them
        text = Graph.path(40).to_edge_list_text()
        graph = tmp_path / "p40.txt"
        graph.write_text(text)
        bundle = tmp_path / "p40.json"
        bundle.write_text(json.dumps({"version": 1, "type": "gi_clifford",
                                      "graph1": text, "graph2": text}))
        args = {"reduce-gi-clifford": ["reduce", "gi-clifford", str(graph), str(graph)],
                "reduce-gi-lowrank": ["reduce", "gi-lowrank", str(graph), str(graph)],
                "psgi-gi-clifford-bundle": ["psgi", "--instance", str(bundle)]}[command]
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            res = runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 1 << 20
        _assert_config_error(res)
        assert "budget" in res.stderr

    def test_memory_error_exits_two(self, runner, monkeypatch):
        # an allocation the machine cannot hold is not a NO decision
        def out_of_memory(inst):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(psgi, "psgi_oracle", out_of_memory)
        res = runner.invoke(main, ["psgi", "--n", "2"])
        _assert_config_error(res)
        assert "out of memory" in res.stderr

    def test_out_into_missing_directory(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.json"
        _assert_config_error(runner.invoke(main, ["psgi", "--n", "2", "--out", str(out)]))
        assert not out.exists()

    def test_out_refused_before_the_command_runs(self, runner, tmp_path, monkeypatch):
        # the protocol rows would go to stdout before the summary CSV
        def never(*args, **kwargs):
            raise AssertionError("the command ran")

        monkeypatch.setattr(psgi, "random_pauli_psgi_instance", never)
        out = tmp_path / "missing" / "x.csv"
        res = runner.invoke(main, ["protocol", "qcszk", "--trials", "300", "--out", str(out)])
        _assert_config_error(res)
        assert res.stdout == ""
        assert not out.exists()

    def test_out_kept_when_the_command_fails(self, runner, tmp_path):
        out = tmp_path / "x.json"
        out.write_text("earlier\n")
        _assert_config_error(runner.invoke(main, ["psgi", "--n", "0", "--out", str(out)]))
        assert out.read_text() == "earlier\n"

    def test_tv_gap_nonpositive_sigma(self, runner, tmp_path):
        core = tmp_path / "c.json"
        g = _write_graph(tmp_path / "g.txt", Graph.path(4))
        runner.invoke(main, ["bosonic", "encode", g, "--out", str(core)])
        res = runner.invoke(main, ["bosonic", "tv-gap", str(core), str(core),
                                   "--samples", "1", "--sigma", "-1"])
        _assert_config_error(res)
        assert "sigma" in res.stderr

    @pytest.mark.parametrize("sigma, message", [("inf", "sigma must be finite"),
                                                ("1e308", "not finite")])
    def test_tv_gap_nonfinite_noise(self, runner, tmp_path, sigma, message):
        # NaN samples used to count as misses and exit 0 with tv_lower 0.0
        core = tmp_path / "c.json"
        g = _write_graph(tmp_path / "g.txt", Graph.path(4))
        runner.invoke(main, ["bosonic", "encode", g, "--out", str(core)])
        res = runner.invoke(main, ["bosonic", "tv-gap", str(core), str(core),
                                   "--samples", "2", "--sigma", sigma])
        _assert_config_error(res)
        assert message in res.stderr and res.stdout == ""


# any JSON value: integers stay small or jump to sizes that overflow a
# label count, so that no example builds millions of labels
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.sampled_from([2**31, 10**18, 2**70])
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)
_LABEL = st.text(max_size=2) | st.integers(-2, 2)
_MATRICES = st.integers(1, 2).flatmap(lambda d: st.lists(
    st.lists(st.lists(st.lists(st.floats(-1, 1), min_size=2, max_size=2),
                      min_size=d, max_size=d), min_size=d, max_size=d),
    min_size=1, max_size=3))
_FIELDS = {"n": st.integers(-1, 3), "N": st.integers(-1, 3), "k": st.integers(-1, 3),
           "rep": st.sampled_from(["phase", "shift"]), "elements": st.lists(_LABEL, max_size=3),
           "matrices": _MATRICES, "identity": _LABEL}


@st.composite
def _group_specs(draw):
    """Group specs of a known or any-JSON type whose fields are each
    plausible, any JSON value or absent."""
    spec = {"type": draw(st.sampled_from(["pauli", "clifford", "two_copy_pauli", "cyclic",
                                          "z2k", "explicit"]) | _JSON)}
    for key, plausible in _FIELDS.items():
        kind = draw(st.sampled_from(["plausible", "any", "absent"]))
        if kind != "absent":
            spec[key] = draw(plausible if kind == "plausible" else _JSON)
    return spec


class TestGroupSpecFuzz:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(group=_group_specs())
    @example(group={"type": "pauli", "n": 1})
    @example(group={"type": "cyclic", "N": 2, "rep": "shift"})
    @example(group={"type": "explicit", "elements": ["e", 1],
                    "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                                 [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]]})
    @example(group=[{"type": "pauli", "n": 1}])
    def test_bundle_group_spec_keeps_the_exit_contract(self, group):
        state = {"n_qubits": 1, "amplitudes": [[0.6, 0.0], [0.0, 0.8]]}
        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("bundle.json", "w") as fh:
                json.dump({"version": 1, "type": "psgi", "psi1": state, "psi2": state,
                           "group": group, "alpha": 0.6, "beta": 0.99}, fh)
            _assert_exit_contract(runner.invoke(main, ["psgi", "--instance", "bundle.json"]))


def _assert_exit_contract(res):
    """Exit 0-3 with no traceback, and exit 1 only with a document that
    decides NO or reports a failed check."""
    # a crash is caught by the runner as an exception other than SystemExit
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exc_info
    assert res.exit_code in (0, 1, 2, 3)
    assert "Traceback" not in res.output
    if res.exit_code == 1:
        doc = json.loads(res.stdout)
        assert doc.get("decision") == "NO" or doc.get("passed") is False, res.stdout


def _mostly(plausible, other):
    """``plausible`` three times in four, else ``other``."""
    return st.sampled_from((plausible, plausible, plausible, other)).flatmap(lambda s: s)


_STATE1 = {"n_qubits": 1, "amplitudes": [[0.6, 0.0], [0.8, 0.0]]}
_STATE2 = {"n_qubits": 2, "amplitudes": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.5]]}
# edge-list texts: a vertex count, then edge lines of small ints, with some
# counts and tokens out of range or junk; or any short text
_TOKEN = _mostly(st.integers(0, 5).map(str),
                 st.integers(-1, 9).map(str) | st.text("x0 -#", max_size=3))
_EDGE_TEXT = _mostly(st.builds(
    lambda count, edges: "\n".join([count] + [" ".join(e) for e in edges]) + "\n",
    _mostly(st.integers(2, 6).map(str),
            st.integers(-2, 1).map(str) | st.sampled_from(["40", "", "2.5", "#"])),
    st.lists(_mostly(st.lists(_TOKEN, min_size=2, max_size=2),
                     st.lists(_TOKEN, min_size=1, max_size=3)), max_size=5),
), st.text(max_size=8))
_BUNDLE_FIELDS = {
    "psi1": st.sampled_from([_STATE1, _STATE2]), "psi2": st.sampled_from([_STATE1, _STATE2]),
    "group": st.sampled_from([{"type": "pauli", "n": 1}, {"type": "z2k", "k": 1},
                              {"type": "two_copy_pauli", "n": 1}]),
    "alpha": st.sampled_from([0.6, 0.0, 1.0]) | st.floats(0, 1),
    "beta": st.sampled_from([0.99, 1.0]) | st.floats(0, 1),
    "graph1": _EDGE_TEXT, "graph2": _EDGE_TEXT,
}


@st.composite
def _bundles(draw):
    """Bundles of a known, unknown or non-string ``type``, or of none, whose
    fields are plausible but for up to two, each of any JSON kind or absent."""
    bundle = {"version": 1}
    kind = draw(_mostly(st.sampled_from(["psgi", None, "gi_clifford", "gi_lowrank",
                                         "gi_bosonic", "msgi", "mixed_hsp", "state_hsp"]),
                        st.text(max_size=4) | _JSON))
    if kind is not None:
        bundle["type"] = kind
    wrong = draw(st.sets(st.sampled_from(sorted(_BUNDLE_FIELDS)), max_size=2))
    for key, plausible in _BUNDLE_FIELDS.items():
        if key not in wrong:
            bundle[key] = draw(plausible)
        elif draw(st.booleans()):
            bundle[key] = draw(_JSON)
    return bundle


_COUNT = st.integers(-2, 3)
_OPTION_RUNS = st.one_of(
    st.tuples(st.just(("psgi",)), st.tuples(
        st.just("--n"), st.integers(-1, 5) | st.sampled_from([7, 13, 2**40]),
        st.just("--kind"), st.sampled_from(["yes", "no"]), st.just("--seed"), _COUNT)),
    st.tuples(st.just(("protocol", "qcszk")), st.tuples(
        st.just("--n"), st.integers(-1, 3) | st.sampled_from([7, 2**40]),
        st.just("--trials"), _COUNT, st.just("--shadows"),
        st.integers(-2, 40) | st.sampled_from([10**9, 2**70]))),
    st.tuples(st.just(("protocol", "qszk-mixed")), st.tuples(
        st.just("--k"), st.integers(-1, 3) | st.sampled_from([6, 10**8]),
        st.just("--trials"), _COUNT)),
    st.tuples(st.just(("bosonic", "tv-gap", "c.json", "c.json")), st.tuples(
        st.just("--samples"), _COUNT)),
)


class TestExitContractFuzz:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(bundle=_bundles())
    @example(bundle={"version": 1, "type": 3, "psi1": _STATE1, "psi2": _STATE1})
    @example(bundle={"version": 1, "type": "gi_clifford", "graph1": "3\n0 1\n",
                     "graph2": "3\n1 2\n"})
    def test_bundles(self, bundle):
        runner = CliRunner()
        with runner.isolated_filesystem():
            with open("bundle.json", "w") as fh:
                json.dump(bundle, fh)
            for args in (["psgi", "--instance", "bundle.json", "--sweep-count", "20"],
                         ["reduce", "psgi-statehsp", "bundle.json"]):
                _assert_exit_contract(runner.invoke(main, args))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(text1=_EDGE_TEXT, text2=_EDGE_TEXT)
    @example(text1="4\n0 1\n1 2\n2 3\n", text2="4\n0 1\n0 2\n0 3\n")
    def test_edge_lists(self, text1, text2):
        runner = CliRunner()
        with runner.isolated_filesystem():
            for name, text in (("g1.txt", text1), ("g2.txt", text2)):
                with open(name, "w") as fh:
                    fh.write(text)
            with open("bundle.json", "w") as fh:
                json.dump({"version": 1, "type": "gi_clifford",
                           "graph1": text1, "graph2": text2}, fh)
            for args in (["reduce", "gi-clifford", "g1.txt", "g2.txt"],
                         ["reduce", "gi-lowrank", "g1.txt", "g2.txt"],
                         ["bosonic", "encode", "g1.txt"],
                         ["psgi", "--instance", "bundle.json", "--sweep-count", "20"]):
                _assert_exit_contract(runner.invoke(main, args))

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(run=_OPTION_RUNS)
    @example(run=(("psgi",), ("--n", 2, "--kind", "no", "--seed", 2)))
    @example(run=(("protocol", "qcszk"), ("--n", 2, "--trials", 1, "--shadows", 10)))
    def test_numeric_options(self, run):
        command, options = run
        runner = CliRunner()
        with runner.isolated_filesystem():
            core = Graph.path(3).to_edge_list_text()
            with open("g.txt", "w") as fh:
                fh.write(core)
            assert runner.invoke(main, ["bosonic", "encode", "g.txt", "--out", "c.json"]
                                 ).exit_code == 0
            _assert_exit_contract(runner.invoke(main, [*command, *map(str, options)]))


class TestDeterminism:
    def test_psgi_output_reproducible(self, runner):
        args = ["psgi", "--n", "2", "--kind", "yes", "--seed", "9"]
        a = runner.invoke(main, args).output
        b = runner.invoke(main, args).output
        assert a == b

    def test_qcszk_stdout_pinned(self, runner):
        # rows recorded before the Clifford action was factored as F1 H_S F2;
        # the shadows read batch_unitaries, so they pin its bits end to end
        res = runner.invoke(main, ["protocol", "qcszk", "--trials", "4", "--shadows", "100",
                                   "--seed", "7"])
        assert res.exit_code == 0
        assert res.stdout.splitlines() == [
            '{"accept_rate": 0.25, "accepts": 1, "instance": "isomorphic", "trials": 4, '
            '"wilson_high": 0.6993639475573634, "wilson_low": 0.045586062644636216}',
            '{"accept_rate": 1.0, "accepts": 4, "instance": "non-isomorphic", "trials": 4, '
            '"wilson_high": 1.0, "wilson_low": 0.5100999795960008}',
        ]

    def test_qszk_mixed_stdout_pinned(self, runner):
        # rows recorded while k_twirl's output still went through the eigenvalue
        # check; the alpha-far distance re-recorded with BLAS on one thread, the
        # CLI's default (its last digit differs under a threaded BLAS)
        res = runner.invoke(main, ["protocol", "qszk-mixed", "--k", "4", "--trials", "20",
                                   "--seed", "3"])
        assert res.exit_code == 0
        assert res.stdout.splitlines() == [
            '{"accept_rate": 0.55, "accepts": 11, "instance": "isomorphic", "trials": 20, '
            '"twirled_distance": 0.0, "wilson_high": 0.7418049791429071, '
            '"wilson_low": 0.3420820083075997}',
            '{"accept_rate": 1.0, "accepts": 20, "instance": "alpha-far", "trials": 20, '
            '"twirled_distance": 0.992061459137966, "wilson_high": 1.0, '
            '"wilson_low": 0.8388698745050667}',
        ]

    def test_trace_transfer_stdout_pinned(self, runner):
        # recorded while the involution h was found by scanning the group for
        # the first non-identity element that squares to the identity; that
        # scan picked (0, 0, 1), Z on qubit 0, which the document now names
        res = runner.invoke(main, ["verify", "trace-transfer", "--count", "50",
                                   "--seed", "5"])
        assert res.exit_code == 0
        assert res.stdout == ('{\n  "count": 50,\n  "h": "(0, 0, 1)",\n  "passed": true,\n'
                              '  "version": 1,\n  "worst_gap": 1.3322676295501878e-15\n}\n')

    @pytest.mark.parametrize("args, stdout", [
        (["psgi", "--quantum", "--same-state", "--n", "2", "--seed", "1"],
         '{\n  "achieved_overlap": [\n    1.0,\n    0.0\n  ],\n  "decision": "YES",\n'
         '  "version": 1,\n  "witness": "identity"\n}\n'),
        (["psgi", "--quantum", "--kind", "yes", "--n", "2", "--seed", "0"],
         '{\n  "achieved_overlap": [\n    0.9999999999999998,\n    -0.0\n  ],\n'
         '  "decision": "YES",\n  "version": 1,\n  "witness": "(2, 2, 0)"\n}\n'),
    ], ids=["same-state-n2-seed1", "yes-n2-seed0"])
    def test_quantum_stdout_pinned(self, runner, args, stdout):
        # recorded when the solver applied one dense Pauli per label
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        assert res.stdout == stdout

    def test_version_flag(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0


def _leaf_commands(group, prefix=()):
    """(name, command) of every leaf command under ``group``."""
    for name, cmd in group.commands.items():
        if isinstance(cmd, click.Group):
            yield from _leaf_commands(cmd, prefix + (name,))
        else:
            yield " ".join(prefix + (name,)), cmd


class TestConfigLine:
    def test_every_command_announces_every_parameter(self, runner, tmp_path):
        graph = _write_graph(tmp_path / "g.txt", Graph.path(3))
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(DensityMatrix(1, np.diag([0.75, 0.25]).astype(complex)).to_obj()))
        state = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
        bundle = tmp_path / "psgi.json"
        bundle.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": state,
                                      "psi2": state, "group": {"type": "cyclic", "N": 2,
                                                               "rep": "shift"},
                                      "alpha": 0.6, "beta": 0.99}))
        core = str(tmp_path / "core.json")
        assert runner.invoke(main, ["bosonic", "encode", graph, "--out", core]).exit_code == 0
        unitary = tmp_path / "u.json"
        unitary.write_text(json.dumps({"n": 3, "matrix": [[[float(i == j), 0.0] for j in range(3)]
                                                          for i in range(3)]}))
        cheap = {
            "psgi": ["--n", "1"],
            "reduce gi-clifford": [graph, graph],
            "reduce gi-lowrank": [graph, graph],
            "reduce gi-bosonic": [graph, graph],
            "reduce qsd-msgi": [str(rho), str(rho)],
            "reduce qsd-mixedhsp": [str(rho), str(rho)],
            "reduce psgi-statehsp": [str(bundle)],
            "verify lemma-perm": ["--n", "1"],
            "verify twirl-bound": ["--instances", "1"],
            "verify helper-gapped-cv": ["--count", "1"],
            "verify trace-transfer": ["--count", "1"],
            "verify shadow-unbiased": [],
            "protocol qcszk": ["--trials", "1", "--shadows", "10"],
            "protocol qszk-mixed": ["--trials", "1", "--k", "1"],
            "protocol szk-lowrank": ["--trials", "1"],
            "bosonic encode": [graph],
            "bosonic apply": [core, str(unitary)],
            "bosonic overlap": [core, core],
            "bosonic optimize": [core, core, "--restarts", "1"],
            "bosonic tv-gap": [core, core, "--samples", "1"],
        }
        leaves = dict(_leaf_commands(main))
        assert sorted(leaves) == sorted(cheap)
        for name, cmd in leaves.items():
            res = runner.invoke(main, name.split() + cheap[name])
            assert res.exit_code in (0, 1), (name, res.output)
            first = res.stderr.splitlines()[0]
            assert first.startswith("config: "), (name, first)
            config = json.loads(first[len("config: "):])
            assert config["command"] == name
            assert set(config) == {"command"} | {p.name for p in cmd.params}, name


def _python(code, cwd, blas=None):
    """A fresh interpreter running ``code`` on this checkout's sources; given
    ``blas``, its BLAS thread variables are exactly those."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("STATEISO_OUT_DIR", None)
    if blas is not None:
        for var in cli._BLAS_THREAD_VARS:
            env.pop(var, None)
        env.update(blas)
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestBlasThreadPolicy:
    """The CLI runs BLAS on one thread unless the environment names a count."""

    SHOW = ("import os, stateiso.cli; "
            "print([os.environ.get(v) for v in stateiso.cli._BLAS_THREAD_VARS])")

    def test_seeded_stdout_does_not_follow_the_core_count(self, tmp_path):
        # the installed `stateiso` command runs exactly this
        run = ("from stateiso.cli import main; "
               "main(['protocol', 'qszk-mixed', '--k', '4', '--trials', '20', '--seed', '3'])")
        unset = _python(run, tmp_path, blas={})
        one = _python(run, tmp_path, blas={"OPENBLAS_NUM_THREADS": "1"})
        assert unset.returncode == one.returncode == 0, unset.stderr + one.stderr
        assert unset.stdout == one.stdout
        assert "0.992061459137966," in one.stdout

    def test_unset_variables_are_set_to_one(self, tmp_path):
        proc = _python(self.SHOW, tmp_path, blas={})
        assert proc.stdout.split("\n")[0] == "['1', '1', '1']", proc.stderr

    def test_a_thread_count_the_user_sets_is_kept(self, tmp_path):
        proc = _python(self.SHOW, tmp_path, blas={"OPENBLAS_NUM_THREADS": "3"})
        assert proc.stdout.split("\n")[0] == "['3', None, None]", proc.stderr

    def test_left_alone_once_numpy_is_loaded(self, tmp_path):
        # numpy's BLAS is set up by then: the variables would reach only children
        proc = _python("import numpy; " + self.SHOW, tmp_path, blas={})
        assert proc.stdout.split("\n")[0] == "[None, None, None]", proc.stderr


class TestNoNetworkx:
    """networkx is a test-only dependency: the program never imports it."""

    def test_imports_skip_networkx(self, tmp_path):
        proc = _python("import sys, stateiso.cli, stateiso.reductions, stateiso.bosonic; "
                       "assert 'networkx' not in sys.modules", tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_gi_clifford_bundles_decide_without_networkx(self, runner, tmp_path):
        # with networkx unimportable a YES bundle still exits 0 and a NO bundle 1
        p4 = Graph.path(4)
        for name, g2, want in (("yes", p4.relabel((2, 0, 3, 1)), 0),
                               ("no", Graph.star(4), 1)):
            (tmp_path / name).mkdir()
            bundle = _gi_clifford_bundle(runner, tmp_path / name, p4, g2)
            proc = _python("import sys; sys.modules['networkx'] = None; "
                           "from stateiso.cli import main; "
                           f"main(['psgi', '--instance', {bundle!r}])", tmp_path)
            assert proc.returncode == want, proc.stderr


class TestImportFootprint:
    """Each command imports only the library modules it runs."""

    @staticmethod
    def _loaded(args, cwd):
        """The stateiso modules of a fresh interpreter after ``import
        stateiso.cli`` and, unless args is None, that command."""
        run = "" if args is None else (
            f"try:\n    stateiso.cli.main({args!r})\nexcept SystemExit:\n    pass\n")
        proc = _python("import sys\nimport stateiso.cli\n" + run + "print(' '.join(sorted("
                       "m.removeprefix('stateiso.') for m in sys.modules "
                       "if m.startswith('stateiso.'))))", cwd)
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.splitlines()[-1].split())

    @pytest.mark.parametrize("args", [None, ["--version"]])
    def test_import_and_version_load_only_cli(self, tmp_path, args):
        assert self._loaded(args, tmp_path) == {"cli"}

    def test_bosonic_encode_skips_the_clifford_stack(self, tmp_path):
        g = _write_graph(tmp_path / "g.txt", Graph.path(4))
        assert self._loaded(["bosonic", "encode", g], tmp_path) == {
            "cli", "bosonic", "graphs", "linalg", "obs"}

    @pytest.mark.parametrize("args", [["protocol", "qcszk", "--trials", "1", "--shadows", "10"],
                                      ["verify", "shadow-unbiased"]],
                             ids=["qcszk", "shadow-unbiased"])
    def test_shadow_commands_skip_reductions(self, tmp_path, args):
        loaded = self._loaded(args, tmp_path)
        assert "protocols" in loaded
        assert "reductions" not in loaded

    def test_protocols_loads_only_its_kernels(self, tmp_path):
        proc = _python("import sys\nimport stateiso.protocols\nprint(' '.join(sorted("
                       "m.removeprefix('stateiso.') for m in sys.modules "
                       "if m.startswith('stateiso.'))))", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert set(proc.stdout.split()) == {"protocols", "groups", "linalg", "paulis", "obs"}

    def test_psgi_skips_reductions_protocols_and_bosonic(self, tmp_path):
        loaded = self._loaded(["psgi", "--n", "2", "--kind", "no"], tmp_path)
        assert "psgi" in loaded
        assert not loaded & {"reductions", "protocols", "bosonic"}
