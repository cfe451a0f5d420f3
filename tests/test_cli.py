import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from stateiso.cli import main
from stateiso.graphs import Graph
from stateiso.linalg import DensityMatrix


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

    def test_bad_thresholds_config_error(self, runner):
        res = runner.invoke(main, ["psgi", "--alpha", "0.9", "--beta", "0.5"])
        assert res.exit_code == 2

    def test_missing_instance_file(self, runner):
        res = runner.invoke(main, ["psgi", "--instance", "/nonexistent.json"])
        assert res.exit_code == 2


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
        p1.write_text(rho.to_json())
        p2.write_text(tau.to_json())
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

    def test_tv_gap_zero_samples_is_config_error(self, runner, tmp_path):
        ea, eb = self._encoded_pair(runner, tmp_path)
        res = runner.invoke(main, ["bosonic", "tv-gap", ea, eb, "--samples", "0"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "n_samples" in res.output and "Traceback" not in res.output


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
    pure.write_text(DensityMatrix(1, np.diag([1.0, 0.0]).astype(complex)).to_json())
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
    bad_states = {}
    for case, psi1 in (("amplitudes-number", {"n_qubits": 1, "amplitudes": 5}),
                       ("n-qubits-string", {"n_qubits": "one", "amplitudes": state["amplitudes"]}),
                       ("amplitude-string", {"n_qubits": 1, "amplitudes": [[1, 0], ["a", 0]]})):
        path = tmp_path / f"psi1_{case}.json"
        path.write_text(json.dumps({"version": 1, "type": "psgi", "psi1": psi1,
                                    "psi2": state, "group": {"type": "pauli", "n": 1},
                                    "alpha": 0.6, "beta": 0.99}))
        bad_states[f"psgi-bundle-psi1-{case}"] = ["psgi", "--instance", str(path)]
    return {
        **bad_states,
        **bad_cores,
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
    ])
    def test_malformed_input_exits_two(self, runner, tmp_path, case):
        args = _malformed_inputs(runner, tmp_path)[case]
        _assert_config_error(runner.invoke(main, args))

    @pytest.mark.parametrize("args", [
        ["protocol", "qcszk", "--n", "0", "--trials", "1", "--shadows", "10"],
        ["protocol", "qcszk", "--trials", "1", "--shadows", "0"],
        ["psgi", "--n", "0"],
        ["verify", "twirl-bound", "--n", "0", "--instances", "1"],
    ], ids=["qcszk-zero-qubits", "qcszk-zero-shadows", "psgi-zero-qubits",
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

    def test_out_into_missing_directory(self, runner, tmp_path):
        out = tmp_path / "missing" / "x.json"
        _assert_config_error(runner.invoke(main, ["psgi", "--n", "2", "--out", str(out)]))
        assert not out.exists()

    def test_tv_gap_nonpositive_sigma(self, runner, tmp_path):
        core = tmp_path / "c.json"
        g = _write_graph(tmp_path / "g.txt", Graph.path(4))
        runner.invoke(main, ["bosonic", "encode", g, "--out", str(core)])
        res = runner.invoke(main, ["bosonic", "tv-gap", str(core), str(core),
                                   "--samples", "1", "--sigma", "-1"])
        _assert_config_error(res)
        assert "sigma" in res.stderr


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

    def test_version_flag(self, runner):
        res = runner.invoke(main, ["--version"])
        assert res.exit_code == 0


class TestNoNetworkx:
    """networkx is a test-only dependency: the program never imports it."""

    @staticmethod
    def _python(code, cwd):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("STATEISO_OUT_DIR", None)
        return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_imports_skip_networkx(self, tmp_path):
        proc = self._python("import sys, stateiso.cli, stateiso.reductions, stateiso.bosonic; "
                            "assert 'networkx' not in sys.modules", tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_gi_clifford_bundles_decide_without_networkx(self, runner, tmp_path):
        # with networkx unimportable a YES bundle still exits 0 and a NO bundle 1
        p4 = Graph.path(4)
        for name, g2, want in (("yes", p4.relabel((2, 0, 3, 1)), 0),
                               ("no", Graph.star(4), 1)):
            (tmp_path / name).mkdir()
            bundle = _gi_clifford_bundle(runner, tmp_path / name, p4, g2)
            proc = self._python("import sys; sys.modules['networkx'] = None; "
                                "from stateiso.cli import main; "
                                f"main(['psgi', '--instance', {bundle!r}])", tmp_path)
            assert proc.returncode == want, proc.stderr
