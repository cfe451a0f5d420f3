"""Batch command-line front end.

Exit codes: 0 = YES decision (or all checks passed), 1 = NO decision (or a
check failed), 2 = configuration error, 3 = promise violation.
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import __version__
from .bosonic import (
    CoreState,
    ModeUnitary,
    apply_linear_optical,
    core_overlap,
    cubic_overlap,
    encode_graph_bosonic,
    estimate_tv_gap,
    nearest_permutation_phase,
    optimize_overlap,
    perturbed_permutation_unitary,
)
from .graphs import Graph, find_isomorphism
from .groups import (
    DecisionThresholds,
    check_twirl_fidelity_bound,
    group_from_spec,
    pauli_group,
)
from .linalg import DensityMatrix, StateVector, random_density
from .paulis import batch_unitaries, clifford_batches
from .protocols import (
    qcszk_context,
    qcszk_round,
    qszk_mixed_context,
    qszk_mixed_round,
    run_trials,
    szk_lowrank_context,
    szk_lowrank_round,
    write_summary_csv,
)
from .psgi import (
    PsgiInstance,
    pauli_psgi_quantum,
    psgi_oracle,
    random_pauli_psgi_instance,
    random_state,
)
from .reductions import (
    clifford_overlap_sweep,
    gi_to_clifford,
    lowrank_gi_instance,
    lowrank_thresholds,
    qsd_to_mixed_hsp,
    qsd_to_msgi,
    trace_distance_transfer,
    verify_lemma_perm,
)
from .psgi import psgi_to_statehsp

SCHEMA_VERSION = 1

EXIT_YES = 0
EXIT_NO = 1
EXIT_CONFIG = 2
EXIT_PROMISE = 3

# Work allowed for the NO-side sweep of a gi_clifford bundle, in entries of
# the Clifford action (count * n * 2^n).  Sweeps cost about 40 ns per entry
# at n = 9..13 (2 vCPUs, numpy 2.4), so this is about a minute.
SWEEP_ENTRY_BUDGET = 1_500_000_000


@dataclass
class ExperimentConfig:
    command: str
    inputs: list = field(default_factory=list)
    output: str = ""
    seed: int = 0
    params: dict = field(default_factory=dict)

    def announce(self):
        click.echo("config: " + json.dumps({
            "command": self.command, "inputs": self.inputs,
            "output": self.output, "seed": self.seed, **self.params,
        }, sort_keys=True), err=True)


def _resolve_out(out: str) -> str:
    base = os.environ.get("STATEISO_OUT_DIR")
    if out and base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _np_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(obj: dict, out: str):
    text = json.dumps(obj, indent=2, sort_keys=True, default=_np_default)
    if out:
        with open(_resolve_out(out), "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {_resolve_out(out)}", err=True)
    else:
        click.echo(text)


def _read_text(path: str) -> str:
    if not os.path.exists(path):
        _config_error(f"input file not found: {path}")
    with open(path) as fh:
        return fh.read()


def _read_json(path: str) -> dict:
    obj = json.loads(_read_text(path))
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _field(bundle: dict, key: str, kind, what: str):
    """bundle[key], refused unless it is of the JSON kind ``what``."""
    value = bundle[key]
    if not isinstance(value, kind):
        raise ValueError(f"bundle field {key!r} must be {what}, got {type(value).__name__}")
    return value


def _read_graph(path: str) -> Graph:
    return Graph.from_edge_list_text(_read_text(path))


def _read_core(path: str) -> CoreState:
    return CoreState.from_json(_read_text(path))


def _state_obj(psi: StateVector) -> dict:
    return json.loads(psi.to_json())


def _density_obj(rho: DensityMatrix) -> dict:
    return json.loads(rho.to_json())


def _unitary_obj(u: ModeUnitary) -> dict:
    return {"n": u.dim,
            "matrix": [[[z.real, z.imag] for z in row] for row in u.matrix]}


def _unitary_from_obj(obj: dict) -> ModeUnitary:
    m = np.array([[complex(re, im) for re, im in row] for row in obj["matrix"]])
    return ModeUnitary(int(obj["n"]), m)


def _config_error(msg: str):
    click.echo(f"config error: {msg}", err=True)
    sys.exit(EXIT_CONFIG)


class _ConfigErrorBoundary(click.Group):
    """Root group that turns malformed input into exit 2 for every command.

    Library errors are ValueError subclasses (JSON decode errors among
    them); a bundle or spec without a required field raises KeyError, an
    out-of-range index IndexError, and an input or ``--out`` path that
    cannot be opened OSError.  None of them may surface as a traceback
    with exit 1, which would read as a NO decision.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KeyError as exc:
            _config_error(f"missing field {exc}")
        except (ValueError, IndexError, OSError) as exc:
            _config_error(str(exc))


@click.group(cls=_ConfigErrorBoundary)
@click.version_option(__version__)
def main():
    """State-isomorphism simulation toolkit.

    Exit codes: 0 YES / all-pass, 1 NO / check failed, 2 config error,
    3 promise violation.
    """


# ----------------------------------------------------------------------
# psgi
# ----------------------------------------------------------------------

@main.command("psgi")
@click.option("--instance", "instance_path", type=str, default=None,
              help="Instance bundle JSON (from `reduce`).")
@click.option("--oracle/--quantum", "use_oracle", default=True,
              help="Exact orbit scan vs the character-sampling solver.")
@click.option("--group", default="pauli", show_default=True)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--same-state", is_flag=True, help="psi1 = psi2 (trivial YES).")
@click.option("--kind", type=click.Choice(["yes", "no"]), default="yes",
              show_default=True, help="Random instance kind when built from flags.")
@click.option("--alpha", type=float, default=0.6, show_default=True)
@click.option("--beta", type=float, default=0.99, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--copies", type=int, default=2, show_default=True)
@click.option("--shot-mode", is_flag=True)
@click.option("--shots", type=int, default=4096, show_default=True)
@click.option("--sweep-count", type=int, default=20000, show_default=True,
              help="Random Cliffords for the NO side of gi_clifford bundles.")
@click.option("--out", default="", help="Output JSON path (default stdout).")
def cmd_psgi(instance_path, use_oracle, group, n_qubits, same_state, kind,
             alpha, beta, seed, copies, shot_mode, shots, sweep_count, out):
    """Decide a state-isomorphism instance; exit 0 YES / 1 NO / 3 violated."""
    cfg = ExperimentConfig("psgi", [p for p in [instance_path] if p], out, seed,
                           {"oracle": use_oracle, "group": group, "n": n_qubits})
    cfg.announce()
    if instance_path:
        bundle = _read_json(instance_path)
        if bundle.get("type") == "gi_clifford":
            _run_gi_clifford_bundle(bundle, sweep_count, seed, out)
            return
        inst = _psgi_from_bundle(bundle)
    else:
        thresholds = DecisionThresholds(alpha, beta)
        rep = group_from_spec({"type": group, "n": n_qubits})
        rng = np.random.default_rng(seed)
        if same_state:
            psi = random_state(n_qubits, rng)
            inst = PsgiInstance(psi, psi, rep, thresholds)
        else:
            inst = random_pauli_psgi_instance(n_qubits, thresholds, kind, rng,
                                              rep=rep)
    if use_oracle:
        verdict = psgi_oracle(inst)
    else:
        verdict = pauli_psgi_quantum(inst, m=copies, seed=seed,
                                     shot_mode=shot_mode, shots=shots)
    witness = verdict.witness
    if witness is not None and witness == inst.rep.identity:
        witness_text = "identity"
    else:
        witness_text = None if witness is None else repr(witness)
    _emit({
        "version": SCHEMA_VERSION,
        "decision": verdict.decision,
        "witness": witness_text,
        "achieved_overlap": [verdict.achieved_overlap.real,
                             verdict.achieved_overlap.imag],
    }, out)
    sys.exit(_decision_code(verdict.decision))


def _decision_code(decision: str) -> int:
    if decision == "YES":
        return EXIT_YES
    if decision == "NO":
        return EXIT_NO
    return EXIT_PROMISE


def _psgi_from_bundle(bundle: dict) -> PsgiInstance:
    psi1 = StateVector.from_json(json.dumps(_field(bundle, "psi1", dict, "an object")))
    psi2 = StateVector.from_json(json.dumps(_field(bundle, "psi2", dict, "an object")))
    rep = group_from_spec(_field(bundle, "group", dict, "an object"))
    thresholds = DecisionThresholds(_field(bundle, "alpha", (int, float), "a number"),
                                    _field(bundle, "beta", (int, float), "a number"))
    return PsgiInstance(psi1, psi2, rep, thresholds)


def _run_gi_clifford_bundle(bundle: dict, sweep_count: int, seed: int, out: str):
    g1 = Graph.from_edge_list_text(_field(bundle, "graph1", str, "a string"))
    g2 = Graph.from_edge_list_text(_field(bundle, "graph2", str, "a string"))
    inst = gi_to_clifford(g1, g2)
    if hasattr(inst, "decision"):        # mismatched counts: immediate NO
        _emit({"version": SCHEMA_VERSION, "decision": "NO", "witness": None,
               "achieved_overlap": [0.0, 0.0]}, out)
        sys.exit(EXIT_NO)
    perm = find_isomorphism(g1, g2)
    if perm is not None:
        witness = inst.permutation_witness()
        overlap = inst.overlap(witness)
        _emit({"version": SCHEMA_VERSION, "decision": "YES",
               "witness": repr(witness),
               "achieved_overlap": [overlap.real, overlap.imag]}, out)
        sys.exit(EXIT_YES)
    work = sweep_count * inst.n_qubits << inst.n_qubits
    if work > SWEEP_ENTRY_BUDGET:
        _config_error(f"a {sweep_count}-Clifford sweep on {inst.n_qubits} qubits is "
                      f"{work:.2e} action entries, over the {SWEEP_ENTRY_BUDGET:.1e} budget; "
                      f"lower --sweep-count")
    sweep = clifford_overlap_sweep(inst.psi1, inst.psi2, sweep_count, seed,
                                   inst.thresholds.alpha)
    _emit({"version": SCHEMA_VERSION, "decision": "NO", "witness": None,
           "achieved_overlap": [sweep["max_overlap"], 0.0],
           "sweep": sweep}, out)
    sys.exit(EXIT_NO)


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

@main.group("reduce")
def cmd_reduce():
    """Build instance bundles from graphs or density matrices."""


@cmd_reduce.command("gi-clifford")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
@click.option("--out", default="", help="Bundle path (default stdout).")
def reduce_gi_clifford(graph1, graph2, out):
    ExperimentConfig("reduce gi-clifford", [graph1, graph2], out).announce()
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    inst = gi_to_clifford(g1, g2)
    bundle = {
        "version": SCHEMA_VERSION, "type": "gi_clifford",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
    }
    if hasattr(inst, "decision"):
        bundle["note"] = "vertex or edge counts differ; instance is NO"
    else:
        bundle["psi1"] = _state_obj(inst.psi1)
        bundle["psi2"] = _state_obj(inst.psi2)
        bundle["alpha"] = inst.thresholds.alpha
        bundle["beta"] = inst.thresholds.beta
    _emit(bundle, out)


@cmd_reduce.command("gi-lowrank")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
@click.option("--graph-weight", type=float, default=None,
              help="Override the graph-component weight b.")
@click.option("--out", default="")
def reduce_gi_lowrank(graph1, graph2, graph_weight, out):
    ExperimentConfig("reduce gi-lowrank", [graph1, graph2], out).announce()
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    result = lowrank_gi_instance(g1, g2, graph_weight=graph_weight)
    if hasattr(result, "decision"):
        _emit({"version": SCHEMA_VERSION, "type": "gi_lowrank",
               "note": "vertex or edge counts differ; instance is NO"}, out)
        return
    lr1, lr2, thresholds = result
    _emit({
        "version": SCHEMA_VERSION, "type": "gi_lowrank",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
        "psi1": _state_obj(lr1.materialize()),
        "psi2": _state_obj(lr2.materialize()),
        "rank_bound": lr1.rank_bound,
        "alpha": thresholds.alpha, "beta": thresholds.beta,
    }, out)


@cmd_reduce.command("gi-bosonic")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
@click.option("--out", default="")
def reduce_gi_bosonic(graph1, graph2, out):
    ExperimentConfig("reduce gi-bosonic", [graph1, graph2], out).announce()
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    c1, c2 = encode_graph_bosonic(g1), encode_graph_bosonic(g2)
    thresholds = lowrank_thresholds(g1.n)
    _emit({
        "version": SCHEMA_VERSION, "type": "gi_bosonic",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
        "core1": json.loads(c1.to_json()), "core2": json.loads(c2.to_json()),
        "alpha": thresholds.alpha, "beta": thresholds.beta,
    }, out)


@cmd_reduce.command("qsd-msgi")
@click.argument("sigma1", type=str)
@click.argument("sigma2", type=str)
@click.option("--group", default="pauli", show_default=True)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def reduce_qsd_msgi(sigma1, sigma2, group, n_qubits, seed, out):
    ExperimentConfig("reduce qsd-msgi", [sigma1, sigma2], out, seed).announce()
    s1 = DensityMatrix.from_json(_read_text(sigma1))
    s2 = DensityMatrix.from_json(_read_text(sigma2))
    rep = group_from_spec({"type": group, "n": n_qubits})
    inst = qsd_to_msgi(s1, s2, rep, seed)
    _emit({
        "version": SCHEMA_VERSION, "type": "msgi",
        "sigma1": _density_obj(inst.sigma1), "sigma2": _density_obj(inst.sigma2),
        "group": {"type": group, "n": n_qubits},
        "alpha": inst.thresholds.alpha, "beta": inst.thresholds.beta,
        "seed": seed, "diagnostics": inst.diagnostics,
    }, out)


@cmd_reduce.command("qsd-mixedhsp")
@click.argument("sigma1", type=str)
@click.argument("sigma2", type=str)
@click.option("--group", default="pauli", show_default=True)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--h-index", type=int, default=1, show_default=True,
              help="Index of the involution h in the group's element list.")
@click.option("--out", default="")
def reduce_qsd_mixedhsp(sigma1, sigma2, group, n_qubits, h_index, out):
    ExperimentConfig("reduce qsd-mixedhsp", [sigma1, sigma2], out).announce()
    s1 = DensityMatrix.from_json(_read_text(sigma1))
    s2 = DensityMatrix.from_json(_read_text(sigma2))
    rep = group_from_spec({"type": group, "n": n_qubits})
    h = rep.elements[h_index]
    inst = qsd_to_mixed_hsp(s1, s2, rep, h)
    lhs, rhs = trace_distance_transfer(inst, s1, s2)
    _emit({
        "version": SCHEMA_VERSION, "type": "mixed_hsp",
        "rho": _density_obj(inst.rho),
        "group": {"type": group, "n": n_qubits}, "h": repr(h),
        "transfer_lhs": lhs, "transfer_rhs": rhs,
    }, out)


@cmd_reduce.command("psgi-statehsp")
@click.argument("instance", type=str)
@click.option("--copies", type=int, default=1, show_default=True)
@click.option("--out", default="")
def reduce_psgi_statehsp(instance, copies, out):
    ExperimentConfig("reduce psgi-statehsp", [instance], out).announce()
    inst = _psgi_from_bundle(_read_json(instance))
    phi, rep, bounds = psgi_to_statehsp(inst, m=copies)
    _emit({
        "version": SCHEMA_VERSION, "type": "state_hsp",
        "phi": _state_obj(phi), "group_order": rep.order,
        "bounds": bounds,
    }, out)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _finish_report(report: dict, out: str):
    _emit(report, out)
    sys.exit(EXIT_YES if report["passed"] else EXIT_NO)


@main.group("verify")
def cmd_verify():
    """Property checks; exit 0 on all-pass, 1 on failure."""


@cmd_verify.command("lemma-perm")
@click.option("--n", "n_qubits", type=int, default=2, show_default=True)
@click.option("--exhaustive/--sampled", default=True, show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threshold", type=float, default=0.9999, show_default=True)
@click.option("--out", default="")
def verify_lemma_perm_cmd(n_qubits, exhaustive, samples, seed, threshold, out):
    ExperimentConfig("verify lemma-perm", [], out, seed,
                     {"n": n_qubits, "exhaustive": exhaustive}).announce()
    report = verify_lemma_perm(n_qubits,
                               mode="exhaustive" if exhaustive else "sampled",
                               samples=samples, seed=seed, threshold=threshold)
    report["passed"] = not report["violations"]
    _finish_report(report, out)


@cmd_verify.command("twirl-bound")
@click.option("--instances", type=int, default=100, show_default=True)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def verify_twirl_bound(instances, n_qubits, seed, out):
    ExperimentConfig("verify twirl-bound", [], out, seed,
                     {"instances": instances, "n": n_qubits}).announce()
    rep = pauli_group(n_qubits)
    rng = np.random.default_rng(seed)
    dim = rep.dim
    min_slack = math.inf
    failures = 0
    for _ in range(instances):
        rho = random_density(dim, rng)
        sigma = random_density(dim, rng)
        rpt = check_twirl_fidelity_bound(rep, rho, sigma)
        min_slack = min(min_slack, rpt.slack)
        failures += not rpt.satisfied
    _finish_report({
        "version": SCHEMA_VERSION, "instances": instances,
        "min_slack": min_slack, "failures": failures, "passed": failures == 0,
    }, out)


@cmd_verify.command("helper-gapped-cv")
@click.option("--count", type=int, default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def verify_helper_gapped_cv(count, seed, out):
    """Residual bound ||V - PD||_F <= sqrt(3 n delta) in the delta regime."""
    ExperimentConfig("verify helper-gapped-cv", [], out, seed,
                     {"count": count}).announce()
    rng = np.random.default_rng(seed)
    checked = 0
    worst_margin = -math.inf
    failures = 0
    while checked < count:
        n = int(rng.integers(2, 6))
        v = perturbed_permutation_unitary(rng, n, 0.25 / n)
        delta = 1 - cubic_overlap(v).real
        if not 0 <= delta < 0.38 / n:
            continue
        proj = nearest_permutation_phase(v)
        if proj.collision:
            continue
        checked += 1
        bound = math.sqrt(3 * n * delta)
        worst_margin = max(worst_margin, proj.residual - bound)
        failures += proj.residual > bound + 1e-9
    _finish_report({
        "version": SCHEMA_VERSION, "count": checked,
        "worst_margin": worst_margin, "failures": failures,
        "passed": failures == 0,
    }, out)


@cmd_verify.command("trace-transfer")
@click.option("--count", type=int, default=200, show_default=True)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def verify_trace_transfer(count, n_qubits, seed, out):
    ExperimentConfig("verify trace-transfer", [], out, seed,
                     {"count": count, "n": n_qubits}).announce()
    rep = pauli_group(n_qubits)
    rng = np.random.default_rng(seed)
    # an involution that is not central: the first X-type generator
    h = next(g for g in rep.elements
             if not np.allclose(rep.unitary(g), np.eye(rep.dim))
             and np.allclose(rep.unitary(g) @ rep.unitary(g), np.eye(rep.dim)))
    worst = 0.0
    for _ in range(count):
        s1 = random_density(rep.dim, rng)
        s2 = random_density(rep.dim, rng)
        inst = qsd_to_mixed_hsp(s1, s2, rep, h)
        lhs, rhs = trace_distance_transfer(inst, s1, s2)
        worst = max(worst, abs(lhs - rhs))
    _finish_report({
        "version": SCHEMA_VERSION, "count": count, "worst_gap": worst,
        "passed": worst <= 1e-7,
    }, out)


@cmd_verify.command("shadow-unbiased")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def verify_shadow_unbiased(seed, out):
    """Exact single-shadow expectation at one qubit by full enumeration."""
    ExperimentConfig("verify shadow-unbiased", [], out, seed).announce()
    rng = np.random.default_rng(seed)
    units = batch_unitaries(next(clifford_batches(1, 24)))
    worst = 0.0
    for _ in range(20):
        psi = random_state(1, rng)
        phi = random_state(1, rng)
        expect = 0.0
        for u in units:
            rot_psi = u @ psi.amplitudes
            rot_phi = u @ phi.amplitudes
            for b in range(2):
                p = abs(rot_psi[b]) ** 2
                expect += p * (3 * abs(rot_phi[b]) ** 2 - 1) / 24
        true = abs(np.vdot(phi.amplitudes, psi.amplitudes)) ** 2
        worst = max(worst, abs(expect - true))
    _finish_report({
        "version": SCHEMA_VERSION, "cases": 20, "worst_bias": worst,
        "passed": worst <= 1e-10,
    }, out)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

def _emit_protocol(rows: list, out: str):
    for row in rows:
        click.echo(json.dumps(row, sort_keys=True))
    if out:
        write_summary_csv(_resolve_out(out), rows)
        click.echo(f"wrote {_resolve_out(out)}", err=True)


@main.group("protocol")
def cmd_protocol():
    """Round-level protocol statistics on bundled instances."""


@cmd_protocol.command("qcszk")
@click.option("--trials", type=int, default=500, show_default=True)
@click.option("--shadows", type=int, default=2000, show_default=True)
@click.option("--n", "n_qubits", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="", help="Summary CSV path.")
def protocol_qcszk(trials, shadows, n_qubits, seed, out):
    ExperimentConfig("protocol qcszk", [], out, seed,
                     {"trials": trials, "shadows": shadows}).announce()
    thresholds = DecisionThresholds(0.6, 0.99)
    rng = np.random.default_rng(seed)
    rows = []
    for label, kind in (("isomorphic", "yes"), ("non-isomorphic", "no")):
        inst = random_pauli_psgi_instance(n_qubits, thresholds, kind, rng)
        ctx = qcszk_context(inst)
        res = run_trials(
            lambda s: qcszk_round(inst, n_shadows=shadows, seed=s, context=ctx),
            trials, seed)
        rows.append({"instance": label, **res})
    _emit_protocol(rows, out)


@cmd_protocol.command("qszk-mixed")
@click.option("--trials", type=int, default=2000, show_default=True)
@click.option("--k", "k_copies", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def protocol_qszk_mixed(trials, k_copies, seed, out):
    from .reductions import MsgiInstance
    ExperimentConfig("protocol qszk-mixed", [], out, seed,
                     {"trials": trials, "k": k_copies}).announce()
    rep = pauli_group(2)
    thresholds = DecisionThresholds(0.6, 0.99)
    rng = np.random.default_rng(seed)
    s1 = random_density(rep.dim, rng)
    u = rep.unitary(rep.elements[len(rep.elements) // 2])
    iso = MsgiInstance(s1, DensityMatrix(2, u @ s1.matrix @ u.conj().T),
                       rep, thresholds)
    far = MsgiInstance(
        StateVector(2, np.array([1, 0, 0, 0], dtype=complex)).density(),
        StateVector(2, np.full(4, 0.5, dtype=complex)).density(),
        rep, thresholds)
    rows = []
    for label, inst in (("isomorphic", iso), ("alpha-far", far)):
        ctx = qszk_mixed_context(inst, k_copies)
        res = run_trials(
            lambda s: qszk_mixed_round(inst, k_copies, s, context=ctx),
            trials, seed)
        rows.append({"instance": label,
                     "twirled_distance": ctx["distance"], **res})
    _emit_protocol(rows, out)


@cmd_protocol.command("szk-lowrank")
@click.option("--trials", type=int, default=60, show_default=True)
@click.option("--gamma", type=float, default=0.05, show_default=True)
@click.option("--graph-weight", type=float, default=0.7, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def protocol_szk_lowrank(trials, gamma, graph_weight, seed, out):
    ExperimentConfig("protocol szk-lowrank", [], out, seed,
                     {"trials": trials, "gamma": gamma,
                      "graph_weight": graph_weight}).announce()
    g1 = Graph.path(4)
    pairs = (("isomorphic", g1.relabel((2, 0, 3, 1))),
             ("non-isomorphic", Graph.star(4)))
    rows = []
    for label, g2 in pairs:
        lr1, lr2, _ = lowrank_gi_instance(g1, g2, graph_weight=graph_weight)
        ctx = szk_lowrank_context(lr1, lr2)
        res = run_trials(
            lambda s: szk_lowrank_round(lr1, lr2, gamma, s, context=ctx),
            trials, seed)
        rows.append({"instance": label, **res})
    _emit_protocol(rows, out)


# ----------------------------------------------------------------------
# bosonic
# ----------------------------------------------------------------------

@main.group("bosonic")
def cmd_bosonic():
    """Few-photon core-state operations."""


@cmd_bosonic.command("encode")
@click.argument("graph", type=str)
@click.option("--out", default="")
def bosonic_encode(graph, out):
    ExperimentConfig("bosonic encode", [graph], out).announce()
    g = _read_graph(graph)
    _emit(json.loads(encode_graph_bosonic(g).to_json()), out)


@cmd_bosonic.command("apply")
@click.argument("state", type=str)
@click.argument("unitary", type=str)
@click.option("--method", type=click.Choice(["substitution", "permanent"]),
              default="substitution", show_default=True)
@click.option("--out", default="")
def bosonic_apply(state, unitary, method, out):
    ExperimentConfig("bosonic apply", [state, unitary], out,
                     params={"method": method}).announce()
    c = _read_core(state)
    v = _unitary_from_obj(_read_json(unitary))
    moved = apply_linear_optical(v, c, method=method)
    _emit(json.loads(moved.to_json()), out)


@cmd_bosonic.command("overlap")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
@click.option("--out", default="")
def bosonic_overlap(state1, state2, out):
    ExperimentConfig("bosonic overlap", [state1, state2], out).announce()
    ov = core_overlap(_read_core(state1), _read_core(state2))
    _emit({"version": SCHEMA_VERSION, "overlap": [ov.real, ov.imag],
           "abs": abs(ov)}, out)


@cmd_bosonic.command("optimize")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
@click.option("--restarts", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trace", "trace_path", default="", help="Per-restart CSV trace.")
@click.option("--out", default="")
def bosonic_optimize(state1, state2, restarts, seed, trace_path, out):
    ExperimentConfig("bosonic optimize", [state1, state2], out, seed,
                     {"restarts": restarts}).announce()
    v, best_abs, best_re = optimize_overlap(
        _read_core(state1), _read_core(state2), restarts=restarts, seed=seed,
        trace_file=_resolve_out(trace_path) or None)
    _emit({"version": SCHEMA_VERSION, "best_abs": best_abs, "best_re": best_re,
           "unitary": _unitary_obj(v)}, out)


@cmd_bosonic.command("tv-gap")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
@click.option("--sigma", type=float, default=0.02, show_default=True)
@click.option("--samples", type=int, default=40, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", default="")
def bosonic_tv_gap(state1, state2, sigma, samples, seed, out):
    ExperimentConfig("bosonic tv-gap", [state1, state2], out, seed,
                     {"sigma": sigma, "samples": samples}).announce()
    tv, diag = estimate_tv_gap(_read_core(state1), _read_core(state2), sigma,
                               samples, seed)
    _emit({"version": SCHEMA_VERSION, "tv_lower": tv, **diag}, out)


if __name__ == "__main__":
    main()
