"""Batch command-line front end.

Each command returns its document, and one command class writes it and
exits: 0 = YES decision (or all checks passed), 1 = NO decision (or a check
failed), 2 = configuration error, 3 = promise violation.
"""
from __future__ import annotations

import json
import math
import os
import sys

# stateiso's kernels work on small matrices, where a threaded BLAS costs more
# than it saves: its workers spin for ~0.1 s after start-up and after each
# threaded call, and the last bits of a seeded output follow the thread count.
# So the CLI runs BLAS on one thread unless the environment names a count.
# Once numpy is loaded its BLAS is set up, and the variables would reach only
# child processes, so they are then left alone.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

import click
import numpy as np

from . import __version__

# Each command imports the library modules it runs inside its own body, so
# that an invocation loads (and, with no bytecode cache, compiles) only those.

SCHEMA_VERSION = 1

EXIT_YES = 0
EXIT_NO = 1
EXIT_CONFIG = 2
EXIT_PROMISE = 3

# Work allowed for the NO-side sweep of a gi_clifford bundle, in entries of
# the Clifford action (count * n * 2^n).  Sweeps cost about 40 ns per entry
# at n = 9..13 (2 vCPUs, numpy 2.4), so this is about a minute.
SWEEP_ENTRY_BUDGET = 1_500_000_000


def _resolve_out(out: str) -> str:
    base = os.environ.get("STATEISO_OUT_DIR")
    if out and base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _np_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


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


def _read_graph(path: str):
    from .graphs import Graph
    return Graph.from_edge_list_text(_read_text(path))


def write_summary_csv(path: str, rows: list) -> None:
    """rows: list of dicts with instance, trials, accept_rate, CI bounds."""
    import csv
    fields = ["instance", "trials", "accepts", "accept_rate", "wilson_low", "wilson_high"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fields})


def _config_error(msg: str):
    click.echo(f"config error: {msg}", err=True)
    sys.exit(EXIT_CONFIG)


def _group_options(command):
    """``--group`` and its parameter ``--n``.  ``--group`` takes only the
    groups that ``--n`` alone builds; a bundle may name any group type."""
    command = click.option("--n", "n_qubits", type=int, default=1, show_default=True,
                           help="The group's parameter: pauli(n) and clifford(n) act on "
                           "n qubits, two_copy_pauli(n) on 2n.")(command)
    return click.option("--group", type=click.Choice(["pauli", "clifford", "two_copy_pauli"]),
                        default="pauli", show_default=True)(command)


def _at_least_one(ctx, param, value: int) -> int:
    """Option callback: a check run on no instances passes vacuously, a
    solver given no copies or shots decides nothing, and a protocol of no
    rounds has no accept rate, so a count below 1 is a configuration error."""
    if value < 1:
        _config_error(f"{param.opts[0]} must be >= 1, got {value}")
    return value


def _exit_code(doc) -> int:
    """The one exit rule: a decision exits 0 for YES, 1 for NO and 3 for a
    violated promise; a check with ``passed`` false exits 1; anything else 0."""
    if isinstance(doc, dict) and "decision" in doc:
        return {"YES": EXIT_YES, "NO": EXIT_NO}.get(doc["decision"], EXIT_PROMISE)
    return EXIT_NO if isinstance(doc, dict) and not doc.get("passed", True) else EXIT_YES


class _AnnouncedCommand(click.Command):
    """A command that prints its full configuration, runs, writes the
    document its callback returns and exits by ``_exit_code``.

    The configuration is one stderr line ``config: `` and the sorted JSON of
    the command's name ("reduce gi-clifford") and every parameter under its
    click name.  Every command takes ``--out`` (help text ``out_help``): a
    returned dict goes there as indented JSON, else to stdout; returned
    protocol rows go to stdout as JSON lines, and to ``--out`` as a summary
    CSV.  The callback never sees ``--out``.
    """

    def __init__(self, *args, out_help=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.params.append(click.Option(["--out"], default="", help=out_help))

    def invoke(self, ctx):
        names, up = [], ctx
        while up.parent is not None:
            names.append(up.info_name)
            up = up.parent
        click.echo("config: " + json.dumps(
            {"command": " ".join(reversed(names)), **ctx.params}, sort_keys=True), err=True)
        out = _resolve_out(ctx.params.pop("out"))
        if out:
            # an --out that cannot be opened is refused before any work
            # (OSError, exit 2); append mode keeps an existing file as it is
            open(out, "a").close()
        doc = super().invoke(ctx)
        if isinstance(doc, list):
            for row in doc:
                click.echo(json.dumps(row, sort_keys=True))
            if out:
                write_summary_csv(out, doc)
        else:
            text = json.dumps(doc, indent=2, sort_keys=True, default=_np_default)
            if not out:
                click.echo(text)
            else:
                with open(out, "w") as fh:
                    fh.write(text + "\n")
        if out:
            click.echo(f"wrote {out}", err=True)
        sys.exit(_exit_code(doc))


class _ConfigErrorBoundary(click.Group):
    """Root group that turns malformed input into exit 2 for every command.

    Library errors are ValueError subclasses (JSON decode errors among
    them); a bundle or spec without a required field raises KeyError, an
    out-of-range index IndexError, an input or ``--out`` path that cannot
    be opened OSError, and an allocation the machine cannot hold
    MemoryError.  None of them may surface as a traceback with exit 1,
    which would read as a NO decision.  Its commands are
    ``_AnnouncedCommand``s, and its subgroups are of this class too.
    """

    command_class = _AnnouncedCommand
    group_class = type

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KeyError as exc:
            _config_error(f"missing field {exc}")
        except (ValueError, IndexError, OSError) as exc:
            _config_error(str(exc))
        except MemoryError as exc:
            _config_error(f"out of memory: {exc}")


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

@main.command("psgi", out_help="Output JSON path (default stdout).")
@click.option("--instance", "instance_path", type=str, default=None,
              help="Instance bundle JSON (from `reduce`).")
@click.option("--oracle/--quantum", "use_oracle", default=True,
              help="Exact orbit scan vs the character-sampling solver.")
@_group_options
@click.option("--same-state", is_flag=True, help="psi1 = psi2 (trivial YES).")
@click.option("--kind", type=click.Choice(["yes", "no"]), default="yes",
              show_default=True, help="Random instance kind when built from flags.")
@click.option("--alpha", type=float, default=0.6, show_default=True)
@click.option("--beta", type=float, default=0.99, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--copies", type=int, default=2, show_default=True,
              callback=_at_least_one)
@click.option("--shot-mode", is_flag=True)
@click.option("--shots", type=int, default=4096, show_default=True,
              callback=_at_least_one)
@click.option("--sweep-count", type=int, default=20000, show_default=True,
              help="Random Cliffords for the NO side of gi_clifford bundles.")
def cmd_psgi(instance_path, use_oracle, group, n_qubits, same_state, kind,
             alpha, beta, seed, copies, shot_mode, shots, sweep_count):
    """Decide a state-isomorphism instance; exit 0 YES / 1 NO / 3 violated."""
    from .groups import DecisionThresholds, group_from_spec
    from .psgi import (PsgiInstance, pauli_psgi_quantum, psgi_oracle,
                       random_pauli_psgi_instance, random_state)
    if instance_path:
        bundle = _read_json(instance_path)
        if bundle.get("type") == "gi_clifford":
            return _run_gi_clifford_bundle(bundle, sweep_count, seed)
        inst = _psgi_from_bundle(bundle)
    else:
        thresholds = DecisionThresholds(alpha, beta)
        rep = group_from_spec({"type": group, "n": n_qubits})
        # the group's own qubit count: two_copy_pauli(n) acts on 2n qubits
        qubits = rep.dim.bit_length() - 1
        rng = np.random.default_rng(seed)
        if same_state:
            psi = random_state(qubits, rng)
            inst = PsgiInstance(psi, psi, rep, thresholds)
        else:
            inst = random_pauli_psgi_instance(qubits, thresholds, kind, rng,
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
    return {
        "version": SCHEMA_VERSION,
        "decision": verdict.decision,
        "witness": witness_text,
        "achieved_overlap": [verdict.achieved_overlap.real,
                             verdict.achieved_overlap.imag],
    }


def _psgi_from_bundle(bundle: dict):
    from .groups import DecisionThresholds, group_from_spec
    from .linalg import StateVector
    from .psgi import PsgiInstance
    bundle_type = bundle.get("type", "psgi")
    if bundle_type != "psgi":
        # every other reduce output is an instance of another problem
        _config_error(f"a bundle of type {bundle_type!r} is not a psgi instance")
    psi1 = StateVector.from_obj(_field(bundle, "psi1", dict, "an object"))
    psi2 = StateVector.from_obj(_field(bundle, "psi2", dict, "an object"))
    rep = group_from_spec(_field(bundle, "group", dict, "an object"))
    thresholds = DecisionThresholds(_field(bundle, "alpha", (int, float), "a number"),
                                    _field(bundle, "beta", (int, float), "a number"))
    return PsgiInstance(psi1, psi2, rep, thresholds)


def _run_gi_clifford_bundle(bundle: dict, sweep_count: int, seed: int) -> dict:
    from .graphs import Graph
    from .reductions import clifford_overlap_sweep, gi_to_clifford
    g1 = Graph.from_edge_list_text(_field(bundle, "graph1", str, "a string"))
    g2 = Graph.from_edge_list_text(_field(bundle, "graph2", str, "a string"))
    inst = gi_to_clifford(g1, g2)
    if hasattr(inst, "decision"):        # mismatched counts: immediate NO
        return {"version": SCHEMA_VERSION, "decision": "NO", "witness": None,
                "achieved_overlap": [0.0, 0.0]}
    witness = inst.permutation_witness()
    if witness is not None:
        overlap = inst.overlap(witness)
        return {"version": SCHEMA_VERSION, "decision": "YES", "witness": repr(witness),
                "achieved_overlap": [overlap.real, overlap.imag]}
    work = sweep_count * inst.n_qubits << inst.n_qubits
    if work > SWEEP_ENTRY_BUDGET:
        _config_error(f"a {sweep_count}-Clifford sweep on {inst.n_qubits} qubits is "
                      f"{work:.2e} action entries, over the {SWEEP_ENTRY_BUDGET:.1e} budget; "
                      f"lower --sweep-count")
    sweep = clifford_overlap_sweep(inst.psi1, inst.psi2, sweep_count, seed,
                                   inst.thresholds.alpha)
    return {"version": SCHEMA_VERSION, "decision": "NO", "witness": None,
            "achieved_overlap": [sweep["max_overlap"], 0.0], "sweep": sweep}


# ----------------------------------------------------------------------
# reduce
# ----------------------------------------------------------------------

@main.group("reduce")
def cmd_reduce():
    """Build instance bundles from graphs or density matrices."""


@cmd_reduce.command("gi-clifford", out_help="Bundle path (default stdout).")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
def reduce_gi_clifford(graph1, graph2):
    from .reductions import gi_to_clifford
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    inst = gi_to_clifford(g1, g2)
    bundle = {
        "version": SCHEMA_VERSION, "type": "gi_clifford",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
    }
    if hasattr(inst, "decision"):
        bundle["note"] = "vertex or edge counts differ; instance is NO"
    else:
        bundle["psi1"] = inst.psi1.to_obj()
        bundle["psi2"] = inst.psi2.to_obj()
        bundle["alpha"] = inst.thresholds.alpha
        bundle["beta"] = inst.thresholds.beta
    return bundle


@cmd_reduce.command("gi-lowrank")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
@click.option("--graph-weight", type=float, default=None,
              help="Override the graph-component weight b.")
def reduce_gi_lowrank(graph1, graph2, graph_weight):
    from .reductions import lowrank_gi_instance
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    result = lowrank_gi_instance(g1, g2, graph_weight=graph_weight)
    if hasattr(result, "decision"):
        return {"version": SCHEMA_VERSION, "type": "gi_lowrank",
                "note": "vertex or edge counts differ; instance is NO"}
    lr1, lr2, thresholds = result
    return {
        "version": SCHEMA_VERSION, "type": "gi_lowrank",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
        "psi1": lr1.materialize().to_obj(), "psi2": lr2.materialize().to_obj(),
        "rank_bound": lr1.rank_bound,
        "alpha": thresholds.alpha, "beta": thresholds.beta,
    }


@cmd_reduce.command("gi-bosonic")
@click.argument("graph1", type=str)
@click.argument("graph2", type=str)
def reduce_gi_bosonic(graph1, graph2):
    from .bosonic import encode_graph_bosonic
    from .reductions import lowrank_thresholds
    g1, g2 = _read_graph(graph1), _read_graph(graph2)
    c1, c2 = encode_graph_bosonic(g1), encode_graph_bosonic(g2)
    thresholds = lowrank_thresholds(g1.n)
    return {
        "version": SCHEMA_VERSION, "type": "gi_bosonic",
        "graph1": g1.to_edge_list_text(), "graph2": g2.to_edge_list_text(),
        "core1": c1.to_obj(), "core2": c2.to_obj(),
        "alpha": thresholds.alpha, "beta": thresholds.beta,
    }


@cmd_reduce.command("qsd-msgi")
@click.argument("sigma1", type=str)
@click.argument("sigma2", type=str)
@_group_options
@click.option("--seed", type=int, default=0, show_default=True)
def reduce_qsd_msgi(sigma1, sigma2, group, n_qubits, seed):
    from .groups import group_from_spec
    from .linalg import DensityMatrix
    from .reductions import qsd_to_msgi
    s1 = DensityMatrix.from_obj(_read_json(sigma1))
    s2 = DensityMatrix.from_obj(_read_json(sigma2))
    rep = group_from_spec({"type": group, "n": n_qubits})
    inst = qsd_to_msgi(s1, s2, rep, seed)
    return {
        "version": SCHEMA_VERSION, "type": "msgi",
        "sigma1": inst.sigma1.to_obj(), "sigma2": inst.sigma2.to_obj(),
        "group": {"type": group, "n": n_qubits},
        "alpha": inst.thresholds.alpha, "beta": inst.thresholds.beta,
        "seed": seed, "diagnostics": inst.diagnostics,
    }


@cmd_reduce.command("qsd-mixedhsp")
@click.argument("sigma1", type=str)
@click.argument("sigma2", type=str)
@_group_options
@click.option("--h-index", type=int, default=1, show_default=True,
              help="Index of the involution h in the group's element list.")
def reduce_qsd_mixedhsp(sigma1, sigma2, group, n_qubits, h_index):
    from .groups import group_from_spec
    from .linalg import DensityMatrix
    from .reductions import qsd_to_mixed_hsp, trace_distance_transfer
    if h_index < 0:
        # Python would read a negative index from the end of the list
        raise ValueError(f"--h-index must be >= 0, got {h_index}")
    s1 = DensityMatrix.from_obj(_read_json(sigma1))
    s2 = DensityMatrix.from_obj(_read_json(sigma2))
    rep = group_from_spec({"type": group, "n": n_qubits})
    h = rep.elements[h_index]
    inst = qsd_to_mixed_hsp(s1, s2, rep, h)
    lhs, rhs = trace_distance_transfer(inst, s1, s2)
    return {
        "version": SCHEMA_VERSION, "type": "mixed_hsp", "rho": inst.rho.to_obj(),
        "group": {"type": group, "n": n_qubits}, "h": repr(h),
        "transfer_lhs": lhs, "transfer_rhs": rhs,
    }


@cmd_reduce.command("psgi-statehsp")
@click.argument("instance", type=str)
@click.option("--copies", type=int, default=1, show_default=True,
              callback=_at_least_one)
def reduce_psgi_statehsp(instance, copies):
    from .psgi import psgi_to_statehsp
    inst = _psgi_from_bundle(_read_json(instance))
    phi, rep, bounds = psgi_to_statehsp(inst, m=copies)
    return {"version": SCHEMA_VERSION, "type": "state_hsp", "phi": phi.to_obj(),
            "group_order": rep.order, "bounds": bounds}


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

@main.group("verify")
def cmd_verify():
    """Property checks; exit 0 on all-pass, 1 on failure."""


@cmd_verify.command("lemma-perm")
@click.option("--n", "n_qubits", type=int, default=2, show_default=True)
@click.option("--exhaustive/--sampled", default=True, show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threshold", type=float, default=0.9999, show_default=True)
def verify_lemma_perm_cmd(n_qubits, exhaustive, samples, seed, threshold):
    from .reductions import verify_lemma_perm
    report = verify_lemma_perm(n_qubits,
                               mode="exhaustive" if exhaustive else "sampled",
                               samples=samples, seed=seed, threshold=threshold)
    return {**report, "passed": not report["violations"]}


@cmd_verify.command("twirl-bound")
@click.option("--instances", type=int, default=100, show_default=True,
              callback=_at_least_one)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def verify_twirl_bound(instances, n_qubits, seed):
    from .groups import check_twirl_fidelity_bound, pauli_group
    from .linalg import random_density
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
    return {"version": SCHEMA_VERSION, "instances": instances,
            "min_slack": min_slack, "failures": failures, "passed": failures == 0}


@cmd_verify.command("helper-gapped-cv")
@click.option("--count", type=int, default=500, show_default=True,
              callback=_at_least_one)
@click.option("--seed", type=int, default=0, show_default=True)
def verify_helper_gapped_cv(count, seed):
    """Residual bound ||V - PD||_F <= sqrt(3 n delta) in the delta regime."""
    from .bosonic import cubic_overlap, nearest_permutation_phase, perturbed_permutation_unitary
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
    return {"version": SCHEMA_VERSION, "count": checked,
            "worst_margin": worst_margin, "failures": failures, "passed": failures == 0}


@cmd_verify.command("trace-transfer")
@click.option("--count", type=int, default=200, show_default=True,
              callback=_at_least_one)
@click.option("--n", "n_qubits", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def verify_trace_transfer(count, n_qubits, seed):
    from .groups import pauli_group
    from .linalg import random_density
    from .reductions import qsd_to_mixed_hsp, trace_distance_transfer
    rep = pauli_group(n_qubits)
    rng = np.random.default_rng(seed)
    h = rep.elements[1]     # (0, 0, 1): Z on qubit 0, a non-central involution
    worst = 0.0
    for _ in range(count):
        s1 = random_density(rep.dim, rng)
        s2 = random_density(rep.dim, rng)
        inst = qsd_to_mixed_hsp(s1, s2, rep, h)
        lhs, rhs = trace_distance_transfer(inst, s1, s2)
        worst = max(worst, abs(lhs - rhs))
    return {"version": SCHEMA_VERSION, "count": count, "h": repr(h), "worst_gap": worst,
            "passed": worst <= 1e-7}


@cmd_verify.command("shadow-unbiased")
@click.option("--seed", type=int, default=0, show_default=True)
def verify_shadow_unbiased(seed):
    """Exact single-shadow expectation at one qubit by full enumeration."""
    from .groups import clifford_group
    from .protocols import shadow_single_shots
    from .psgi import random_state
    rng = np.random.default_rng(seed)
    # every <b|U of the 24 Cliffords; the mean weighs each by 1/24 and by its
    # Born probability |<b|U|psi>|^2
    rows = clifford_group(1).unitaries.reshape(-1, 2)
    worst = 0.0
    for _ in range(20):
        psi, phi = (random_state(1, rng).amplitudes for _ in range(2))
        expect = np.abs(rows @ psi) ** 2 @ shadow_single_shots(rows, phi[:, None])[:, 0] / 24
        worst = max(worst, abs(expect - abs(np.vdot(phi, psi)) ** 2))
    return {"version": SCHEMA_VERSION, "cases": 20, "worst_bias": worst,
            "passed": worst <= 1e-10}


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

@main.group("protocol")
def cmd_protocol():
    """Round-level protocol statistics on bundled instances."""


@cmd_protocol.command("qcszk", out_help="Summary CSV path.")
@click.option("--trials", type=int, default=500, show_default=True,
              callback=_at_least_one)
@click.option("--shadows", type=int, default=2000, show_default=True)
@click.option("--n", "n_qubits", type=int, default=2, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def protocol_qcszk(trials, shadows, n_qubits, seed):
    from .groups import DecisionThresholds
    from .protocols import qcszk_context, qcszk_round, run_trials
    from .psgi import random_pauli_psgi_instance
    thresholds = DecisionThresholds(0.6, 0.99)
    rng = np.random.default_rng(seed)
    rows = []
    for label, kind in (("isomorphic", "yes"), ("non-isomorphic", "no")):
        inst = random_pauli_psgi_instance(n_qubits, thresholds, kind, rng)
        ctx = qcszk_context(inst)
        res = run_trials(lambda s: qcszk_round(ctx, shadows, s), trials, seed)
        rows.append({"instance": label, **res})
    return rows


@cmd_protocol.command("qszk-mixed")
@click.option("--trials", type=int, default=2000, show_default=True,
              callback=_at_least_one)
@click.option("--k", "k_copies", type=int, default=4, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def protocol_qszk_mixed(trials, k_copies, seed):
    from .groups import DecisionThresholds, pauli_group
    from .linalg import DensityMatrix, StateVector, random_density
    from .protocols import qszk_mixed_context, qszk_mixed_round, run_trials
    from .reductions import MsgiInstance
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
        res = run_trials(lambda s: qszk_mixed_round(ctx, s), trials, seed)
        rows.append({"instance": label,
                     "twirled_distance": ctx["distance"], **res})
    return rows


@cmd_protocol.command("szk-lowrank")
@click.option("--trials", type=int, default=60, show_default=True,
              callback=_at_least_one)
@click.option("--gamma", type=float, default=0.05, show_default=True)
@click.option("--graph-weight", type=float, default=0.7, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def protocol_szk_lowrank(trials, gamma, graph_weight, seed):
    from .graphs import Graph
    from .protocols import run_trials, szk_lowrank_context, szk_lowrank_round
    from .reductions import lowrank_gi_instance
    g1 = Graph.path(4)
    pairs = (("isomorphic", g1.relabel((2, 0, 3, 1))),
             ("non-isomorphic", Graph.star(4)))
    rows = []
    for label, g2 in pairs:
        lr1, lr2, _ = lowrank_gi_instance(g1, g2, graph_weight=graph_weight)
        ctx = szk_lowrank_context(lr1, lr2)
        res = run_trials(lambda s: szk_lowrank_round(ctx, gamma, s), trials, seed)
        rows.append({"instance": label, **res})
    return rows


# ----------------------------------------------------------------------
# bosonic
# ----------------------------------------------------------------------

@main.group("bosonic")
def cmd_bosonic():
    """Few-photon core-state operations."""


@cmd_bosonic.command("encode")
@click.argument("graph", type=str)
def bosonic_encode(graph):
    from .bosonic import encode_graph_bosonic
    return encode_graph_bosonic(_read_graph(graph)).to_obj()


@cmd_bosonic.command("apply")
@click.argument("state", type=str)
@click.argument("unitary", type=str)
@click.option("--method", type=click.Choice(["substitution", "permanent"]),
              default="substitution", show_default=True)
def bosonic_apply(state, unitary, method):
    from .bosonic import CoreState, apply_linear_optical
    from .linalg import UnitaryMatrix
    c = CoreState.from_obj(_read_json(state))
    v = UnitaryMatrix.from_obj(_read_json(unitary))
    return apply_linear_optical(v, c, method=method).to_obj()


@cmd_bosonic.command("overlap")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
def bosonic_overlap(state1, state2):
    from .bosonic import CoreState, core_overlap
    ov = core_overlap(CoreState.from_obj(_read_json(state1)),
                      CoreState.from_obj(_read_json(state2)))
    return {"version": SCHEMA_VERSION, "overlap": [ov.real, ov.imag], "abs": abs(ov)}


@cmd_bosonic.command("optimize")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
@click.option("--restarts", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trace", "trace_path", default="", help="Per-restart CSV trace.")
def bosonic_optimize(state1, state2, restarts, seed, trace_path):
    from .bosonic import CoreState, optimize_overlap
    v, best_abs, best_re = optimize_overlap(
        CoreState.from_obj(_read_json(state1)), CoreState.from_obj(_read_json(state2)),
        restarts=restarts, seed=seed, trace_file=_resolve_out(trace_path) or None)
    return {"version": SCHEMA_VERSION, "best_abs": best_abs, "best_re": best_re,
            "unitary": v.to_obj()}


@cmd_bosonic.command("tv-gap")
@click.argument("state1", type=str)
@click.argument("state2", type=str)
@click.option("--sigma", type=float, default=0.02, show_default=True)
@click.option("--samples", type=int, default=40, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def bosonic_tv_gap(state1, state2, sigma, samples, seed):
    from .bosonic import CoreState, estimate_tv_gap
    tv, diag = estimate_tv_gap(CoreState.from_obj(_read_json(state1)),
                               CoreState.from_obj(_read_json(state2)), sigma, samples, seed)
    return {"version": SCHEMA_VERSION, "tv_lower": tv, **diag}


if __name__ == "__main__":
    main()
