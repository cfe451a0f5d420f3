"""Benchmark of the ``stateiso`` package, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``, not from an installed copy.  Each run is one process and one
workload, closed loop and sequential.  It sets up (imports, inputs,
warm-up), runs the workload's operation cycles for ``--seconds`` seconds,
checks every output, and prints as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it holds the environment block and the details behind the metrics.

``--trace 0`` reports the end-to-end metrics.  Their times are scaled to a
fixed host speed, measured by a reference timed before every operation
(see ``host_scale``); the detail line also holds them unscaled.
``--trace 1`` runs the
workload untraced for half the time, then traced from the same start for
the other half, replays the first cycle traced to check that the work
counts repeat exactly, and reports the per-layer metrics.  Spans go to
``perfbench/out/trace-<workload>-seed<N>.jsonl``.

Workloads: clifford-sweep, bosonic-optimize, cli-readme (see workloads.py
for what each runs, and BENCHMARK.json for why).
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import SWEEP_COUNT, WORKLOADS, Outcome, bad_input_exit_codes, cli_startup_ms

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

DEFAULT_SEED = 1
HELDOUT_SEED = 104729       # kept for validating claims; never used for tuning
SETUP_SAMPLES = 5           # set-up is timed this many times, each in a fresh process
REF_PER_SETUP = 3           # reference timings after each set-up
MODULES = ("linalg", "paulis", "groups", "psgi", "graphs", "reductions",
           "bosonic", "protocols", "cli")
CLI_SUBCOMMANDS = ("psgi", "reduce", "verify", "protocol", "bosonic")


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "stateiso")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(load_before):
    return {
        "git_commit": _git_commit(),
        "src_sha256_16": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "networkx": _version("networkx"),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
    }


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------

def host_scale(wl, ref_times):
    """Factor that turns a time measured next to these timings of the
    workload's reference (``Workload.reference``) into the time it would
    take on a host where the reference takes ``wl.REF_NOMINAL_S``.

    The vCPUs of a shared host change speed by up to a third over minutes,
    and every timing in a run moves with them.  The reference, timed before
    every operation of the run, moves the same way; its median over a cycle
    (over the set-ups, for set-up time) divides that drift out.  The
    reference shares no code with the program, so a change to the program
    moves the scaled metrics in full.
    """
    return wl.REF_NOMINAL_S / statistics.median(ref_times)


# ----------------------------------------------------------------------
# set-up and timed phases
# ----------------------------------------------------------------------

def setup(name, seed, workdir):
    """Import the package from src/, build the workload's inputs and warm
    it up.  Returns (workload, seconds)."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import stateiso
    if os.path.dirname(os.path.abspath(stateiso.__file__)) != os.path.join(SRC, "stateiso"):
        raise RuntimeError(f"stateiso imported from {stateiso.__file__}, not {SRC}")
    wl = WORKLOADS[name]()
    wl.setup(seed, workdir)
    return wl, time.perf_counter() - t0


def setup_in_child(name, seed):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
           str(seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _cpu():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_phase(wl, seconds, tracer=None, min_cycles=1):
    """Run whole cycles, stopping at the cycle boundary nearest to
    ``seconds`` but not before ``min_cycles`` (``seconds=0`` runs exactly
    one).  Whole cycles keep the mix of operations, and so every metric,
    the same from run to run.  The workload's reference is timed before
    every operation, outside the operation's latency.  Returns the phase
    record, with the tracer's work counts as they stood after the first
    cycle."""
    results = []            # (cycle, kind, Outcome, latency_s)
    ref_times, cpu = [], []   # per operation, in step with results
    first_cycle_work = None
    wl.tracer = tracer
    t_start = time.perf_counter()
    k = 0
    while True:
        for kind, fn in wl.cycle(k):
            ref_times.append(wl.reference())
            c0 = _cpu()
            t0 = time.perf_counter()
            try:
                res = fn()
            except Exception as exc:     # a failed operation; keep measuring
                traceback.print_exc(file=sys.stderr)
                res = Outcome(0, ("error", repr(exc)), False)
            results.append((k, kind, res, time.perf_counter() - t0))
            cpu.append(_cpu() - c0)
        if k == 0 and tracer is not None:
            first_cycle_work = tracer.work_snapshot()
        k += 1
        elapsed = time.perf_counter() - t_start
        if k >= min_cycles and elapsed + elapsed / k / 2 >= seconds:
            break
    wl.tracer = None
    units = sum(r.units for _, _, r, _ in results)
    return {"results": results, "elapsed": elapsed, "cpu_s": cpu, "units": units,
            "cycles": k, "first_cycle_work": first_cycle_work, "ref_s": ref_times}


def cycle_rates(results):
    """Units of work per second of each cycle, timed as the sum of its
    operations' latencies.  Their median, not the run's mean, is the
    reported rate: a cycle is a fixed piece of work, and the median of many
    of them shrugs off the seconds in which a shared host runs slow."""
    units, secs = {}, {}
    for c, _, r, lat in results:
        units[c] = units.get(c, 0) + r.units
        secs[c] = secs.get(c, 0.0) + lat
    return [units[c] / secs[c] for c in sorted(secs)]


def judge(phase):
    """Failed operations: those that raised or failed their own check."""
    bad = [(c, kind, r) for c, kind, r, _ in phase["results"] if not r.ok]
    return len(bad), [{"cycle": c, "kind": kind, "out": repr(r.out)[:200]}
                      for c, kind, r in bad[:10]]


def tail(latencies, pct):
    """The ``pct`` percentile (linear interpolation) and the number of
    samples beyond it."""
    lat = sorted(latencies)
    if len(lat) == 1:
        return lat[0], 0
    pos = (len(lat) - 1) * pct / 100
    i = int(pos)
    value = lat[i] + (lat[min(i + 1, len(lat) - 1)] - lat[i]) * (pos - i)
    return value, sum(x > value for x in lat)


def peak_rss_mb(name):
    who = resource.RUSAGE_CHILDREN if name == "cli-readme" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(wl, results, cpu_s):
    lats = [lat for _, _, _, lat in results]
    return {
        "ops_per_s": statistics.median(cycle_rates(results)),
        "op_p50_ms": 1e3 * statistics.median(lats),
        "op_tail_ms": 1e3 * tail(lats, wl.TAIL_PCT)[0],
        "cpu_s_per_op": sum(cpu_s) / max(sum(r.units for _, _, r, _ in results), 1),
    }


def scale_by_cycle(wl, phase):
    """The phase's latencies and CPU times, each scaled to the reference
    host speed by the reference timings of its own cycle, so that a change
    of speed in the middle of a run is divided out where it happened."""
    refs = {}
    for (c, _, _, _), ref in zip(phase["results"], phase["ref_s"]):
        refs.setdefault(c, []).append(ref)
    scale = {c: host_scale(wl, r) for c, r in refs.items()}
    results = [(c, kind, r, lat * scale[c]) for c, kind, r, lat in phase["results"]]
    cpu_s = [cpu * scale[c] for (c, _, _, _), cpu in zip(phase["results"], phase["cpu_s"])]
    return results, cpu_s, scale


def run_untraced(args, wl, setup_s, detail):
    wl.reference()              # untimed: the first call may import numpy
    setup_ref = [wl.reference() for _ in range(REF_PER_SETUP)]
    setups = [setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(setup_in_child(args.workload, args.seed))
        setup_ref += [wl.reference() for _ in range(REF_PER_SETUP)]
    # two cycles at least: cli-readme's tail (17 invocations a cycle) then
    # has ten samples beyond it
    phase = run_phase(wl, args.seconds, min_cycles=2)
    failed, bad_ops = judge(phase)
    attempted = len(phase["results"])
    _, beyond = tail([lat for _, _, _, lat in phase["results"]], wl.TAIL_PCT)
    results, cpu_s, scale = scale_by_cycle(wl, phase)
    # the metrics are scaled to the reference host speed; these are as measured
    raw = timing_metrics(wl, phase["results"], phase["cpu_s"])
    raw["setup_s"] = statistics.median(setups)
    detail.update({
        "setup_samples_s": setups, "elapsed_s": phase["elapsed"], "cycles": phase["cycles"],
        "units": phase["units"], "unit": wl.unit, "ops": attempted,
        "tail_percentile": wl.TAIL_PCT, "tail_samples_beyond": beyond,
        "fail_frac": failed / attempted, "failed_ops": bad_ops,
        "ref_median_s": statistics.median(phase["ref_s"]),
        "host_scale_median": statistics.median(scale.values()),
        "setup_ref_median_s": statistics.median(setup_ref),
        "unscaled": raw,
    })
    m = timing_metrics(wl, results, cpu_s)
    metrics = {
        "ops_per_s": metric(m["ops_per_s"], "1/s"),
        "op_p50_ms": metric(m["op_p50_ms"], "ms"),
        "op_tail_ms": metric(m["op_tail_ms"], "ms"),
        "setup_s": metric(raw["setup_s"] * host_scale(wl, setup_ref), "s"),
        "cpu_s_per_op": metric(m["cpu_s_per_op"], "s"),
        "peak_rss_mb": metric(peak_rss_mb(args.workload), "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "frac"),
    }
    correct = failed == 0
    return correct, attempted, failed, metrics


def _diff_outputs(a, b):
    """Indices where two phases' outputs differ, over their common prefix."""
    return [i for i, (x, y) in enumerate(zip(a["results"], b["results"]))
            if x[1] != y[1] or x[2].out != y[2].out]


def run_traced(args, wl, detail):
    from tracer import CALLS, SAMPLED, SAMPLED_S, SELF, TOTAL, Tracer

    workdir = os.path.join(OUT, f"work-probe-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        startup_ms = cli_startup_ms(ROOT, workdir)
        bad_codes = bad_input_exit_codes(ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    half = args.seconds / 2
    plain = run_phase(wl, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_phase(wl, half, tracer)
        totals = tracer.export()
        # replay the first cycle: its work counts must repeat exactly
        before = tracer.work_snapshot()
        replay = run_phase(wl, 0.0, tracer)
        after = replay["first_cycle_work"]
    finally:
        tracer.uninstall()
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_jsonl(trace_path)

    replay_work = {k: tuple(a - b for a, b in zip(v, before.get(k, (0, 0))))
                   for k, v in after.items()}
    replay_work = {k: v for k, v in replay_work.items() if any(v)}
    repeat_ok = replay_work == traced["first_cycle_work"]
    out_diff = _diff_outputs(plain, traced) + [
        f"replay:{i}" for i in _diff_outputs(plain, replay)]

    failed, attempted, bad_ops = 0, 0, []
    for ph in (plain, traced, replay):
        f, bad = judge(ph)
        failed += f
        attempted += len(ph["results"])
        bad_ops += bad

    st = totals["stats"]
    edges = {tuple(k): n for k, n in totals["edges"]}

    def calls(name):
        return st[name][CALLS] if name in st else 0

    def per_call(name, scale):
        """Mean duration per call (per item for a generator), from the timed
        sample where the tracer only samples."""
        if name not in st:
            return 0.0
        s = st[name]
        if s[SAMPLED]:
            return scale * s[SAMPLED_S] / s[SAMPLED]
        return scale * s[TOTAL] / s[CALLS] if s[CALLS] else 0.0

    def per(name, denom, scale, field=TOTAL):
        return scale * st[name][field] / denom if denom and name in st else 0.0

    def per_oracle(instances):
        oracle = edges.get(("psgi.random_pauli_psgi_instance", "psgi.psgi_oracle"), 0)
        return instances / oracle if oracle else 0.0

    def counted(phase, key, cycle=None):
        return sum(r.counts.get(key, 0) for c, _, r, _ in phase["results"]
                   if cycle is None or c == cycle)

    # totals over the traced phase are reported per cycle: a cycle is a fixed
    # piece of work, so a faster program does not read as doing more of it
    cycles = traced["cycles"]

    def per_cycle(value):
        return metric(value / cycles, "count/cycle")

    m = {}
    for mod in MODULES:
        names = [k for k in st if k.split(".", 1)[0] == mod]
        m[f"{mod}.self_ms"] = metric(1e3 * sum(st[k][SELF] for k in names) / cycles, "ms/cycle")
        m[f"{mod}.calls"] = per_cycle(sum(st[k][CALLS] for k in names))
    us, ms = 1e6, 1e3
    m.update({
        "paulis.random_clifford_rows.us_per_call": metric(per_call("paulis.random_clifford_rows", us), "us"),
        "paulis.random_clifford_rows.calls": per_cycle(calls("paulis.random_clifford_rows")),
        "paulis.r_overlap_sq_images.us_per_call": metric(per_call("paulis.r_overlap_sq_images", us), "us"),
        "paulis.random_clifford.us_per_call": metric(per_call("paulis.random_clifford", us), "us"),
        "paulis.random_clifford.calls": per_cycle(calls("paulis.random_clifford")),
        "paulis.CliffordElement.to_unitary.us_per_call": metric(per_call("paulis.CliffordElement.to_unitary", us), "us"),
        "paulis.CliffordElement.apply.us_per_call": metric(per_call("paulis.CliffordElement.apply", us), "us"),
        "paulis.enumerate_cliffords.us_per_item": metric(per_call("paulis.enumerate_cliffords", us), "us"),
        "reductions.clifford_overlap_sweep.us_per_clifford": metric(
            per("reductions.clifford_overlap_sweep", calls("reductions.clifford_overlap_sweep") * SWEEP_COUNT, us, SELF), "us"),
        "reductions.verify_lemma_perm.us_per_sample": metric(
            per("reductions.verify_lemma_perm", counted(traced, "lemma_samples"), us), "us"),
        "reductions.gi_to_clifford.ms": metric(per_call("reductions.gi_to_clifford", ms), "ms"),
        "protocols.qcszk_round.ms": metric(per_call("protocols.qcszk_round", ms), "ms"),
        "protocols.szk_lowrank_round.ms": metric(per_call("protocols.szk_lowrank_round", ms), "ms"),
        "protocols.qszk_mixed_round.us": metric(per_call("protocols.qszk_mixed_round", us), "us"),
        "protocols.qcszk_context.ms": metric(per_call("protocols.qcszk_context", ms), "ms"),
        "protocols.qszk_mixed_context.ms": metric(per_call("protocols.qszk_mixed_context", ms), "ms"),
        "protocols.szk_lowrank_context.ms": metric(per_call("protocols.szk_lowrank_context", ms), "ms"),
        "protocols.shadows": per_cycle(counted(traced, "shadows")),
        "psgi.pauli_psgi_quantum.ms": metric(per_call("psgi.pauli_psgi_quantum", ms), "ms"),
        "psgi.character_distribution.ms": metric(per_call("psgi.character_distribution", ms), "ms"),
        "psgi.psgi_oracle.calls": per_cycle(calls("psgi.psgi_oracle")),
        "psgi.random_pauli_psgi_instance.accept_ratio": metric(
            per_oracle(counted(traced, "no_instances")), "frac"),
        "groups.k_twirl.ms": metric(per_call("groups.k_twirl", ms), "ms"),
        "groups.check_twirl_fidelity_bound.us_per_call": metric(per_call("groups.check_twirl_fidelity_bound", us), "us"),
        "groups.FiniteGroupRep.unitary.calls": per_cycle(calls("groups.FiniteGroupRep.unitary")),
        "linalg.trace_distance.ms": metric(per_call("linalg.trace_distance", ms), "ms"),
        "linalg.fidelity_matrices.us_per_call": metric(per_call("linalg.fidelity_matrices", us), "us"),
        "bosonic.optimize_overlap.ms_per_restart": metric(
            per("bosonic.optimize_overlap", counted(traced, "restarts"), ms), "ms"),
        "bosonic.permanent.calls": per_cycle(calls("bosonic.permanent")),
        "bosonic.permanent.us_per_call": metric(per_call("bosonic.permanent", us), "us"),
        "bosonic.apply_linear_optical.us_per_call": metric(per_call("bosonic.apply_linear_optical", us), "us"),
        "bosonic.orbit_distance.ms": metric(per_call("bosonic.orbit_distance", ms), "ms"),
        "cli.startup_ms": metric(startup_ms, "ms"),
    })
    for sub in CLI_SUBCOMMANDS:
        lats = [lat for _, kind, _, lat in plain["results"] if kind == sub]
        m[f"cli.invocation_ms.{sub}"] = metric(1e3 * statistics.median(lats) if lats else 0.0, "ms")
    # overhead over the operations both phases ran: the same work, so the
    # ratio of rates is the inverse ratio of times
    common = min(len(plain["results"]), len(traced["results"]))
    t_plain = sum(r[3] for r in plain["results"][:common])
    t_traced = sum(r[3] for r in traced["results"][:common])
    m["trace.overhead_frac"] = metric(1.0 - t_plain / t_traced, "frac")
    m["cli.bad_input_exit_not_2"] = metric(sum(c != 2 for c in bad_codes.values()), "count")
    work = traced["first_cycle_work"]

    def wcalls(name):
        return work.get(name, (0, 0))[0]

    m.update({
        "work.cliffords_sampled": metric(wcalls("paulis.random_clifford_rows")
                                         + wcalls("paulis.random_clifford"), "count"),
        "work.permanent_calls": metric(wcalls("bosonic.permanent"), "count"),
        "work.no_instance_oracle_calls": metric(
            wcalls("psgi.random_pauli_psgi_instance->psgi.psgi_oracle"), "count"),
        "work.shadows_drawn": metric(counted(traced, "shadows", cycle=0), "count"),
    })

    detail.update({
        "trace_file": os.path.relpath(trace_path, ROOT),
        "spans": len(tracer.spans), "child_spans": len(tracer.child_spans),
        "spans_dropped": tracer.spans_dropped,
        "untraced": {"elapsed_s": plain["elapsed"], "units": plain["units"],
                     "ops": len(plain["results"])},
        "traced": {"elapsed_s": traced["elapsed"], "units": traced["units"],
                   "ops": len(traced["results"])},
        "work_counts_repeat": repeat_ok,
        "outputs_traced_vs_untraced_differ_at": out_diff[:10],
        "bad_input_exit_codes": bad_codes,
        "failed_ops": bad_ops[:10],
    })
    correct = failed == 0 and repeat_ok and not out_diff
    return correct, attempted, failed, m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stateiso", "__init__.py")):
        print(f"error: no package source at {SRC}/stateiso; run from a source checkout",
              file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace}
        if args.trace:
            correct, attempted, failed, metrics = run_traced(args, wl, detail)
        else:
            correct, attempted, failed, metrics = run_untraced(args, wl, setup_s, detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["env"] = environment(load_before)
    print(json.dumps(detail, default=repr))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
