"""The benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` and then hands
the runner one *cycle* of operations at a time.  An operation is a
``(kind, callable)`` pair; the callable makes one timed public call (or one
CLI invocation) and returns an ``Outcome`` carrying its units of work, an
output digest (compared exactly between traced and untraced runs), its
correctness verdict and any work counts.

Library calls go through module attributes (``self.R.clifford_overlap_sweep``)
so that the tracer's wrappers, installed on those attributes, see them.
Nothing here imports numpy or ``stateiso`` at module level: the runner
counts those imports as set-up time.
"""
from __future__ import annotations

import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

SWEEP_COUNT = 100          # Cliffords per clifford_overlap_sweep call (also the CLI's --sweep-count)
GI_ALPHA = 0.99999         # GI-Clifford soundness threshold
BOSONIC_CAP = 1 - 1 / (96 * 4**5)   # lowrank_thresholds(4).alpha, the P4 vs K_{1,3} overlap cap
ADDRESS = re.compile(r"0x[0-9a-f]+")


@dataclass
class Outcome:
    units: float
    out: tuple
    ok: bool
    counts: dict = field(default_factory=dict)


def op_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one operation, fixed by the workload seed and path."""
    return random.Random(repr((seed,) + path)).getrandbits(31)


class Workload:
    name = ""
    unit = ""
    # op_tail_ms is this percentile: the highest that leaves at least ten
    # samples beyond it in a run of the benchmark's length.  It is fixed per
    # workload, so that runs, and commits, compare the same percentile.
    TAIL_PCT: float
    REF_NOMINAL_S = 0.004   # the reference's time at the speed metrics are scaled to
    tracer = None           # set by the runner while a traced phase runs

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def reference(self) -> float:
        """Seconds taken by a fixed piece of work that shares no code with
        stateiso, in the package's own mix: interpreted Python, and numpy
        calls on small complex matrices."""
        import numpy as np
        t0 = time.perf_counter()
        acc, x, table = 0, 0.5, {}
        for i in range(4000):
            acc = (acc * 31 + i) % 1000003
            x = 3.9 * x * (1.0 - x)
            table[acc & 255] = (i, x)
        a0 = np.arange(16.0).reshape(4, 4) * (1 + 0.5j) / 7
        a, z = a0, 0j
        for _ in range(200):
            b = a @ a.conj().T
            z += np.trace(b) + b.sum()
            a = a0 + (z.real % 1.0) * 1e-3
        return time.perf_counter() - t0


# ----------------------------------------------------------------------
# clifford-sweep
# ----------------------------------------------------------------------

class CliffordSweep(Workload):
    """GI-Clifford soundness sweeps on NONISO_LIBRARY, the permutation lemma
    (sampled at n=3, exhaustive at n=2) and isomorphic witnesses."""

    name = "clifford-sweep"
    unit = "Cliffords"
    TAIL_PCT = 94.0         # 220 to 360 operations per run
    LEMMA3_SAMPLES = 1000

    def setup(self, seed, workdir):
        import numpy as np
        from stateiso import graphs, reductions
        self.R = reductions
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.noniso = [reductions.gi_to_clifford(g1, g2)
                       for g1, g2 in reductions.NONISO_LIBRARY]
        self.iso = []
        for n in (3, 4, 5):
            for make in (graphs.Graph.path, graphs.Graph.cycle, graphs.Graph.star):
                base = make(n)
                perm = tuple(int(i) for i in rng.permutation(n))
                self.iso.append((base, base.relabel(perm)))
        # warm-up: every kind of operation once, at small size, on fixed inputs
        for inst in self.noniso:
            reductions.clifford_overlap_sweep(inst.psi1, inst.psi2, 2, 0, GI_ALPHA)
        reductions.verify_lemma_perm(3, mode="sampled", samples=20, seed=0)
        reductions.verify_lemma_perm(1)
        self._witness(self.iso[0])

    def _sweep(self, inst, seed):
        rpt = self.R.clifford_overlap_sweep(inst.psi1, inst.psi2, SWEEP_COUNT,
                                            seed, GI_ALPHA)
        ok = rpt["exceed_count"] == 0 and rpt["count"] == SWEEP_COUNT
        return Outcome(SWEEP_COUNT, (rpt["max_overlap"], rpt["exceed_count"]), ok)

    def _lemma3(self, seed):
        r = self.R.verify_lemma_perm(3, mode="sampled", samples=self.LEMMA3_SAMPLES,
                                     seed=seed)
        ok = not r["violations"] and r["checked"] == self.LEMMA3_SAMPLES
        return Outcome(r["checked"], (r["above_threshold"], r["permutations"]), ok,
                       {"lemma_samples": r["checked"]})

    def _lemma2(self):
        r = self.R.verify_lemma_perm(2, mode="exhaustive")
        ok = (not r["violations"] and r["above_threshold"] == r["permutations"]
              and r["checked"] == 11520)
        return Outcome(r["checked"], (r["above_threshold"], r["permutations"]), ok,
                       {"lemma_samples": r["checked"]})

    def _witness(self, pair):
        inst = self.R.gi_to_clifford(*pair)
        c = inst.permutation_witness()
        if c is None:
            return Outcome(1, (None,), False)
        ov = inst.overlap(c)
        return Outcome(1, (ov.real, ov.imag), abs(ov - 1) < 1e-9)

    def cycle(self, k):
        s = self.seed
        ops = [("sweep", lambda i=i, inst=inst: self._sweep(inst, op_seed(s, k, i)))
               for i, inst in enumerate(self.noniso)]
        ops.append(("lemma3", lambda: self._lemma3(op_seed(s, k, 3))))
        ops.append(("lemma2", self._lemma2))
        ops.append(("witness", lambda: self._witness(self.iso[k % len(self.iso)])))
        return ops


# ----------------------------------------------------------------------
# bosonic-optimize
# ----------------------------------------------------------------------

class BosonicOptimize(Workload):
    """optimize_overlap on P4 vs K_{1,3}, estimate_tv_gap with a fixed b and
    one sample per side (short warm-started ascents in orbit_distance), and
    apply_linear_optical by substitution against the permanent formula on
    random cores."""

    name = "bosonic-optimize"
    unit = "ascents"
    TAIL_PCT = 87.0         # 80 to 140 operations per run
    RESTARTS = 3
    APPLY_PER_CYCLE = 3     # keeps the median inside the apply latencies
    TV_B = 0.49             # orbit distance of the two encodings, rounded down

    def setup(self, seed, workdir):
        import numpy as np
        from stateiso import bosonic, graphs, reductions
        self.np, self.B = np, bosonic
        self.seed = seed
        self.c1 = bosonic.encode_graph_bosonic(graphs.Graph.path(4))
        self.c2 = bosonic.encode_graph_bosonic(graphs.Graph.star(4))
        self.cap = reductions.lowrank_thresholds(4).alpha      # == BOSONIC_CAP
        self.basis = bosonic.sector_basis(4, 3)
        # warm-up on fixed inputs, so that set-up does the same work for every seed
        bosonic.optimize_overlap(self.c1, self.c2, restarts=1, iters=2, seed=0)
        self._apply(op_seed(0, -1))
        self._tv_gap(op_seed(0, -2))

    def _optimize(self, seed):
        B = self.B
        v, best_abs, best_re = B.optimize_overlap(self.c1, self.c2,
                                                  restarts=self.RESTARTS, seed=seed)
        again = abs(B.core_overlap(self.c2, B.apply_linear_optical(v, self.c1)))
        ok = best_abs <= self.cap and abs(again - best_abs) <= 1e-9
        return Outcome(self.RESTARTS, (best_abs, best_re), ok,
                       {"restarts": self.RESTARTS})

    def _apply(self, seed):
        np, B = self.np, self.B
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(self.basis), size=4, replace=False)
        amps = {self.basis[i]: complex(rng.normal(), rng.normal()) for i in picks}
        nrm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        core = B.CoreState(4, 3, {k: a / nrm for k, a in amps.items()})
        v = B.haar_mode_unitary(4, rng)
        a = B.apply_linear_optical(v, core, method="substitution")
        b = B.apply_linear_optical(v, core, method="permanent")
        ov = B.core_overlap(a, b)
        return Outcome(0, (ov.real, ov.imag), abs(ov - 1) < 1e-9)

    def _tv_gap(self, seed):
        # one sample per side, each refined by one warm-started ascent
        tv, d = self.B.estimate_tv_gap(self.c1, self.c2, 0.02, 1, seed,
                                       n_reference=10, n_warm=1, b=self.TV_B)
        ok = (d["p1"] in (0.0, 1.0) and d["p2"] in (0.0, 1.0)
              and tv == d["p1"] - d["p2"])
        return Outcome(2, (tv, d["p1"], d["p2"]), ok)

    def cycle(self, k):
        s = self.seed
        ops = [("optimize", lambda: self._optimize(op_seed(s, k, 0))),
               ("tv-gap", lambda: self._tv_gap(op_seed(s, k, 1)))]
        ops += [("apply", lambda i=i: self._apply(op_seed(s, k, 2, i)))
                for i in range(self.APPLY_PER_CYCLE)]
        return ops


# ----------------------------------------------------------------------
# cli-readme
# ----------------------------------------------------------------------

P4 = "4\n0 1\n1 2\n2 3\n"
K13 = "4\n0 1\n0 2\n0 3\n"


def relabel_edges(text: str, perm) -> str:
    lines = text.strip().splitlines()
    edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    return lines[0] + "\n" + "".join(f"{perm[u]} {perm[v]}\n" for u, v in edges)


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("STATEISO_OUT_DIR", None)
    return env


def run_cli(root, workdir, args, tracer=None, timeout=120):
    """One CLI invocation: (exit code, stdout).  Under a tracer the child
    runs through clitrace.py and its totals are merged into the tracer."""
    if tracer is None:
        cmd = [sys.executable, "-m", "stateiso.cli", *args]
    else:
        stats = os.path.join(workdir, "trace-child.json")
        cmd = [sys.executable, os.path.join(root, "perfbench", "clitrace.py"), stats, *args]
    proc = subprocess.run(cmd, cwd=workdir, env=cli_env(root), capture_output=True,
                          text=True, timeout=timeout)
    if tracer is not None:
        with open(stats) as fh:
            child = json.load(fh)
        tracer.merge(child)
        tracer.child_spans.extend(
            {"child": child["pid"], "span": s[0], "name": s[1], "start": s[2],
             "end": s[3], "parent": s[4]} for s in child["spans"])
    return proc.returncode, proc.stdout


class CliReadme(Workload):
    """The README's canonical commands as subprocesses of ``python -m stateiso.cli``."""

    name = "cli-readme"
    unit = "invocations"
    TAIL_PCT = 66.0         # two cycles of 17 invocations per run
    REF_NOMINAL_S = 0.17    # a fresh interpreter importing numpy

    def setup(self, seed, workdir):
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.seed = seed
        self.workdir = workdir
        rnd = random.Random(seed)
        perm = list(range(4))
        rnd.shuffle(perm)
        files = {"p4.txt": P4, "p4b.txt": relabel_edges(P4, perm), "k13.txt": K13}
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                fh.write(text)
        code, _ = run_cli(self.root, workdir, ["--version"])
        if code != 0:
            raise RuntimeError(f"stateiso --version exited {code}")

    def reference(self):
        """Seconds a fresh interpreter takes to start and import numpy: the
        part of every invocation that stateiso does not control.  It tracks
        the host's speed at starting processes, which an in-process kernel
        does not."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=self.workdir,
                       capture_output=True, timeout=120, check=True)
        return time.perf_counter() - t0

    def _invoke(self, args, expect, out_file, check, counts):
        code, stdout = run_cli(self.root, self.workdir, args, self.tracer)
        ok = code == expect
        try:
            if out_file:
                with open(os.path.join(self.workdir, out_file)) as fh:
                    docs = [json.load(fh)]
            else:
                docs = [json.loads(ln) for ln in stdout.splitlines() if ln.strip()] \
                    if args[0] == "protocol" else [json.loads(stdout)]
        except (OSError, ValueError):
            docs, ok = [], False
        ok = ok and bool(docs) and all(check(d) for d in docs)
        # reprs of objects without __repr__ carry a memory address
        return Outcome(1, (code, ADDRESS.sub("0x?", stdout)), ok, counts)

    def cycle(self, k):
        s = lambda i: str(op_seed(self.seed, k, i))
        dec = lambda want: (lambda d: d.get("decision") == want)
        passed = lambda d: d.get("passed") is True
        qcszk_trials, qcszk_shadows = 4, 100
        # (args, expected exit code, output file or None for stdout, check, work counts)
        cmds = [
            (["psgi", "--n", "2", "--kind", "no", "--seed", s(0)], 1, None, dec("NO"),
             {"no_instances": 1}),
            (["psgi", "--quantum", "--same-state", "--n", "2", "--seed", s(1)], 0, None,
             dec("YES"), {}),
            (["reduce", "gi-clifford", "p4.txt", "p4b.txt", "--out", "yes.json"], 0, "yes.json",
             lambda d: "psi1" in d, {}),
            (["psgi", "--instance", "yes.json"], 0, None, dec("YES"), {}),
            (["reduce", "gi-clifford", "p4.txt", "k13.txt", "--out", "no.json"], 0, "no.json",
             lambda d: "psi1" in d, {}),
            (["psgi", "--instance", "no.json", "--sweep-count", str(SWEEP_COUNT), "--seed", s(2)],
             1, None, lambda d: d.get("decision") == "NO" and d["sweep"]["exceed_count"] == 0, {}),
            (["verify", "lemma-perm", "--n", "2"], 0, None, passed, {"lemma_samples": 11520}),
            (["verify", "twirl-bound", "--instances", "50", "--seed", s(3)], 0, None, passed, {}),
            (["verify", "helper-gapped-cv", "--count", "100", "--seed", s(4)], 0, None, passed, {}),
            (["verify", "trace-transfer", "--count", "50", "--seed", s(5)], 0, None, passed, {}),
            (["verify", "shadow-unbiased", "--seed", s(6)], 0, None, passed, {}),
            (["protocol", "qcszk", "--trials", str(qcszk_trials), "--shadows", str(qcszk_shadows),
              "--seed", s(7)], 0, None,
             lambda d: d["trials"] == qcszk_trials,
             {"no_instances": 1, "shadows": 2 * qcszk_trials * qcszk_shadows}),
            (["protocol", "qszk-mixed", "--k", "4", "--trials", "50", "--seed", s(8)], 0, None,
             lambda d: d["trials"] == 50, {}),
            (["protocol", "szk-lowrank", "--trials", "1", "--seed", s(10)], 0, None,
             lambda d: d["trials"] == 1, {}),
            (["bosonic", "encode", "p4.txt", "--out", "c1.json"], 0, "c1.json",
             lambda d: d["n_modes"] == 4, {}),
            (["bosonic", "encode", "k13.txt", "--out", "c2.json"], 0, "c2.json",
             lambda d: d["n_modes"] == 4, {}),
            (["bosonic", "optimize", "c1.json", "c2.json", "--restarts", "2", "--seed", s(9)], 0,
             None, lambda d: 0 <= d["best_abs"] <= BOSONIC_CAP, {"restarts": 2}),
        ]
        return [(c[0][0], lambda c=c: self._invoke(*c)) for c in cmds]


WORKLOADS = {w.name: w for w in (CliffordSweep, BosonicOptimize, CliReadme)}


# ----------------------------------------------------------------------
# Probes that run once per traced run, outside the timed phases
# ----------------------------------------------------------------------

def cli_startup_ms(root: str, workdir: str, repeats: int = 3) -> float:
    """Median wall time of interpreter start plus ``import stateiso.cli``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import stateiso.cli"], cwd=workdir,
                       env=cli_env(root), capture_output=True, timeout=120, check=True)
        times.append(time.perf_counter() - t0)
    times.sort()
    return 1e3 * times[len(times) // 2]


def bad_input_exit_codes(root: str, workdir: str) -> dict:
    """Exit codes of three malformed inputs that the exit-code contract
    says must exit 2 (configuration error)."""
    state = {"n_qubits": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    bundle = {"version": 1, "type": "psgi", "psi2": state,
              "group": {"type": "pauli", "n": 1}, "alpha": 0.6, "beta": 0.99}
    files = {
        "no_psi1.json": json.dumps(bundle),
        "trace2.json": json.dumps({"n_qubits": 1,
                                   "matrix": [[[2, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "pure.json": json.dumps({"n_qubits": 1,
                                 "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}),
        "iso1.txt": P4, "iso2.txt": relabel_edges(P4, (3, 2, 1, 0)),
    }
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    codes = {}
    codes["psgi-bundle-without-psi1"], _ = run_cli(
        root, workdir, ["psgi", "--instance", "no_psi1.json"])
    made, _ = run_cli(root, workdir, ["reduce", "gi-lowrank", "iso1.txt", "iso2.txt",
                                      "--out", "lowrank.json"])
    if made != 0:
        raise RuntimeError(f"reduce gi-lowrank exited {made}")
    codes["psgi-isomorphic-gi-lowrank-bundle"], _ = run_cli(
        root, workdir, ["psgi", "--instance", "lowrank.json"])
    codes["reduce-qsd-msgi-trace-2"], _ = run_cli(
        root, workdir, ["reduce", "qsd-msgi", "trace2.json", "pure.json"])
    return codes
