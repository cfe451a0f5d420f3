"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or read the
captured output).  The criteria exercise the full stack at its stated
tolerances; seeds are fixed so every run is reproducible.
"""
import math

import numpy as np
import pytest

from stateiso.bosonic import (
    CoreState,
    ModeUnitary,
    MultiIndex,
    apply_linear_optical,
    core_overlap,
    cubic_overlap,
    encode_graph_bosonic,
    haar_mode_unitary,
    nearest_permutation_phase,
    optimize_overlap,
    permutation_mode_unitary,
    perturbed_permutation_unitary,
)
from stateiso.graphs import Graph, find_isomorphism
from stateiso.groups import (
    DecisionThresholds,
    check_twirl_fidelity_bound,
    cyclic_group,
    k_twirl,
    pauli_group,
    z2k_group,
)
from stateiso.linalg import (
    DensityMatrix,
    StateVector,
    fidelity_matrices,
    random_density,
    sqrt_fidelity,
)
from stateiso.paulis import PauliOp, pauli_expectation, r_state_product, COS8, SIN8
from stateiso.protocols import (
    qcszk_context,
    qcszk_round,
    qszk_mixed_context,
    qszk_mixed_round,
    run_trials,
)
from stateiso.psgi import (
    PsgiInstance,
    pauli_psgi_quantum,
    psgi_oracle,
    psgi_to_statehsp,
    random_pauli_psgi_instance,
    random_state,
)
from stateiso.reductions import (
    MsgiInstance,
    NONISO_LIBRARY,
    clifford_overlap_sweep,
    gi_to_clifford,
    lowrank_thresholds,
    qsd_to_mixed_hsp,
    trace_distance_transfer,
    verify_lemma_perm,
)

THRESHOLDS = DecisionThresholds(0.6, 0.99)


def _report(criterion, passed, detail=""):
    line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_1_solver_oracle_agreement():
    """Quantum solver vs oracle on 100 promise-respecting instances per n."""
    agree = 0
    total = 0
    witness_ok = True
    for n in (1, 2):
        rng = np.random.default_rng(100 + n)
        for trial in range(100):
            # NO instances are only satisfiable at alpha = 0.6 for n >= 2
            kind = "yes" if n == 1 or trial % 2 == 0 else "no"
            inst = random_pauli_psgi_instance(n, THRESHOLDS, kind, rng)
            ref = psgi_oracle(inst)
            got = pauli_psgi_quantum(inst, seed=trial)
            total += 1
            agree += got.decision == ref.decision
            if got.decision == "YES":
                ph, x, z = got.witness
                p = PauliOp(n, ph, x, z)
                ov = np.vdot(inst.psi1.amplitudes, p.apply(inst.psi2.amplitudes))
                witness_ok = witness_ok and ov.real >= THRESHOLDS.beta - 1e-8
    rate = agree / total
    _report(1, rate >= 0.99 and witness_ok,
            f"agreement {rate:.3f} on {total} instances, witnesses re-verified")


def test_criterion_2_lemma_perm():
    """High-overlap Cliffords are qubit permutations: n=2 exhaustive, n=3
    sampled at one million."""
    r2 = verify_lemma_perm(2, mode="exhaustive")
    r3 = verify_lemma_perm(3, mode="sampled", samples=1_000_000, seed=0)
    ok = (not r2["violations"] and not r3["violations"]
          and r2["above_threshold"] == r2["permutations"]
          and r2["checked"] == 11520 and r3["checked"] == 1_000_000)
    _report(2, ok,
            f"n=2: {r2['above_threshold']} above threshold, all permutations; "
            f"n=3: {r3['above_threshold']}/{r3['checked']} above, 0 violations")


def test_criterion_3_gi_clifford():
    """Isomorphic pairs reach overlap 1 via the relabeling permutation;
    100k random Cliffords never exceed 0.99999 on non-isomorphic pairs."""
    iso_ok = True
    rng = np.random.default_rng(3)
    for n in (3, 4, 5):
        for base in (Graph.path(n), Graph.cycle(n), Graph.star(n)):
            perm = tuple(int(i) for i in rng.permutation(n))
            inst = gi_to_clifford(base, base.relabel(perm))
            c = inst.permutation_witness()
            iso_ok = iso_ok and c is not None and abs(inst.overlap(c) - 1) < 1e-9
    sweep_ok = True
    max_seen = 0.0
    for i, (g1, g2) in enumerate(NONISO_LIBRARY):
        inst = gi_to_clifford(g1, g2)
        rpt = clifford_overlap_sweep(inst.psi1, inst.psi2, 100_000, seed=i,
                                     threshold=0.99999)
        sweep_ok = sweep_ok and rpt["exceed_count"] == 0
        max_seen = max(max_seen, rpt["max_overlap"])
    _report(3, iso_ok and sweep_ok,
            f"9 isomorphic pairs exact; noniso max overlap {max_seen:.4f} "
            f"over 3x100k Cliffords")


def test_criterion_4_twirl_fidelity_bound():
    """F(E(rho), E(sigma)) <= |S| max pairwise F on 1000 instances, and the
    k-twirl decay F <= |G| eps^k for k = 1..4."""
    rng = np.random.default_rng(4)
    reps = [pauli_group(1), cyclic_group(8, "shift"), z2k_group(2),
            cyclic_group(16, "phase")]
    min_slack = math.inf
    for _ in range(1000):
        rep = reps[int(rng.integers(len(reps)))]
        rpt = check_twirl_fidelity_bound(rep, random_density(rep.dim, rng),
                                         random_density(rep.dim, rng))
        min_slack = min(min_slack, rpt.slack)
    decay_ok = True
    rep = z2k_group(1)
    for _ in range(25):
        rho = random_density(2, rng)
        sigma = random_density(2, rng)
        eps = max(
            fidelity_matrices(rho.matrix,
                              rep.unitary(w) @ sigma.matrix @ rep.unitary(w).conj().T)
            for w in rep.elements)
        for k in range(1, 5):
            f = sqrt_fidelity(k_twirl(rep, rho, k), k_twirl(rep, sigma, k))
            decay_ok = decay_ok and f <= rep.order * eps**k + 1e-7
    _report(4, min_slack >= -1e-7 and decay_ok,
            f"min slack {min_slack:.2e} over 1000 instances; k-decay holds")


def test_criterion_5_trace_distance_transfer():
    """||rho - R'(h) rho R'(h)^dag||_1 equals ||sigma1 - sigma2||_1."""
    rng = np.random.default_rng(5)
    rep = pauli_group(1)
    def _usable(g):
        u = rep.unitary(g)
        if not np.allclose(u @ u, np.eye(2)):
            return False
        # scalar multiples of the identity have no +-1 eigenvalue pair
        return not np.allclose(u, u[0, 0] * np.eye(2))

    involutions = [g for g in rep.elements if _usable(g)]
    worst = 0.0
    for _ in range(200):
        s1 = random_density(2, rng)
        s2 = random_density(2, rng)
        h = involutions[int(rng.integers(len(involutions)))]
        inst = qsd_to_mixed_hsp(s1, s2, rep, h)
        lhs, rhs = trace_distance_transfer(inst, s1, s2)
        worst = max(worst, abs(lhs - rhs))
    _report(5, worst <= 1e-7, f"worst gap {worst:.2e} over 200 triples")


def test_criterion_6_bosonic_encoding():
    """Permanent/substitution equivalence, Hong-Ou-Mandel, isomorphic
    relabeling, and the gapped-residual bound."""
    rng = np.random.default_rng(6)
    # (a) permanent vs substitution on 200 random cases
    equiv_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, 4))
        basis = _random_core_basis(n, r, rng)
        v = haar_mode_unitary(n, rng)
        a = apply_linear_optical(v, basis, method="substitution")
        b = apply_linear_optical(v, basis, method="permanent")
        equiv_ok = equiv_ok and abs(core_overlap(a, b) - 1) < 1e-9
    # (b) Hong-Ou-Mandel
    bs = ModeUnitary(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    out = apply_linear_optical(bs, CoreState(2, 2, {MultiIndex((1, 1)): 1.0}))
    hom_ok = (abs(out.amplitudes.get(MultiIndex((1, 1)), 0)) < 1e-12
              and abs(abs(out.amplitudes[MultiIndex((2, 0))]) - 1 / math.sqrt(2)) < 1e-12)
    # (c) isomorphic encoded graphs reach overlap 1 under relabeling
    iso_ok = True
    for n in (3, 4):
        g1 = Graph.path(n)
        perm = tuple(int(i) for i in rng.permutation(n))
        g2 = g1.relabel(perm)
        c1 = encode_graph_bosonic(g1)
        c2 = encode_graph_bosonic(g2)
        inv = find_isomorphism(g2, g1)
        moved = apply_linear_optical(permutation_mode_unitary(inv, n), c2)
        iso_ok = iso_ok and abs(abs(core_overlap(c1, moved)) - 1) < 1e-9
    # (d) residual bound on 500 unitaries in the delta regime
    checked = 0
    bound_ok = True
    while checked < 500:
        n = int(rng.integers(2, 6))
        v = perturbed_permutation_unitary(rng, n, 0.25 / n)
        delta = 1 - cubic_overlap(v).real
        if not 0 <= delta < 0.38 / n:
            continue
        proj = nearest_permutation_phase(v)
        if proj.collision:
            continue
        checked += 1
        bound_ok = bound_ok and proj.residual <= math.sqrt(3 * n * delta) + 1e-9
    _report(6, equiv_ok and hom_ok and iso_ok and bound_ok,
            "permanent/substitution, HOM, relabeling, residual bound all hold")


def _random_core_basis(n, r, rng, n_terms=4):
    from stateiso.bosonic import sector_basis
    basis = sector_basis(n, r)
    picks = rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False)
    amps = {basis[i]: complex(rng.normal(), rng.normal()) for i in picks}
    nrm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return CoreState(n, r, {k: a / nrm for k, a in amps.items()})


def test_criterion_7_bosonic_soundness():
    """P4 vs K_{1,3}: 50 optimizer restarts never beat 1 - 1/(96 * 4^5)."""
    c1 = encode_graph_bosonic(Graph.path(4))
    c2 = encode_graph_bosonic(Graph.star(4))
    _, best_abs, best_re = optimize_overlap(c1, c2, restarts=50, seed=7)
    cap = lowrank_thresholds(4).alpha  # 1 - 1/98304
    _report(7, best_abs <= cap,
            f"best |overlap| {best_abs:.6f} <= {cap:.6f} "
            f"(evidence: Re {best_re:.6f}, 50 restarts)")


def test_criterion_8_protocol_gaps():
    """qcszk near-1 on non-isomorphic, 1/2 +- 0.02 on isomorphic (1e4
    trials); qszk-mixed reproduces the twirled-distance split."""
    rng = np.random.default_rng(8)
    iso = random_pauli_psgi_instance(2, THRESHOLDS, "yes", rng)
    noniso = random_pauli_psgi_instance(2, THRESHOLDS, "no", rng)
    ctx_iso = qcszk_context(iso)
    ctx_no = qcszk_context(noniso)
    iso_rate = run_trials(
        lambda s: qcszk_round(iso, n_shadows=500, seed=s, context=ctx_iso),
        trials=10_000, seed=0)["accept_rate"]
    no_rate = run_trials(
        lambda s: qcszk_round(noniso, n_shadows=800, seed=s, context=ctx_no),
        trials=2_000, seed=0)["accept_rate"]
    qcszk_ok = abs(iso_rate - 0.5) <= 0.02 and no_rate >= 0.9

    rep = pauli_group(2)
    s1 = random_density(4, rng)
    g = rep.elements[7]
    u = rep.unitary(g)
    miso = MsgiInstance(s1, DensityMatrix(2, u @ s1.matrix @ u.conj().T),
                        rep, THRESHOLDS)
    mfar = MsgiInstance(
        StateVector(2, np.array([1, 0, 0, 0], dtype=complex)).density(),
        StateVector(2, np.full(4, 0.5, dtype=complex)).density(),
        rep, THRESHOLDS)
    k = 4
    ctx_miso = qszk_mixed_context(miso, k)
    ctx_mfar = qszk_mixed_context(mfar, k)
    dist_ok = ctx_miso["distance"] <= 1 / 3 and ctx_mfar["distance"] >= 0.9
    r_iso = run_trials(
        lambda s: qszk_mixed_round(miso, k, s, context=ctx_miso),
        trials=4000, seed=1)["accept_rate"]
    r_far = run_trials(
        lambda s: qszk_mixed_round(mfar, k, s, context=ctx_mfar),
        trials=4000, seed=1)["accept_rate"]
    gap_ok = (r_far - r_iso) >= 0.3
    _report(8, qcszk_ok and dist_ok and gap_ok,
            f"qcszk iso {iso_rate:.3f} / noniso {no_rate:.3f}; "
            f"twirled D iso {ctx_miso['distance']:.2e} far {ctx_mfar['distance']:.4f}; "
            f"accept gap {r_far - r_iso:.3f}")


def test_criterion_9_dihedral_identities():
    """<Psi|R'(h,1)|Psi> = Re<psi1|R(h)|psi2>, and the m-copy power form."""
    rng = np.random.default_rng(9)
    worst_single = 0.0
    worst_power = 0.0
    cases = 0
    while cases < 200:
        rep = cyclic_group(4, "shift") if cases % 2 else z2k_group(2)
        psi1 = random_state(2, rng)
        psi2 = random_state(2, rng)
        inst = PsgiInstance(psi1, psi2, rep, THRESHOLDS)
        phi1, drep, _ = psgi_to_statehsp(inst, m=1)
        phi2, _, _ = psgi_to_statehsp(inst, m=2)
        h = rep.elements[int(rng.integers(rep.order))]
        u = drep.unitary((h, 1))
        want = np.vdot(psi1.amplitudes, rep.unitary(h) @ psi2.amplitudes).real
        got = np.vdot(phi1.amplitudes, u @ phi1.amplitudes)
        worst_single = max(worst_single, abs(got - want))
        got2 = np.vdot(phi2.amplitudes, np.kron(u, u) @ phi2.amplitudes)
        worst_power = max(worst_power, abs(got2 - want**2))
        cases += 1
    _report(9, worst_single <= 1e-8 and worst_power <= 1e-8,
            f"worst single {worst_single:.2e}, worst 2-copy {worst_power:.2e}")


def test_criterion_10_r_state_expectations():
    """<R^n|X_i|R^n> = cos(pi/8), Y_i -> sin(pi/8), Z_i -> 0, to 1e-12."""
    worst = 0.0
    for n in (1, 2, 3):
        psi = r_state_product(n)
        for i in range(n):
            ex = pauli_expectation(psi, PauliOp.single(n, i, "X")).real
            ey = pauli_expectation(psi, PauliOp.single(n, i, "Y")).real
            ez = pauli_expectation(psi, PauliOp.single(n, i, "Z")).real
            worst = max(worst, abs(ex - COS8), abs(ey - SIN8), abs(ez))
    _report(10, worst <= 1e-12, f"worst deviation {worst:.2e}")
