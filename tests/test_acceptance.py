"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import contextlib
import dataclasses
import time
import warnings

import numpy as np
import pytest

from haarrect.errors import CoreAxiomError, InvarianceError
from haarrect.groupoids import (
    FiniteGroup,
    attach_haar_density,
    build_action_groupoid,
    build_core,
    build_pair_groupoid,
    validate_groupoid,
)
from haarrect.groups import (
    AmbientSets,
    GroupElement,
    exp_map,
    left_distance,
    log_map,
    revalidate_bch_constants,
)
from haarrect.harness import (
    ConstantsSpec,
    GroupoidSpec,
    MorphismSpec,
    PerturbationSpec,
    algebra_for,
    build_groupoid,
    constants_for,
    generate_exact_morphism,
    perturb_morphism,
)
from haarrect.harness import GroupSpec
from haarrect.holo import (
    average_callable,
    build_complexified_model,
    core_average_function,
    cr_convergence_order,
    real_restriction_check,
    sample_function,
)
from haarrect.rectifier import (
    admissible_defect_radius,
    correct_once,
    defect,
    iterate,
    verify_core_morphism,
)

TOL = 1e-12

# groupoid spec, (W, K) per target group tag
COMBOS = [
    (GroupoidSpec(constructor="pair", size=3),
     {"U1": (1.5, 2.5), "SO3": (1.5, 2.5), "SU2": (1.5, 2.5)}),
    (GroupoidSpec(constructor="pair", size=5),
     {"U1": (1.5, 2.5), "SO3": (1.5, 2.5), "SU2": (1.5, 2.5)}),
    (GroupoidSpec(constructor="action", group_order=2, space_size=1),
     {"U1": (2.2, 3.2), "SO3": (3.5, 4.5), "SU2": (1.5, 2.5)}),
    (GroupoidSpec(constructor="action", group_order=3, space_size=3),
     {"U1": (1.5, 2.5), "SO3": (2.3, 3.3), "SU2": (4.5, 5.5)}),
]
TAGS = ("U1", "SO3", "SU2")


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _instance(spec, radii, tag, seed, epsilon):
    """Build one perturbed run instance with its constants."""
    alg = algebra_for(GroupSpec(tag=tag))
    W, K = radii
    k = constants_for(alg, ConstantsSpec(W_radius=W, K_radius=K, seed=101))
    g = build_groupoid(spec)
    core = build_core(g, tuple(range(g.n_arrows)))
    mu = attach_haar_density(core, "uniform")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # expected substitution
        phi_exact, _ = generate_exact_morphism(g, spec, alg,
                                               MorphismSpec(seed=seed))
    adm = admissible_defect_radius(k)
    eps = epsilon
    while True:
        phi0 = perturb_morphism(phi_exact, alg,
                                PerturbationSpec(epsilon=eps, seed=seed + 1),
                                g=g, W_radius=W)
        if defect(phi0, core, alg) <= adm:
            break
        eps *= 0.5
    return {
        "tag": tag, "alg": alg, "constants": k, "g": g, "core": core,
        "mu": mu, "phi0": phi0, "sets": AmbientSets(W, K),
    }


@pytest.fixture(scope="module")
def contraction_runs():
    """The 50 seeded certified runs shared by criteria 2, 3, 4 and 5."""
    t0 = time.perf_counter()
    runs = []
    for i in range(50):
        spec, radii_map = COMBOS[i % len(COMBOS)]
        tag = TAGS[(i // len(COMBOS)) % len(TAGS)]
        inst = _instance(spec, radii_map[tag], tag, seed=100 + i, epsilon=0.01)
        limit, trace = iterate(inst["phi0"], inst["core"], inst["mu"],
                               inst["alg"], inst["constants"],
                               sets=inst["sets"], tol=TOL, max_iter=50)
        inst["limit"], inst["trace"] = limit, trace
        runs.append(inst)
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_fixed_point_exactness(algebras):
    count = 0
    t0 = time.perf_counter()
    worst_move, worst_defect = 0.0, 0.0
    for i in range(20):
        spec, _ = COMBOS[i % len(COMBOS)]
        tag = TAGS[(i // len(COMBOS)) % len(TAGS)]
        alg = algebras[tag]
        g = build_groupoid(spec)
        core = build_core(g, tuple(range(g.n_arrows)))
        mu = attach_haar_density(core, "uniform")
        expect_warn = (tag, spec.constructor, spec.group_order) == \
            ("SU2", "action", 2)
        with pytest.warns(UserWarning) if expect_warn else contextlib.nullcontext():
            phi, _ = generate_exact_morphism(g, spec, alg,
                                             MorphismSpec(seed=i))
        out = correct_once(phi, core, mu, alg)
        move = max(left_distance(phi.values[p], out.values[p], alg)
                   for p in range(g.n_arrows))
        worst_move = max(worst_move, move)
        worst_defect = max(worst_defect, defect(out, core, alg))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = (count == 20 and worst_move <= 1e-14 and worst_defect <= 1e-14
          and elapsed < 1.0)
    _report(1, ok, f"20 exact morphisms fixed (move {worst_move:.2e}, "
                   f"defect {worst_defect:.2e}, {elapsed:.2f}s)")


def test_criterion_2_quadratic_contraction(contraction_runs):
    runs, elapsed = contraction_runs
    ok = len(runs) == 50
    worst_iters = 0
    for inst in runs:
        tr = inst["trace"]
        k = inst["constants"]
        ok = ok and tr.deltas[0] <= admissible_defect_radius(k)
        for n in range(tr.iterations):
            # verbatim polynomial, recomputed here
            qn = (2.0 * k.c * k.c_l
                  * (k.d_prime * k.c_l + 2.0 * k.d_prime
                     + k.c * k.c_l * tr.deltas[n])
                  / k.d_prime ** 2 * tr.deltas[n] ** 2)
            ok = ok and tr.deltas[n + 1] <= qn + 1e-12
        ok = ok and tr.deltas[-1] < 1e-12 and tr.iterations <= 10
        worst_iters = max(worst_iters, tr.iterations)
    ok = ok and elapsed < 30.0
    _report(2, ok, f"50 runs certified, max {worst_iters} iterations, "
                   f"{elapsed:.1f}s")


def test_criterion_3_in_proof_bounds(contraction_runs):
    runs, _ = contraction_runs
    ok = True
    for inst in runs:
        tr, k = inst["trace"], inst["constants"]
        for n in range(tr.iterations):
            ok = ok and tr.correction_norms[n] <= \
                (k.d / k.d_prime) * tr.deltas[n] + 1e-9
            ok = ok and tr.step_moves[n] <= 1.0 / k.c_d + 1e-12
        ok = ok and all(tr.correction_bound_ok) and all(tr.step_bound_ok)
    _report(3, ok, "correction and step bounds hold on all certified runs")


def test_criterion_4_limit_morphism(contraction_runs):
    runs, _ = contraction_runs
    worst = 0.0
    ok = True
    for inst in runs:
        k = inst["constants"]
        bound = (k.d_prime / k.d) * TOL
        res_core = verify_core_morphism(inst["limit"], inst["core"], inst["alg"])
        res_full = verify_core_morphism(inst["limit"], inst["core"], inst["alg"],
                                        full=True)
        ok = ok and res_core <= bound and res_full <= bound
        worst = max(worst, res_full)
    _report(4, ok, f"core and full morphism residuals <= (d'/d)*tol "
                   f"(worst {worst:.2e})")


def test_criterion_5_abelian_one_step(contraction_runs):
    runs, _ = contraction_runs
    u1_runs = [inst for inst in runs if inst["tag"] == "U1"]
    ok = len(u1_runs) >= 10
    for inst in u1_runs:
        tr = inst["trace"]
        ok = ok and tr.iterations == 1 and tr.deltas[1] <= 1e-13
        # closed-form abelian cocycle oracle for the first (only) step
        g, core, mu = inst["g"], inst["core"], inst["mu"]
        theta = np.angle(inst["phi0"].values[:, 0, 0])
        theta_hat = theta.copy()
        for p in range(g.n_arrows):
            acc = 0.0
            for kk in core.fiber_at(int(g.target[p])):
                kp = g.compose(kk, p)
                delta = np.angle(np.exp(1j * (theta[kp] - theta[kk] - theta[p])))
                acc += mu.weight(kk) * delta
            theta_hat[p] = theta[p] + acc
        oracle = np.exp(1j * theta_hat)
        ok = ok and np.abs(inst["limit"].values[:, 0, 0] - oracle).max() <= 1e-13
    _report(5, ok, f"{len(u1_runs)} abelian runs exact after one step, "
                   f"matching the cocycle oracle")


def test_criterion_6_bch_constants_validity(algebras, constants, oracles):
    ok = True
    for tag in TAGS:
        v1, v2, v3 = revalidate_bch_constants(
            algebras[tag], constants[tag],
            sample_count=constants[tag].sample_count, seed=777,
        )
        ok = ok and v1 <= 1e-12 and v2 <= 1e-12 and v3 <= 1e-12
    alg = algebras["SO3"]
    u = np.array([0.2, 0.0, 0.0])
    v = np.array([0.0, 0.2, 0.0])
    g = exp_map(u, alg).matrix @ exp_map(v, alg).matrix
    gap = alg.norm(log_map(GroupElement(g, "SO3"), alg).coords - (u + v))
    w_oracle = oracles["quat_log"](oracles["quat_mul"](
        oracles["quat_exp"](u), oracles["quat_exp"](v)))
    gap_oracle = np.linalg.norm(w_oracle - (u + v))
    ok = ok and abs(gap - gap_oracle) <= 0.05 * gap_oracle
    _report(6, ok, f"disjoint-seed revalidation clean; witness gap {gap:.6f} "
                   f"vs oracle {gap_oracle:.6f}")


def test_criterion_7_holomorphic_bench():
    t0 = time.perf_counter()
    model = build_complexified_model(space_radius=1.0, eta_max=0.2,
                                     n_theta=32, n_space=9, n_eta=5, n_shells=3)
    inv = lambda z1, z2: z1 * z1 + z2 * z2
    invariant_err = float(np.abs(
        core_average_function(inv, model).values
        - sample_function(inv, model).values).max())
    mode = float(np.abs(core_average_function(
        lambda z1, z2: z1 + 1j * z2, model).values).max())
    mode2 = float(np.abs(core_average_function(
        lambda z1, z2: (z1 + 1j * z2) ** 2 * (z1 - 1j * z2), model).values).max())
    avg = average_callable(lambda z1, z2: np.exp(z1 + 2 * z2), model)
    slope, _ = cr_convergence_order(avg, center=(0.3, 0.05, 0.2, -0.05))
    rng = np.random.default_rng(11)
    co = rng.normal(size=5) + 1j * rng.normal(size=5)

    def trig(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return co[0] + co[1] * wp + co[2] * wm + co[3] * wp * wm + co[4] * wp ** 3

    restriction = real_restriction_check(trig, model)
    elapsed = time.perf_counter() - t0
    ok = (invariant_err <= 1e-13 and mode <= 1e-13 and mode2 <= 1e-13
          and slope >= 1.9 and restriction <= 1e-13 and elapsed < 10.0)
    _report(7, ok, f"invariant {invariant_err:.1e}, modes {max(mode, mode2):.1e}, "
                   f"slope {slope:.2f}, restriction {restriction:.1e}, "
                   f"{elapsed:.1f}s")


def test_criterion_8_axiom_validators():
    ok = True
    # clean constructions pass, exhaustively below 200 arrows
    big_pair = build_pair_groupoid(tuple(range(14)))       # 196 arrows
    ok = ok and big_pair.n_arrows == 196
    ok = ok and validate_groupoid(big_pair).passed
    act = build_action_groupoid(FiniteGroup.cyclic(4), (0, 1),
                                lambda a, x: (x + a) % 2)
    ok = ok and validate_groupoid(act).passed

    # corrupted compose entry: the witness names the corrupted pair
    small = build_pair_groupoid(tuple(range(5)))
    q, p = 2 * 5 + 1, 1 * 5 + 0
    bad_products = small.products.copy()
    row = np.flatnonzero((bad_products[:, 0] == q) & (bad_products[:, 1] == p))
    bad_products[row, 2] = 3 * 5 + 0
    corrupted = dataclasses.replace(small, products=bad_products)
    report = validate_groupoid(corrupted)
    ok = ok and not report.passed
    ok = ok and any(q in w and p in w for _, w in report.violations
                    if isinstance(w, tuple))

    # missing core fiber: Lie-type violation with the object witness
    g3 = build_action_groupoid(FiniteGroup.cyclic(3), (0, 1, 2),
                               lambda a, x: (x + a) % 3)
    try:
        build_core(g3, tuple(a for a in range(9) if g3.source[a] != 1))
        ok = False
    except CoreAxiomError as err:
        ok = ok and err.axiom == "Lie type" and err.witness == 1

    # non-invariant weights: witness pair actually violates invariance
    core = build_core(g3, tuple(range(9)))
    weights = {}
    for z, fiber in core.s_fibers.items():
        for w, a in zip((0.5, 0.3, 0.2), fiber):
            weights[a] = w
    try:
        attach_haar_density(core, weights)
        ok = False
    except InvarianceError as err:
        kp, kk = err.witness
        moved = g3.compose(kp, kk)
        norm = {z: sum(weights[a] for a in f) for z, f in core.s_fibers.items()}
        wn = {a: weights[a] / norm[int(g3.source[a])] for a in range(9)}
        ok = ok and abs(wn[moved] - wn[kp]) > 1e-14
    _report(8, ok, "fault injections produce correct witnesses; "
                   "clean instances (196 arrows) validate exhaustively")
