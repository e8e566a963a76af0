import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from haarrect import harness
from haarrect.cli import HOLO_KEYS, main
from haarrect.errors import (
    ActionError,
    ConfigError,
    CoreAxiomError,
    DefectOverflow,
    InvarianceError,
    LogDomainError,
    NonContraction,
    RangeEscape,
)
from haarrect.groupoids import build_core
from haarrect.groups import BchConstants
from haarrect.harness import (
    EXIT_NON_CONTRACTION,
    EXIT_NUMERIC_DOMAIN,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ExperimentConfig,
    GroupoidSpec,
    HoloSpec,
    MorphismSpec,
    PerturbationSpec,
    _atomic_write,
    build_groupoid,
    exit_code_for,
    generate_exact_morphism,
    perturb_morphism,
    recompute_pass_from_trace,
    run_experiment,
    validate_config,
)
from haarrect.rectifier import defect, q_bound


def bundled(name):
    return ExperimentConfig.from_json(os.path.join(CONFIG_DIR, name))


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_config_round_trip_and_digest():
    cfg = bundled("so3_pair5.json")
    assert cfg.group.tag == "SO3"
    assert cfg.perturbation.epsilon == 0.01
    again = ExperimentConfig.from_dict(json.loads(
        json.dumps({
            "group": {"tag": "SO3", "raw_norm": "euclid"},
            "groupoid": {"constructor": "pair", "size": 5},
            "morphism": {"kind": "auto", "seed": 11, "scale": 0.25},
            "perturbation": {"epsilon": 0.01, "seed": 7, "side": "right",
                             "perturb_units": True},
            "constants": {"sample_count": 2000, "safety_factor": 1.25,
                          "W_radius": 1.5, "K_radius": 2.5, "seed": 101},
            "iteration": {"tol": 1e-12, "max_iter": 50},
            "output": {"trace": "so3_pair5_trace.csv",
                       "report": "so3_pair5_report.json"},
        })
    ))
    assert again.digest() == cfg.digest()


def test_config_rejects_bad_radii():
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict(
            {"constants": {"W_radius": 2.5, "K_radius": 1.5}}
        )


@pytest.mark.parametrize("config, message", [
    # a misspelled section used to pass silently with its defaults
    ({"perturbaton": {"epsilon": 0.01}}, "unknown config key 'perturbaton'"),
    ({"group": {"tag": "SO3", "norm": "euclid"}},
     "unknown config key 'group.norm'"),
    ({"groupoid": {"constructor": "action", "group_order": 3,
                   "space_size": 2}},
     "cyclic(3) does not act on 2 points"),
    # bad values, as opposed to keys
    ({"group": {"tag": "SO4"}}, "group.tag: unknown group 'SO4'"),
    ({"group": {"raw_norm": "l1"}}, "group.raw_norm: unknown norm 'l1'"),
    ({"groupoid": {"size": 0}}, "groupoid.size must be a positive integer"),
    ({"groupoid": {"constructor": "action", "group_order": 0,
                   "space_size": 1}},
     "groupoid.group_order must be a positive integer"),
    ({"groupoid": {"constructor": "action", "group_order": 2,
                   "space_size": 0}},
     "groupoid.space_size must be a positive integer"),
    ({"density": {"weights": {"0": -1}}},
     "density.weights: no weight for core arrow 1"),
    ({"density": {"weights": {str(a): -1 if a == 0 else 1
                              for a in range(9)}}},
     "density.weights: negative or non-finite weight"),
    ({"constants": {"sample_count": 999}},
     "constants.sample_count must be an integer >= 1000, not 999"),
    ({"constants": {"sample_count": 2000.5}},
     "constants.sample_count must be an integer >= 1000"),
    ({"constants": {"safety_factor": 0.5}},
     "constants.safety_factor must be a finite number >= 1, not 0.5"),
    ({"constants": {"seed": -1}},
     "constants.seed must be a non-negative integer, not -1"),
    ({"morphism": {"seed": 1.5}},
     "morphism.seed must be a non-negative integer, not 1.5"),
    ({"perturbation": {"seed": "7"}},
     "perturbation.seed must be a non-negative integer, not '7'"),
    ({"iteration": {"tol": "nan"}},
     "iteration.tol must be a finite non-negative number, not 'nan'"),
    ({"iteration": {"tol": -1}},
     "iteration.tol must be a finite non-negative number, not -1"),
    ({"iteration": {"max_iter": -1}},
     "iteration.max_iter must be a non-negative integer, not -1"),
    ({"iteration": {"max_iter": True}},
     "iteration.max_iter must be a non-negative integer, not True"),
    ({"morphism": {"scale": "big"}},
     "morphism.scale must be a finite number, not 'big'"),
    ({"perturbation": {"side": "up"}},
     "perturbation.side must be one of right, left, not 'up'"),
    # an unknown kind used to run with the defaults and pass
    ({"morphism": {"kind": "weird"}},
     "morphism.kind must be one of auto, coboundary, homomorphism, trivial, "
     "not 'weird'"),
    # sized before allocation: pair(3000) used to ask numpy for 603 GiB
    ({"groupoid": {"size": 3000}},
     "groupoid.size: 27000000000 product-table entries are above the cap of "
     "10000000"),
    ({"groupoid": {"size": 216}}, "groupoid.size: 10077696 product-table"),
    ({"groupoid": {"constructor": "action", "group_order": 4000,
                   "space_size": 1}},
     "groupoid.group_order, groupoid.space_size: 16000000 product-table"),
    # an unhashable tag ended in a TypeError traceback with exit 1
    ({"group": {"tag": [0]}}, "group.tag: unknown group [0]"),
    ({"group": {"tag": {}}}, "group.tag: unknown group {}"),
    # 10^9 samples ended in numpy's _ArrayMemoryError under a 3 GB limit
    ({"constants": {"sample_count": 10 ** 9}},
     "constants.sample_count must be at most 1000000, not 1000000000"),
    # these ended in a FileNotFoundError and an OverflowError traceback
    ({"output": {"trace": "a/b.csv"}},
     "output.trace must be a file name, not 'a/b.csv'"),
    ({"density": {"weights": {"0": 10 ** 400}}},
     "density.weights: int too large to convert to float"),
])
def test_cli_rejects_bad_config_with_one_line_error(tmp_path, capsys, config,
                                                    message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    for argv in (["run", "--config", str(path), "--out", str(tmp_path)],
                 ["validate", "--config", str(path)]):
        assert main(argv) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and message in err
        assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["bad.json"]


def test_cli_bench_holo_rejects_unknown_key(tmp_path, capsys):
    with open(os.path.join(CONFIG_DIR, "holo_bench.json")) as fh:
        config = json.load(fh)
    config["n_thetaa"] = config.pop("n_theta")
    path = tmp_path / "holo.json"
    for text, message in ((json.dumps(config), "unknown config key 'n_thetaa'"),
                          ("[]", "config: expected a JSON object")):
        path.write_text(text)
        assert main(["bench-holo", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and message in err
        assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["holo.json"]


def test_size_cap_allows_pair_200_and_the_largest_action():
    GroupoidSpec(size=200)              # 8 * 10^6 entries
    GroupoidSpec(size=215)
    GroupoidSpec(constructor="action", group_order=3162, space_size=1)
    with pytest.raises(ConfigError):
        GroupoidSpec(constructor="action", group_order=3162, space_size=2)


@pytest.mark.parametrize("config, message", [
    # these ended in a traceback with exit 1
    ({"n_theta": 0}, "n_theta must be an integer >= 1, not 0"),
    ({"n_space": 1}, "n_space must be an integer >= 3, not 1"),
    ({"n_shells": 0}, "n_shells must be an integer >= 1, not 0"),
    ({"n_theta": "x"}, "n_theta must be an integer >= 1, not 'x'"),
    ({"eta_max": -1}, "eta_max must be a finite positive number, not -1"),
    ({"probe_center": [1]}, "probe_center must be four finite numbers"),
    # one step fitted a NaN slope and exited 4
    ({"slope_hs": [0.01]},
     "slope_hs must be at least two distinct positive numbers, not [0.01]"),
    ({"slope_hs": [0.01, 0.01]}, "slope_hs must be at least two distinct"),
    ({"n_eta": 2.5}, "n_eta must be an integer >= 1, not 2.5"),
    ({"space_radius": "inf"}, "space_radius must be a finite positive number"),
    ({"seed": -3}, "seed must be a non-negative integer, not -3"),
    ({"report": ""}, "report must be a file name, not ''"),
    ({"n_theta": 400}, "n_theta, n_shells: 192000000 product-table entries"),
    # these ended in numpy's _ArrayMemoryError under a 3 GB limit
    ({"n_space": 201}, "n_space: 1632240801 grid points are above the cap"),
    ({"n_eta": 2 ** 40}, "n_eta: 1099511627776 eta nodes are above the cap"),
    # a valid radius whose grid values overflow: a numeric domain error,
    # where a ValueError traceback ended the run
    ({"space_radius": 1e308}, "sampled values must be finite"),
])
def test_cli_bench_holo_rejects_bad_value_with_one_line_error(tmp_path, capsys,
                                                               config, message):
    path = tmp_path / "holo.json"
    path.write_text(json.dumps(config))
    code, kind = EXIT_PRECONDITION, "ConfigError"
    if config == {"space_radius": 1e308}:
        code, kind = EXIT_NUMERIC_DOMAIN, "GridError"
    assert main(["bench-holo", "--config", str(path),
                 "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ") and message in err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["holo.json"]


def test_sample_and_grid_caps_allow_their_boundary():
    harness.ConstantsSpec(sample_count=harness.MAX_SAMPLE_COUNT)
    HoloSpec(n_space=55)                # 55^4 grid points
    HoloSpec(n_eta=harness.MAX_TABLE_ENTRIES)
    with pytest.raises(ConfigError):
        harness.ConstantsSpec(sample_count=harness.MAX_SAMPLE_COUNT + 1)
    # an even n_space is made odd: 56 gives 57^4 points
    for spec in ({"n_space": 56}, {"n_eta": harness.MAX_TABLE_ENTRIES + 1}):
        with pytest.raises(ConfigError):
            HoloSpec(**spec)


def test_holo_spec_defaults_are_the_bundled_config():
    with open(os.path.join(CONFIG_DIR, "holo_bench.json")) as fh:
        config = json.load(fh)
    assert tuple(config) == HOLO_KEYS
    defaults = HoloSpec()
    assert {key: getattr(defaults, key) for key in HOLO_KEYS} == {
        key: tuple(v) if isinstance(v, list) else v for key, v in config.items()}


def test_cli_run_core_axiom_violation_is_precondition(tmp_path, capsys):
    path = tmp_path / "core.json"
    path.write_text(json.dumps({
        "groupoid": {"constructor": "action", "group_order": 3, "space_size": 3},
        "core": {"arrows": [0, 1, 3, 4, 6, 7]},   # no fiber over object 2
    }))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) \
        == EXIT_PRECONDITION
    assert "CoreAxiomError" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (CoreAxiomError("Lie type", 0), EXIT_PRECONDITION),
    (InvarianceError("w"), EXIT_PRECONDITION),
    (ActionError("a"), EXIT_PRECONDITION),
    (RangeEscape("r"), EXIT_PRECONDITION),
    (NonContraction(1, 0.5), EXIT_NON_CONTRACTION),
    (LogDomainError("l"), EXIT_NUMERIC_DOMAIN),
    (DefectOverflow("d"), EXIT_NUMERIC_DOMAIN),
])
def test_exit_code_table(exc, code):
    assert exit_code_for(exc) == code


def test_atomic_write_uses_a_unique_temp_file(tmp_path):
    # a fixed "<path>.tmp" name is shared by every writer of the same path;
    # occupying that name must not matter
    target = tmp_path / "report.json"
    (tmp_path / "report.json.tmp").mkdir()
    _atomic_write(str(target), "one\n")
    _atomic_write(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert sorted(os.listdir(tmp_path)) == ["report.json", "report.json.tmp"]


def test_cli_runs_without_eigh(tmp_path, monkeypatch, capsys):
    # exp is closed form: no eigendecomposition on any CLI path, cold
    # normalization and constants estimation included
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(harness, "_ALG_CACHE", {})
    monkeypatch.setattr(harness, "_CONSTANTS_CACHE", {})
    names = ("so3_pair5", "su2_z3z3", "u1_onestep", "defect_too_large")
    paths = [os.path.join(CONFIG_DIR, f"{name}.json") for name in names]
    codes = [main(["run", "--config", path, "--out", str(tmp_path)])
             for path in paths]
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_PRECONDITION]
    assert [main(["validate", "--config", path]) for path in paths] \
        == [EXIT_PASS] * 4
    capsys.readouterr()


def test_cli_import_does_not_load_scipy():
    code = "import sys, haarrect.cli; print('scipy' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"



def test_cli_import_loads_no_executor_or_process_modules():
    # the holo grid sampler uses bare threads; an executor or process pool
    # module would add to the start-up of every CLI call
    code = ("import sys, haarrect.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

# ---------------------------------------------------------------------------
# exact morphisms
# ---------------------------------------------------------------------------

def test_coboundary_is_exact(algebras):
    spec = GroupoidSpec(constructor="pair", size=4)
    g = build_groupoid(spec)
    core = build_core(g, tuple(range(g.n_arrows)))
    for tag in ("U1", "SO3", "SU2"):
        alg = algebras[tag]
        phi, warns = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=5))
        assert not warns
        assert defect(phi, core, alg) <= 1e-14


def test_z2_to_so3_hom_is_half_turn(algebras):
    spec = GroupoidSpec(constructor="action", group_order=2, space_size=1)
    g = build_groupoid(spec)
    phi, warns = generate_exact_morphism(g, spec, algebras["SO3"],
                                         MorphismSpec(seed=0))
    assert not warns
    # conjugate of diag(-1, -1, 1): trace is -1, square is the identity
    m = phi.values[1].real
    assert abs(np.trace(m) + 1.0) < 1e-12
    assert np.abs(m @ m - np.eye(3)).max() < 1e-12


def test_z3_to_u1_character(algebras):
    spec = GroupoidSpec(constructor="action", group_order=3, space_size=3)
    g = build_groupoid(spec)
    phi, warns = generate_exact_morphism(g, spec, algebras["U1"],
                                         MorphismSpec(seed=1))
    assert not warns
    vals = {np.round(phi.values[a, 0, 0], 12) for a in range(g.n_arrows)}
    roots = {np.round(np.exp(2j * np.pi * k / 3), 12) for k in range(3)}
    assert vals == roots


def test_z2_to_su2_substitutes_trivial_with_warning(algebras):
    spec = GroupoidSpec(constructor="action", group_order=2, space_size=1)
    g = build_groupoid(spec)
    with pytest.warns(UserWarning):
        phi, warns = generate_exact_morphism(g, spec, algebras["SU2"],
                                             MorphismSpec(seed=0))
    assert warns
    assert np.array_equal(phi.values[1], np.eye(2, dtype=complex))


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_zero_epsilon_is_bitwise_identity(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SO3"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=2))
    out = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.0, seed=1), g=g)
    assert np.array_equal(out.values, phi.values)


def test_perturb_deterministic(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SU2"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=3))
    a = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.02, seed=9), g=g)
    b = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.02, seed=9), g=g)
    assert np.array_equal(a.values, b.values)


def test_perturb_defect_bound_and_bruteforce(algebras, constants):
    spec = GroupoidSpec(constructor="pair", size=4)
    g = build_groupoid(spec)
    core = build_core(g, tuple(range(g.n_arrows)))
    alg, k = algebras["SO3"], constants["SO3"]
    eps = 0.01
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=4))
    out = perturb_morphism(phi, alg, PerturbationSpec(epsilon=eps, seed=5), g=g)
    delta = defect(out, core, alg)
    # three perturbations enter each psi, up to conjugation distortion
    assert delta <= 3 * k.c_prime * k.c_dprime * eps + 1e-12
    brute = max(
        float(np.linalg.norm(_log_oracle(alg,
              np.linalg.inv(out.values[p]) @ np.linalg.inv(out.values[kk])
              @ out.values[g.compose(kk, p)])))
        for kk in range(g.n_arrows) for p in range(g.n_arrows)
        if g.source[kk] == g.target[p]
    )
    assert abs(delta - brute) < 1e-12


def _log_oracle(alg, m):
    """Rotation-vector log for SO(3) via quaternion extraction (test-local)."""
    tr = np.trace(m.real)
    w = np.sqrt(max(0.0, (tr + 1.0) / 4.0))
    if w > 1e-8:
        x = (m[2, 1].real - m[1, 2].real) / (4 * w)
        y = (m[0, 2].real - m[2, 0].real) / (4 * w)
        z = (m[1, 0].real - m[0, 1].real) / (4 * w)
    else:
        x = y = z = 0.0
    v = np.array([x, y, z])
    s = np.linalg.norm(v)
    if s < 1e-300:
        return np.zeros(3)
    return 2 * np.arctan2(s, w) * v / s


def test_perturb_left_variant_differs(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SO3"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=6))
    r = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.05, seed=7,
                                                    side="right"), g=g)
    l = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.05, seed=7,
                                                    side="left"), g=g)
    assert not np.array_equal(r.values, l.values)


def test_perturb_range_escape(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SO3"]
    phi, _ = generate_exact_morphism(g, spec, alg,
                                     MorphismSpec(seed=8, scale=0.7))
    tight = 0.9 * phi.range_certificate
    with pytest.raises(RangeEscape):
        perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.01, seed=9),
                         g=g, W_radius=tight)


def test_unperturbed_units_flag(algebras):
    spec = GroupoidSpec(constructor="action", group_order=3, space_size=3)
    g = build_groupoid(spec)
    alg = algebras["U1"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=9))
    out = perturb_morphism(
        phi, alg, PerturbationSpec(epsilon=0.05, seed=10, perturb_units=False),
        g=g)
    for u in g.unit_arrows:
        assert np.array_equal(out.values[u], phi.values[u])


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_so3_pair5_passes(tmp_path):
    report, code = run_experiment(bundled("so3_pair5.json"), out_dir=tmp_path)
    assert code == EXIT_PASS
    assert report.passed
    assert report.iterations <= 8
    assert report.final_defect <= 1e-12
    assert report.all_q_certified
    assert os.path.exists(tmp_path / "so3_pair5_trace.csv")
    # golden values from the first brute-force-verified execution
    assert report.iterations == 3
    assert report.initial_defect == pytest.approx(0.022980686045534875, rel=1e-9)


def test_run_u1_onestep_passes_at_iteration_one(tmp_path):
    report, code = run_experiment(bundled("u1_onestep.json"), out_dir=tmp_path)
    assert code == EXIT_PASS and report.passed
    assert report.iterations == 1


def test_run_su2_action_passes(tmp_path):
    report, code = run_experiment(bundled("su2_z3z3.json"), out_dir=tmp_path)
    assert code == EXIT_PASS and report.passed


def test_run_defect_too_large_rejected(tmp_path):
    report, code = run_experiment(bundled("defect_too_large.json"),
                                  out_dir=tmp_path)
    assert code == EXIT_PRECONDITION
    assert not report.passed
    assert "DefectTooLarge" in report.error


def test_run_defect_too_large_reports_the_initial_defect(tmp_path):
    report, code = run_experiment(bundled("defect_too_large.json"),
                                  out_dir=tmp_path)
    assert code == EXIT_PRECONDITION
    assert report.initial_defect > report.admissible_radius
    assert f"defect {report.initial_defect:.6g} exceeds" in report.error


def test_run_numeric_domain_error(tmp_path):
    # a huge perturbation pushes some psi past the measurable range
    cfg = ExperimentConfig.from_dict({
        "group": {"tag": "SO3"},
        "groupoid": {"constructor": "pair", "size": 3},
        "morphism": {"seed": 1, "scale": 0.05},
        "perturbation": {"epsilon": 2.5, "seed": 0},
        "constants": {"W_radius": 3.5, "K_radius": 4.5, "seed": 3},
    })
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_NUMERIC_DOMAIN
    assert "DefectOverflow" in report.error


def test_byte_reproducibility(tmp_path):
    cfg = bundled("so3_pair5.json")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=d1)
    run_experiment(cfg, out_dir=d2)
    for name in ("so3_pair5_trace.csv", "so3_pair5_report.json"):
        b1 = open(d1 / name, "rb").read()
        b2 = open(d2 / name, "rb").read()
        assert b1 == b2


def test_pass_flag_recomputable_from_trace(tmp_path):
    cfg = bundled("so3_pair5.json")
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    path = os.path.join(tmp_path, "so3_pair5_trace.csv")
    assert recompute_pass_from_trace(path, cfg.iteration.tol) == (
        report.final_defect <= cfg.iteration.tol and report.all_q_certified
    )


def test_trace_rows_satisfy_q_arithmetic(tmp_path):
    cfg = bundled("so3_pair5.json")
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    k = BchConstants(**report.constants)
    with open(os.path.join(tmp_path, "so3_pair5_trace.csv")) as fh:
        rows = [r.split(",") for r in fh.read().strip().splitlines()[1:]]
    deltas = [float(r[1]) for r in rows]
    for i, r in enumerate(rows[:-1]):
        assert abs(float(r[4]) - q_bound(deltas[i], k)) <= 1e-15
        certified = deltas[i + 1] <= q_bound(deltas[i], k) + 1e-12
        assert (r[5] == "1") == certified


def test_validate_config_clean_and_broken():
    assert validate_config(bundled("so3_pair5.json")) == []
    broken = ExperimentConfig.from_dict({
        "groupoid": {"constructor": "action", "group_order": 3, "space_size": 3},
        "core": {"arrows": [0, 1, 3, 4, 6, 7]},   # no fiber over object 2
    })
    issues = validate_config(broken)
    assert issues and "Lie type" in issues[0]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path):
    code = main(["run", "--config", os.path.join(CONFIG_DIR, "so3_pair5.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    code = main(["run", "--config",
                 os.path.join(CONFIG_DIR, "defect_too_large.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_PRECONDITION


def test_cli_validate(capsys):
    code = main(["validate", "--config",
                 os.path.join(CONFIG_DIR, "so3_pair5.json")])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["passed"]


def test_cli_constants(capsys):
    code = main(["constants", "--group", "U1", "--samples", "1000",
                 "--seed", "3"])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["c"] <= 1e-6
    assert out["sample_count"] == 1000


@pytest.mark.parametrize("flags, message", [
    (["--samples", "999"], "constants.sample_count must be an integer >= 1000"),
    (["--safety", "0.5"], "constants.safety_factor must be a finite number >= 1"),
    (["--seed", "-1"], "constants.seed must be a non-negative integer"),
    (["--w-radius", "nan"], "constants.W_radius must be a finite number"),
    (["--samples", str(10 ** 9)], "constants.sample_count must be at most"),
])
def test_cli_constants_rejects_bad_flags_with_one_line_error(capsys, flags,
                                                              message):
    assert main(["constants", "--group", "SO3", *flags]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: ") and message in err
    assert err.count("\n") == 1


def test_cli_bench_holo(tmp_path, capsys):
    code = main(["bench-holo", "--config",
                 os.path.join(CONFIG_DIR, "holo_bench.json"),
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["pass"]
    assert os.path.exists(tmp_path / "holo_report.json")


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RECTIFY_OUT", str(tmp_path))
    code = main(["run", "--config", os.path.join(CONFIG_DIR, "u1_onestep.json")])
    assert code == EXIT_PASS
    assert os.path.exists(tmp_path / "u1_onestep_report.json")
