import argparse
import hashlib
import importlib.util
import inspect
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    REPO_ROOT,
    assert_same_groupoid,
    defect,
    matrices,
    tabulated_action,
)
from haarrect import cli, groupoids, harness, holo
from haarrect.cli import main
from haarrect.errors import (
    ActionError,
    ConfigError,
    CoreAxiomError,
    DefectOverflow,
    GridError,
    InvarianceError,
    LogDomainError,
    NonContraction,
    RangeEscape,
)
from haarrect.groupoids import FiniteGroup, FiniteGroupoid
from haarrect.groupoids import build_action_groupoid, build_core
from haarrect.groupoids import build_pair_groupoid
from haarrect.groups import AmbientSets, BchConstants, NormedAlgebra
from haarrect.harness import (
    EXIT_NON_CONTRACTION,
    EXIT_NUMERIC_DOMAIN,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ConstantsSpec,
    ExperimentConfig,
    GroupSpec,
    GroupoidSpec,
    HoloSpec,
    MorphismSpec,
    PerturbationSpec,
    _atomic_write,
    algebra_for,
    build_groupoid,
    constants_for,
    exit_code_for,
    generate_exact_morphism,
    perturb_morphism,
    recompute_pass_from_trace,
    run_experiment,
    run_holo_bench,
    validate_config,
)
from haarrect.holo import build_complexified_model, core_average_function
from haarrect.holo import cr_convergence_order, real_restriction_check
from haarrect.holo import sample_function
from haarrect.rectifier import IterationTrace, _radius, iterate, q_bound
from haarrect.rectifier import verify_core_morphism


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
            "constants": {"safety_factor": 1.25, "W_radius": 1.5,
                          "K_radius": 2.5},
            "iteration": {"tol": 1e-12, "max_iter": 50},
            "output": {"trace": "so3_pair5_trace.csv",
                       "report": "so3_pair5_report.json"},
        })
    ))
    assert again.digest() == cfg.digest()


@pytest.mark.parametrize("name, digest", [
    ("so3_pair5.json",
     "16008accb584c0913e1db7f3b7274a047ec48801143a5386db9c4b94b07573bc"),
    ("su2_z3z3.json",
     "9abcb6903bcb734c8aaca65a1bbecb44d863db66684f903fa4015bd12a6f7562"),
    ("u1_onestep.json",
     "71712166ded14fd76d6d0d30b5b480b5c112b1e1baec597c4f161311d197c8cc"),
    ("defect_too_large.json",
     "6f1ee185c2d92b316d48dd0f87a574ad22f6296682cc43d4d0d394562d5ff46c"),
    (None, "46a40ec7fdc129ef7e55b6b026ce55c32f65f4738cedcb270abaf1821d5e84db"),
])
def test_config_digest_is_pinned(name, digest):
    # a moved default or a renamed key changes every report's config_digest
    cfg = bundled(name) if name else ExperimentConfig.from_dict({})
    assert cfg.digest() == digest


def test_readme_schema_block_has_the_schema_keys():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("### Config schema\n\n```json\n", 1)[1]
    block = block.split("```", 1)[0]
    shown = json.loads(re.sub(r"//.*", "", block))
    run = {name: keys for name, keys in harness.SCHEMA.items() if name}
    assert list(shown) == list(run)
    for name, keys in run.items():
        if isinstance(keys, tuple):     # the word, or an object of one key
            assert shown[name] == keys[0]
        else:
            assert list(shown[name]) == list(keys), name


def test_readme_report_fields_are_the_run_report_keys(tmp_path):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### Report fields\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    shown = re.findall(r"^\* (`[^:]*):", section, flags=re.M)
    shown = [key for item in shown for key in re.findall(r"`(\w+)`", item)]
    report, _ = run_experiment(bundled("u1_onestep.json"), out_dir=tmp_path)
    assert sorted(shown) == sorted(report) and len(set(shown)) == len(shown)


def test_specs_are_read_only_values():
    spec = MorphismSpec(seed=3)
    assert (spec.kind, spec.seed, spec.scale) == ("auto", 3, 0.25)
    assert MorphismSpec.scale == 0.25
    assert spec == MorphismSpec(kind="auto", seed=3)
    assert hash(spec) == hash(MorphismSpec(seed=3))
    assert spec != MorphismSpec(seed=4)
    assert spec != GroupoidSpec()
    with pytest.raises(AttributeError):
        spec.seed = 4
    with pytest.raises(ConfigError, match="unknown config key 'morphism.sed'"):
        MorphismSpec(sed=3)


# ---------------------------------------------------------------------------
# read-only values
# ---------------------------------------------------------------------------

def bch_constants(**changes):
    """BchConstants of valid values, with ``changes``."""
    fields = dict(c=0.5, c_prime=0.75, c_dprime=1.0, d=0.9, d_prime=1.1,
                  c_l=1.25, c_d=1.0, safety_factor=1.25)
    return BchConstants(**{**fields, **changes})


def pair2(**changes):
    """FiniteGroupoid of the pair groupoid on two points, with ``changes``."""
    return FiniteGroupoid(**{**build_pair_groupoid(2).as_dict(), **changes})


VALUES = {
    "NormedAlgebra": lambda: NormedAlgebra("so3", "euclid", 1.0, np.pi),
    "BchConstants": bch_constants,
    "AmbientSets": AmbientSets,
    "FiniteGroup": lambda: FiniteGroup.cyclic(3),
    "FiniteGroupoid": pair2,
    "Core": lambda: build_core(pair2(), tuple(range(4))),
    "ComplexModel": lambda: build_complexified_model(n_theta=4, n_space=3),
    "IterationTrace": lambda: IterationTrace((0.0,), (), (), (), (), (), (),
                                             "converged"),
    "MorphismSpec": MorphismSpec,
}


@pytest.mark.parametrize("name", VALUES)
def test_values_refuse_setting_and_deleting(name):
    value = VALUES[name]()
    assert type(value).__name__ == name
    fields = value.as_dict()
    derived = ("by_target", "position") if name == "FiniteGroupoid" else ()
    for attr in (*fields, *derived):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    with pytest.raises(AttributeError):
        value.new_name = 0
    assert all(getattr(value, k) is v for k, v in fields.items())


def test_value_constructors_take_positions_keywords_and_defaults():
    assert AmbientSets().as_dict() == {"W_radius": 1.5, "K_radius": 2.5}
    assert AmbientSets(1.5, 2.5) == AmbientSets() == AmbientSets(K_radius=2.5)
    assert AmbientSets(2.0).as_dict() == {"W_radius": 2.0, "K_radius": 2.5}
    alg = NormedAlgebra("so3", "euclid", 1.0, np.pi)
    assert alg == NormedAlgebra(algebra_id="so3", raw_norm="euclid",
                                scale=1.0, injectivity_margin=np.pi)
    assert alg == NormedAlgebra("so3", "euclid", injectivity_margin=np.pi,
                                scale=1.0)
    assert (alg.dim, alg.group_id) == (3, "SO3")
    assert BchConstants(*[1.0] * 7, 1.25) == bch_constants(
        **dict.fromkeys(BchConstants._fields[:7], 1.0))
    for args, kwargs in (((1.5, 2.5, 3.5), {}), ((), {"W": 1.5}),
                         ((1.5,), {"W_radius": 1.5})):
        with pytest.raises(TypeError, match="takes the fields"):
            AmbientSets(*args, **kwargs)
    with pytest.raises(TypeError, match="needs the field 'identity'"):
        FiniteGroup(np.zeros((1, 1), dtype=int))


@pytest.mark.parametrize("make, message", [
    (lambda: AmbientSets(0.5, 2.5),
     "W must contain the unit ball: W_radius >= 1"),
    (lambda: AmbientSets(1.5, 1.5), "K must strictly contain the closure of W"),
    (lambda: bch_constants(d=2.0), "d must be <= d_prime"),
    (lambda: bch_constants(c_l=-1.0), "constant c_l must be nonnegative"),
    (lambda: bch_constants(safety_factor=0.5), "safety_factor must be >= 1"),
    (lambda: IterationTrace((0.0,), (1.0,), (), (), (), (), (), "converged"),
     "inconsistent trace lengths"),
    (lambda: IterationTrace((-1.0,), (), (), (), (), (), (), "converged"),
     "defects must be nonnegative"),
    (lambda: pair2(table=np.zeros((4, 1), dtype=int)),
     "table needs one row per arrow and one column per slot of the widest "
     "target fiber"),
    (lambda: pair2(table=np.full((4, 2), 4)),
     "product table names an arrow out of range"),
    (lambda: pair2(inverse=np.arange(3)),
     "inverse must have one entry per arrow"),
], ids=["W", "K", "d", "c_l", "safety", "lengths", "defects", "width",
        "range", "inverse"])
def test_value_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_derived_groupoid_arrays_stay_out_of_equality_and_repr():
    g = build_pair_groupoid(3)
    twin = FiniteGroupoid(**g.as_dict())
    assert list(g.as_dict()) == ["n_objects", "source", "target",
                                 "unit_arrows", "table", "inverse"]
    # the fields are the same arrays, the derived ones new arrays, whose
    # == would be ambiguous
    assert twin.position is not g.position
    assert twin == g
    assert repr(g).startswith("FiniteGroupoid(n_objects=3, source=array(")
    assert "by_target" not in repr(g) and "position" not in repr(g)


def test_equal_algebras_hash_equal_and_share_cached_constants():
    alg = algebra_for(GroupSpec(tag="SO3"))
    twin = NormedAlgebra(**alg.as_dict())
    assert twin == alg and hash(twin) == hash(alg) and twin is not alg
    assert twin != NormedAlgebra(**{**alg.as_dict(), "scale": 2 * alg.scale})
    spec = ConstantsSpec(safety_factor=2.0)
    assert constants_for(twin, spec) is constants_for(alg, spec)


def test_bch_constants_dict_form_is_the_report_section():
    k = bch_constants(c_d=0.5)
    assert list(k.as_dict().items()) == [
        ("c", 0.5), ("c_prime", 0.75), ("c_dprime", 1.0), ("d", 0.9),
        ("d_prime", 1.1), ("c_l", 1.25), ("c_d", 0.5),
        ("safety_factor", 1.25)]
    assert BchConstants(**k.as_dict()) == k


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
    # keys that named no core arrow were ignored, and "01" overwrote the
    # weight of arrow 1
    ({"groupoid": {"size": 2}, "density": {"weights": {
        "0": 1, "1": 1, "2": 1, "3": 1, "999": -3, "-1": 1e400}}},
     "density.weights: key '999' is not the index of a core arrow"),
    ({"groupoid": {"size": 2},
      "density": {"weights": {"0": 1, "1": 1, "2": 1, "3": 1, "-1": 1}}},
     "density.weights: key '-1' is not the index of a core arrow"),
    ({"groupoid": {"size": 2},
      "density": {"weights": {"0": 1, "1": 1, "01": 5, "2": 1, "3": 1}}},
     "density.weights: key '01' is not the index of a core arrow"),
    ({"groupoid": {"constructor": "action", "group_order": 4,
                   "space_size": 2},
      "core": {"arrows": [0, 1, 4, 5]},
      "density": {"weights": {"0": 1, "1": 1, "2": 1, "4": 1, "5": 1}}},
     "density.weights: key '2' is not the index of a core arrow"),
    # float() took these as weights
    ({"density": {"weights": {"0": "1"}}},
     "density.weights.0 must be a number, not '1'"),
    ({"density": {"weights": {"0": 1, "1": True}}},
     "density.weights.1 must be a number, not True"),
    ({"density": {"weights": {"0": " 1e0 "}}},
     "density.weights.0 must be a number, not ' 1e0 '"),
    # the report was written over the trace
    ({"output": {"trace": "a.txt", "report": "a.txt"}},
     "output.report is output.trace: 'a.txt'"),
    ({"output": {"report": "trace.csv"}},
     "output.report is output.trace: 'trace.csv'"),
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


def test_cli_rejects_a_repeated_config_key(tmp_path, capsys):
    # json alone keeps the last value of a repeated key, at any level
    path = tmp_path / "repeated.json"
    for text, key in (
            ('{"groupoid": {"size": 3}, "groupoid": {"size": 4}}', "groupoid"),
            ('{"groupoid": {"size": 3, "size": 4}}', "groupoid.size")):
        path.write_text(text)
        for argv in (["run", "--config", str(path), "--out", str(tmp_path)],
                     ["validate", "--config", str(path)],
                     ["bench-holo", "--config", str(path),
                      "--out", str(tmp_path)]):
            assert main(argv) == EXIT_PRECONDITION
            err = capsys.readouterr().err
            assert err == f"error: ConfigError: config repeats the key {key!r}\n"
    assert os.listdir(tmp_path) == ["repeated.json"]


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
    ({"n_theta": 400},
     "n_theta, n_shells: 192000000 lattice-point rotation pairs are above"),
    # these ended in numpy's _ArrayMemoryError under a 3 GB limit
    ({"n_space": 201}, "n_space: 1632240801 grid points are above the cap"),
    ({"n_eta": 2 ** 40}, "n_eta: 1099511627776 eta nodes are above the cap"),
    # a valid radius whose grid values overflow: a numeric domain error,
    # where a ValueError traceback ended the run
    ({"space_radius": 1e308}, "sampled values must be finite"),
    # a radius whose grid spacing underflows to zero
    ({"space_radius": 5e-324}, "grid spacing must be positive"),
    # the sampled invariant is finite, its mean is not
    ({"space_radius": 8e153}, "sampled values must be finite"),
])
def test_cli_bench_holo_rejects_bad_value_with_one_line_error(tmp_path, capsys,
                                                               config, message):
    path = tmp_path / "holo.json"
    path.write_text(json.dumps(config))
    code, kind = EXIT_PRECONDITION, "ConfigError"
    if message in ("sampled values must be finite",
                   "grid spacing must be positive"):
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
    keys = tuple(harness.SCHEMA[""])
    assert tuple(config) == keys
    defaults = HoloSpec()
    assert {key: getattr(defaults, key) for key in keys} == {
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
    (RangeEscape("r", 2.0, 1.5), EXIT_PRECONDITION),
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
    harness.algebra_for.cache_clear()
    harness.constants_for.cache_clear()
    names = ("so3_pair5", "su2_z3z3", "u1_onestep", "defect_too_large")
    paths = [os.path.join(CONFIG_DIR, f"{name}.json") for name in names]
    codes = [main(["run", "--config", path, "--out", str(tmp_path)])
             for path in paths]
    assert codes == [EXIT_PASS, EXIT_PASS, EXIT_PASS, EXIT_PRECONDITION]
    # last-bit changes in the constants must leave these alone
    reports = [json.loads((tmp_path / f"{name}_report.json").read_text())
               for name in names]
    assert [r["iterations"] for r in reports] == [3, 2, 1, 0]
    assert [r["passed"] for r in reports] == [True, True, True, False]
    # the limit's core residual is its last defect, not a second measurement
    assert all(r["residual_core"] == r["final_defect"] for r in reports)
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
    # the holo grid mean forks with os.fork into a shared mmap; an executor
    # or process pool module would add to the start-up of every CLI call
    code = ("import sys, haarrect.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') "
            "if m in sys.modules])")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# runs a CLI call in a fresh interpreter; the last line of its output is
# [modules loaded by the import, modules loaded after the call, whether
# numpy.random is loaded, exit code]
COLD_START = (
    "import json, sys, haarrect.cli\n"
    "loaded = lambda: [m for m in ('dataclasses', 'hashlib') "
    "if m in sys.modules]\n"
    "imported = loaded()\n"
    "code = haarrect.cli.main(sys.argv[1:])\n"
    "print(json.dumps([imported, loaded(), 'numpy.random' in sys.modules, "
    "code]))\n"
)


@pytest.mark.parametrize("argv, loaded", [
    (["validate", "--config", "so3_pair5.json"], []),
    (["bench-holo", "--config", "holo_bench.json", "--out"], ["hashlib"]),
    (["run", "--config", "so3_pair5.json", "--out"], ["hashlib"]),
], ids=["validate", "bench-holo", "run"])
def test_cold_start_loads_no_dataclasses_and_hashlib_only_on_use(
        tmp_path, argv, loaded):
    # dataclasses' class generation and OpenSSL's start-up would be paid by
    # every fresh process.  numpy.random imports hashlib (through secrets
    # and hmac), so a command that seeds a generator loads it; validate
    # seeds none, and run also digests its config
    argv = [os.path.join(CONFIG_DIR, a) if a.endswith(".json") else a
            for a in argv] + ([str(tmp_path)] if argv[-1] == "--out" else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", COLD_START, *argv], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=120)
    assert json.loads(out.stdout.splitlines()[-1]) == [[], loaded,
                                                       bool(loaded), EXIT_PASS]
    if argv[0] == "run":
        report = json.loads((tmp_path / "so3_pair5_report.json").read_text())
        assert report["config_digest"] == ("16008accb584c0913e1db7f3b7274a047e"
                                           "c48801143a5386db9c4b94b07573bc")


def test_parser_is_built_once_and_calls_print_as_fresh_processes(capsys):
    bad = ["constants", "--group", "SO3", "--safety", "many"]
    good = ["validate", "--config", os.path.join(CONFIG_DIR, "so3_pair5.json")]
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exit_:
        main(bad)
    calls = [(exit_.value.code, *capsys.readouterr())]
    calls.append((main(good), *capsys.readouterr()))
    # one parser per command: a repeated command builds none
    assert cli.build_parser.cache_info().misses == 2
    assert (main(good), *capsys.readouterr()) == calls[1]
    assert cli.build_parser.cache_info().misses == 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    for argv, call in zip((bad, good), calls):
        fresh = subprocess.run([sys.executable, "-m", "haarrect.cli", *argv],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == call
    assert [code for code, _, _ in calls] == [EXIT_PRECONDITION, EXIT_PASS]


# argvs of every kind the parser answers: a Namespace, help, or an error
# from a subparser or from the top parser after a subcommand
PARSER_CORPUS = [
    ["run", "--config", "a.json"], ["run", "--config", "a.json", "--out", "o"],
    ["constants", "--group", "SO3"], ["bench-holo", "--config", "h.json"],
    ["validate", "--config", "a.json"],
    ["run", "-h"], ["constants", "-h"], ["bench-holo", "-h"], ["validate", "-h"],
    ["-h"], ["--help"], [], ["bogus"], ["ru"],
    ["run"], ["validate"], ["bench-holo", "--out", "o"],
    ["constants", "--group", "SO3", "--samples", "many"],
    ["constants", "--group", "SO3", "--safety", "x"],
    ["validate", "--config", "a.json", "--bogus"], ["run", "--conf", "a.json"],
    ["constants", "--group=SO3"],
    ["run", "--config", "a.json", "extra"],
    ["run", "--config", "a.json", "validate"],
]


def parse(parser, argv, capsys):
    """A parse's Namespace, or its exit code, stdout and stderr."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exit_:
        return (exit_.code, *capsys.readouterr())


@pytest.mark.parametrize("argv", PARSER_CORPUS,
                         ids=lambda argv: " ".join(argv) or "empty")
def test_command_parser_answers_as_the_full_parser(capsys, argv):
    command = argv[0] if argv and argv[0] in cli.COMMANDS else None
    assert parse(cli.build_parser(command), argv, capsys) \
        == parse(cli.build_parser(None), argv, capsys)


def test_a_command_builds_only_its_own_parser(monkeypatch):
    # a count where a timing would be noise: argparse builds one parser for
    # the top level and one per subcommand added to it
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        assert main(["validate", "--config",
                     os.path.join(CONFIG_DIR, "so3_pair5.json")]) == EXIT_PASS
        assert built == ["rectify", "rectify validate"]
        with pytest.raises(SystemExit) as exit_:
            main(["-h"])
        assert exit_.value.code == 0 and len(built) == 2 + 5
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize("command, config, taken", [
    ("run", "u1_onestep.json", "u1_onestep_report.json"),
    ("run", "u1_onestep.json", "u1_onestep_trace.csv"),
    # a rejected run removes an older trace
    ("run", "defect_too_large.json", "defect_too_large_trace.csv"),
    ("bench-holo", "holo_bench.json", "holo_report.json"),
], ids=["run-report", "run-trace", "rejected-run-trace", "bench-holo-report"])
def test_cli_artifact_path_that_is_a_directory_is_one_line_error(
        tmp_path, capsys, command, config, taken):
    # these ended in an OSError traceback with exit 1
    (tmp_path / taken).mkdir()
    assert main([command, "--config", os.path.join(CONFIG_DIR, config),
                 "--out", str(tmp_path)]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: ConfigError: cannot ")
    assert repr(str(tmp_path / taken)) in err
    assert (tmp_path / taken).is_dir()
    # no temp file, and no fresh trace beside no report
    assert os.listdir(tmp_path) == [taken]


def test_run_bundled_table_hashes_this_runs_artifacts(tmp_path):
    # a stale trace at the rejected config's path must not be hashed
    (tmp_path / "defect_too_large_trace.csv").write_text("stale\n")
    script = os.path.join(REPO_ROOT, "scripts", "run_bundled.py")
    out = subprocess.run([sys.executable, script, "--out", str(tmp_path)],
                         check=True, capture_output=True, text=True,
                         timeout=300).stdout.splitlines()
    assert out[0].split()[5:7] == ["trace_sha256", "report_sha256"]
    hashes = {}
    for line in out[1:]:
        name, code, _, _, _, trace_sha, report_sha, _ = line.split(maxsplit=7)
        hashes[name] = (trace_sha, report_sha)
        config = os.path.join(CONFIG_DIR, name)
        if name == "holo_bench.json":
            # bench-holo writes a report and no trace
            assert code == "0" and trace_sha == "-"
            files = ((HoloSpec.from_json(config).report, report_sha),)
        else:
            output = ExperimentConfig.from_json(config).output
            files = ((output.trace, trace_sha), (output.report, report_sha))
        for fname, sha in files:
            path = tmp_path / fname
            assert sha == (hashlib.sha256(path.read_bytes()).hexdigest()
                           if path.exists() else "-")
    assert len(hashes) == 5 and hashes["defect_too_large.json"][0] == "-"
    assert hashes["holo_bench.json"][1] != "-"


def load_script(name):
    path = os.path.join(REPO_ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.mark.parametrize("codes, expected", [
    ({}, 0),
    # so3_pair5 hitting DefectTooLarge used to pass as an allowed 2
    ({"so3_pair5_report.json": 2}, 1),
    ({"defect_too_large_report.json": 0}, 1),
    ({"holo_report.json": 4}, 1),
])
def test_run_bundled_checks_each_configs_own_exit_code(
        monkeypatch, capsys, tmp_path, codes, expected):
    script = load_script("run_bundled")
    right = {"defect_too_large_report.json": 2}

    def code_of(report):
        return codes.get(report, right.get(report, 0))

    def run_experiment(config, out_dir):
        report = {"iterations": 0, "initial_defect": float("nan"),
                  "final_defect": float("nan"), "error": None}
        return report, code_of(config.output.report)

    def run_holo_bench(spec, out_dir):
        return {}, code_of(spec.report)

    monkeypatch.setattr(script, "run_experiment", run_experiment)
    monkeypatch.setattr(script, "run_holo_bench", run_holo_bench)
    assert script.main(["--out", str(tmp_path)]) == expected
    err = capsys.readouterr().err
    assert err.count("\n") == len(codes)
    for report, code in codes.items():
        assert f"exit {code}, expected {right.get(report, 0)}" in err


def test_run_bundled_fails_on_a_config_that_validate_rejects(
        monkeypatch, capsys, tmp_path):
    script = load_script("run_bundled")
    validated = []

    def validate_config(config):
        validated.append(config.output.report)
        return (["density: fiber sum at object 0 is 2.0"]
                if config.output.report == "su2_z3z3_report.json" else [])

    monkeypatch.setattr(script, "validate_config", validate_config)
    monkeypatch.setattr(script, "run_experiment", lambda config, out_dir: (
        {"iterations": 0, "initial_defect": float("nan"),
         "final_defect": float("nan"), "error": None},
        2 if config.output.report == "defect_too_large_report.json" else 0))
    monkeypatch.setattr(script, "run_holo_bench",
                        lambda spec, out_dir: ({}, 0))
    assert script.main(["--out", str(tmp_path)]) == 1
    assert len(validated) == 4
    assert capsys.readouterr().err == (
        "su2_z3z3.json: validate reports density: fiber sum at object 0 is "
        "2.0\n")


@pytest.mark.parametrize("safety, message", [
    ("0.5", "constants.safety_factor must be a finite number >= 1, not 0.5"),
])
def test_constants_table_rejects_bad_flags_with_one_line_error(
        monkeypatch, capsys, safety, message):
    script = load_script("constants_table")

    def no_constants(*args):
        raise AssertionError("constants computed before the flags were "
                             "checked")

    monkeypatch.setattr(script, "algebra_for", no_constants)
    monkeypatch.setattr(script, "constants_for", no_constants)
    assert script.main(["--safety", safety]) == EXIT_PRECONDITION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ConfigError: {message}\n"


@pytest.mark.parametrize("order, m", [(1, 1), (3, 3), (6, 6), (2, 1),
                                      (5, 1)])
def test_build_groupoid_action_matches_the_callback_form(order, m):
    space = tuple(f"x{i}" for i in range(m))
    expected = build_action_groupoid(
        FiniteGroup.cyclic(order),
        tabulated_action(order, space, lambda g, x: (x + g) % m))
    spec = GroupoidSpec(constructor="action", group_order=order, space_size=m)
    assert_same_groupoid(build_groupoid(spec), expected)


PUBLIC_NAMES = (
    "ActionError", "AmbientSets", "BchConstants",
    "ComplexModel", "ConfigError", "Core", "CoreAxiomError", "DefectOverflow",
    "DefectTooLarge", "ExperimentConfig", "FiniteGroup", "FiniteGroupoid",
    "GridError", "HaarrectError", "InvalidAlgebraVector",
    "InvarianceError", "IterationTrace", "LogDomainError", "NonContraction",
    "NormedAlgebra", "RangeEscape",
    "admissible_defect_radius", "attach_haar_density",
    "build_action_groupoid", "build_complexified_model", "build_core",
    "build_pair_groupoid", "core_average_function", "cr_residual",
    "estimate_bch_constants", "generate_exact_morphism", "haar_integrate",
    "iterate", "normalize_algebra_norm", "perturb_morphism", "q_bound",
    "real_restriction_check", "run_experiment",
    "validate_groupoid", "verify_core_morphism",
)


def test_public_names_are_pinned():
    # a name added to or dropped from the package shows in this list's
    # diff; submodules are left out, since which of them are loaded
    # depends on what was imported before
    import haarrect
    names = sorted(n for n, v in vars(haarrect).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert tuple(names) == PUBLIC_NAMES

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
    m = matrices(algebras["SO3"], phi)[1]
    assert abs(np.trace(m) + 1.0) < 1e-12
    assert np.abs(m @ m - np.eye(3)).max() < 1e-12


def test_z3_to_u1_character(algebras):
    spec = GroupoidSpec(constructor="action", group_order=3, space_size=3)
    g = build_groupoid(spec)
    phi, warns = generate_exact_morphism(g, spec, algebras["U1"],
                                         MorphismSpec(seed=1))
    assert not warns
    vals = {np.round(v, 12) for v in matrices(algebras["U1"], phi)[:, 0, 0]}
    roots = {np.round(np.exp(2j * np.pi * k / 3), 12) for k in range(3)}
    assert vals == roots


def test_z2_to_su2_substitutes_trivial_with_warning(algebras):
    spec = GroupoidSpec(constructor="action", group_order=2, space_size=1)
    g = build_groupoid(spec)
    with pytest.warns(UserWarning):
        phi, warns = generate_exact_morphism(g, spec, algebras["SU2"],
                                             MorphismSpec(seed=0))
    assert warns
    assert np.array_equal(matrices(algebras["SU2"], phi)[1],
                          np.eye(2, dtype=complex))


@pytest.mark.parametrize("tag", ["SO3", "SU2"])
@pytest.mark.parametrize("spec", [
    GroupoidSpec(constructor="pair", size=3),
    GroupoidSpec(constructor="action", group_order=3, space_size=3),
], ids=["pair", "action"])
def test_every_morphism_kind_on_both_constructors(algebras, spec, tag):
    alg = algebras[tag]
    g = build_groupoid(spec)
    core = build_core(g, tuple(range(g.n_arrows)))
    phi = {kind: generate_exact_morphism(g, spec, alg,
                                         MorphismSpec(kind=kind, seed=5))[0]
           for kind in harness.MORPHISM_KINDS}
    trivial = phi["trivial"]
    identity = np.broadcast_to(np.eye(alg.dim + 1)[:, :1], trivial.shape)
    assert trivial.tobytes() == identity.astype(trivial.dtype).tobytes()
    assert _radius(alg, phi["trivial"]) == 0.0
    assert verify_core_morphism(phi["coboundary"], core, alg, full=True) \
        <= 1e-13
    assert phi["homomorphism"].tobytes() == phi["auto"].tobytes()


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_zero_epsilon_is_bitwise_identity(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SO3"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=2))
    out = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.0, seed=1), g=g)
    assert np.array_equal(out, phi)


def test_perturb_deterministic(algebras):
    spec = GroupoidSpec(constructor="pair", size=3)
    g = build_groupoid(spec)
    alg = algebras["SU2"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=3))
    a = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.02, seed=9), g=g)
    b = perturb_morphism(phi, alg, PerturbationSpec(epsilon=0.02, seed=9), g=g)
    assert np.array_equal(a, b)


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
    out = matrices(alg, out)
    brute = max(
        float(np.linalg.norm(_log_oracle(alg,
              np.linalg.inv(out[p]) @ np.linalg.inv(out[kk])
              @ out[int(g.multiply(kk, p))])))
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
    assert not np.array_equal(r, l)


def test_unperturbed_units_flag(algebras):
    spec = GroupoidSpec(constructor="action", group_order=3, space_size=3)
    g = build_groupoid(spec)
    alg = algebras["U1"]
    phi, _ = generate_exact_morphism(g, spec, alg, MorphismSpec(seed=9))
    out = perturb_morphism(
        phi, alg, PerturbationSpec(epsilon=0.05, seed=10, perturb_units=False),
        g=g)
    for u in g.unit_arrows:
        assert np.array_equal(out[..., u], phi[..., u])


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_run_so3_pair5_passes(tmp_path):
    report, code = run_experiment(bundled("so3_pair5.json"), out_dir=tmp_path)
    assert code == EXIT_PASS
    assert report["passed"]
    assert report["iterations"] <= 8
    assert report["final_defect"] <= 1e-12
    assert report["all_q_certified"]
    assert os.path.exists(tmp_path / "so3_pair5_trace.csv")
    # golden values from the first brute-force-verified execution
    assert report["iterations"] == 3
    assert report["initial_defect"] == pytest.approx(0.022980686045534875,
                                                     rel=1e-9)


def test_run_u1_onestep_passes_at_iteration_one(tmp_path):
    report, code = run_experiment(bundled("u1_onestep.json"), out_dir=tmp_path)
    assert code == EXIT_PASS and report["passed"]
    assert report["iterations"] == 1


def test_run_su2_action_passes(tmp_path):
    report, code = run_experiment(bundled("su2_z3z3.json"), out_dir=tmp_path)
    assert code == EXIT_PASS and report["passed"]


def test_run_defect_too_large_rejected(tmp_path):
    report, code = run_experiment(bundled("defect_too_large.json"),
                                  out_dir=tmp_path)
    assert code == EXIT_PRECONDITION
    assert not report["passed"]
    assert "DefectTooLarge" in report["error"]


def test_run_defect_too_large_reports_the_initial_defect(tmp_path):
    report, code = run_experiment(bundled("defect_too_large.json"),
                                  out_dir=tmp_path)
    assert code == EXIT_PRECONDITION
    assert report["initial_defect"] > report["admissible_radius"]
    assert f"defect {report['initial_defect']:.6g} exceeds" in report["error"]


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
    assert "DefectOverflow" in report["error"]


def full_residual_groupoids():
    """pair(1..6) and cyclic actions, among them cyclic(4) turning four
    points and fixing a fifth (ragged fibers)."""
    groupoids = [build_pair_groupoid(n) for n in range(1, 7)]
    for order, n_x in ((2, 1), (3, 3), (4, 2), (6, 3), (4, 5)):
        act = [[x if x == 4 else (x + a) % min(n_x, 4) for x in range(n_x)]
               for a in range(order)]
        groupoids.append(build_action_groupoid(FiniteGroup.cyclic(order), act))
    return groupoids


def run_capturing_the_limit(monkeypatch, tmp_path, g, config):
    """run_experiment on the groupoid ``g``; returns the report and the
    limit map that iterate returned."""
    limits = []

    def capture(*args, **kwargs):
        limit, trace = iterate(*args, **kwargs)
        limits.append(limit)
        return limit, trace

    monkeypatch.setattr(harness, "build_groupoid", lambda spec: g)
    monkeypatch.setattr(harness, "iterate", capture)
    report, _ = run_experiment(ExperimentConfig.from_dict(config),
                               out_dir=tmp_path)
    assert report["error"] is None and len(limits) == 1
    return report, limits[0]


@pytest.mark.parametrize("case", range(11))
@pytest.mark.parametrize("tag", ["U1", "SO2", "SO3", "SU2"])
def test_full_core_residual_is_the_full_pass_bitwise(tmp_path, monkeypatch,
                                                     tag, case):
    # on a full core the report takes residual_full from the final defect
    g = full_residual_groupoids()[case]
    calls = []
    monkeypatch.setattr(harness, "verify_core_morphism",
                        lambda *args, **kwargs: calls.append(args))
    report, limit = run_capturing_the_limit(monkeypatch, tmp_path, g, {
        "group": {"tag": tag},
        "morphism": {"kind": "coboundary", "seed": case},
        "perturbation": {"epsilon": 0.01, "seed": case + 1}})
    assert not calls
    alg = harness.algebra_for(harness.GroupSpec(tag=tag))
    full = verify_core_morphism(
        limit, build_core(g, tuple(range(g.n_arrows))), alg, full=True)
    assert report["residual_full"].hex() == full.hex()
    assert report["residual_full"] == report["residual_core"]


def test_proper_core_still_runs_the_full_residual_pass(tmp_path, monkeypatch):
    # the kernel-subgroup core of cyclic(4) on two points: fewer core pairs
    # than products, so the full residual needs its own psi pass
    full_calls = []

    def counting(*args, **kwargs):
        full_calls.append(kwargs.get("full"))
        return verify_core_morphism(*args, **kwargs)

    monkeypatch.setattr(harness, "verify_core_morphism", counting)
    spec = {"constructor": "action", "group_order": 4, "space_size": 2}
    report, _ = run_capturing_the_limit(
        monkeypatch, tmp_path, build_groupoid(GroupoidSpec(**spec)), {
            "group": {"tag": "U1"}, "groupoid": spec,
            "core": {"arrows": [0, 1, 4, 5]},
            "morphism": {"kind": "coboundary", "seed": 2},
            "perturbation": {"epsilon": 0.01, "seed": 2}})
    assert full_calls == [True]
    assert report["residual_core"] <= 1e-13
    assert report["residual_full"] > 100 * report["residual_core"]


@pytest.mark.parametrize("name", ["so3_pair5.json", "su2_z3z3.json",
                                  "u1_onestep.json", "defect_too_large.json"])
def test_report_names_the_sha256_of_its_trace(tmp_path, name):
    cfg = bundled(name)
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    on_disk = json.loads((tmp_path / cfg.output.report).read_text())
    trace = tmp_path / cfg.output.trace
    if report["error"] and "DefectTooLarge" in report["error"]:
        assert not trace.exists() and on_disk["trace_sha256"] is None
    else:
        assert on_disk["trace_sha256"] == hashlib.sha256(
            trace.read_bytes()).hexdigest()


@pytest.mark.parametrize("constants, warning", [
    ({}, None),
    ({"seed": 101}, "constants.seed: ignored"),
    ({"sample_count": 4000, "seed": 0},
     "constants.sample_count, constants.seed: ignored"),
])
def test_unused_constants_keys_warn_once_and_change_nothing(
        tmp_path, constants, warning):
    # the keys keep their checks, so a config keeps its verdict
    data = json.loads(open(os.path.join(CONFIG_DIR, "so3_pair5.json")).read())
    data["constants"].update(constants)
    report, code = run_experiment(ExperimentConfig.from_dict(data),
                                  out_dir=tmp_path)
    plain, _ = run_experiment(bundled("so3_pair5.json"), out_dir=tmp_path)
    assert code == EXIT_PASS and report["constants"] == plain["constants"]
    if warning is None:
        assert report["warnings"] == []
    else:
        (line,) = report["warnings"]
        assert line.startswith(warning + "; ")


def test_byte_reproducibility(tmp_path):
    cfg = bundled("so3_pair5.json")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_dir=d1)
    run_experiment(cfg, out_dir=d2)
    for name in ("so3_pair5_trace.csv", "so3_pair5_report.json"):
        b1 = open(d1 / name, "rb").read()
        b2 = open(d2 / name, "rb").read()
        assert b1 == b2


# an SO3 run of the benchmark's pair-so3 size: pair(20), 8000 core pairs
PAIR_SO3 = {
    "group": {"tag": "SO3"}, "groupoid": {"constructor": "pair", "size": 20},
    "perturbation": {"epsilon": 0.01, "seed": 3},
    "output": {"trace": "pair_so3_trace.csv",
               "report": "pair_so3_report.json"},
}


def _numpy_blas_name():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return ""
    return str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86 kernel")
@pytest.mark.skipif("openblas" not in _numpy_blas_name(),
                    reason="OPENBLAS_CORETYPE acts on OpenBLAS only")
def test_artifacts_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE=Prescott makes OpenBLAS run its SSE3 kernels instead
    # of the ones it picks for this CPU; no group value goes through BLAS,
    # so every bundled artifact and a pair-so3-sized run keep their bytes
    config = tmp_path / "pair_so3.json"
    config.write_text(json.dumps(PAIR_SO3))
    script = os.path.join(REPO_ROOT, "scripts", "run_bundled.py")
    src = os.path.join(REPO_ROOT, "src")
    artifacts = []
    for coretype in (None, "Prescott"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        out = tmp_path / (coretype or "native")
        for argv in ([script, "--out", str(out)],
                     ["-m", "haarrect.cli", "run", "--config", str(config),
                      "--out", str(out)]):
            subprocess.run([sys.executable, *argv], env=env, check=True,
                           capture_output=True, timeout=300)
        artifacts.append({f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in out.iterdir()})
    # the bundled runs' 4 reports and 3 traces, holo's report, and pair-so3's
    # trace and report
    assert len(artifacts[0]) == 10
    assert artifacts[0] == artifacts[1]


def test_pass_flag_recomputable_from_trace(tmp_path):
    cfg = bundled("so3_pair5.json")
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    path = os.path.join(tmp_path, "so3_pair5_trace.csv")
    assert recompute_pass_from_trace(path, cfg.iteration.tol) == (
        report["final_defect"] <= cfg.iteration.tol
        and report["all_q_certified"]
    )


def test_trace_rows_satisfy_q_arithmetic(tmp_path):
    cfg = bundled("so3_pair5.json")
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    k = BchConstants(**report["constants"])
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


EXPERIMENT_CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR)
                            if name.endswith(".json")
                            and name != "holo_bench.json")


@pytest.mark.parametrize("name", EXPERIMENT_CONFIGS)
def test_validate_passes_bundled_configs_without_the_groupoid_axioms(
        monkeypatch, capsys, name):
    # a config's groupoid is valid by construction: validate never re-proves it
    def no_groupoid_check(g):
        raise AssertionError("validate re-checked the groupoid axioms")

    monkeypatch.setattr(groupoids, "validate_groupoid", no_groupoid_check)
    monkeypatch.setattr(harness, "validate_groupoid", no_groupoid_check,
                        raising=False)
    code = main(["validate", "--config", os.path.join(CONFIG_DIR, name)])
    out = capsys.readouterr().out
    assert (code, out) == (EXIT_PASS,
                           harness.dumps({"issues": [], "passed": True}) + "\n")


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


def write_config(path, name, section, key, value):
    """A bundled config with one value changed, written to ``path``."""
    with open(os.path.join(CONFIG_DIR, name)) as fh:
        data = json.load(fh)
    data[section][key] = value
    path.write_text(json.dumps(data))
    return str(path)


def test_failed_run_leaves_no_older_trace(tmp_path):
    good = os.path.join(CONFIG_DIR, "so3_pair5.json")
    bad = write_config(tmp_path / "bad.json", "so3_pair5.json",
                       "perturbation", "epsilon", 0.8)
    out, trace = tmp_path / "out", tmp_path / "out" / "so3_pair5_trace.csv"
    assert main(["run", "--config", good, "--out", str(out)]) == EXIT_PASS
    assert trace.exists()
    # DefectTooLarge writes no trace, so the passing one must go
    assert main(["run", "--config", bad, "--out", str(out)]) \
        == EXIT_PRECONDITION
    assert not trace.exists()
    report = json.loads((out / "so3_pair5_report.json").read_text())
    assert not report["passed"] and report["error"].startswith("DefectTooLarge")
    # with no trace there, the next failed run has nothing to remove
    assert main(["run", "--config", bad, "--out", str(out)]) \
        == EXIT_PRECONDITION
    assert not trace.exists()


def test_range_escape_names_the_radius_and_its_limit(tmp_path):
    path = write_config(tmp_path / "big.json", "so3_pair5.json",
                        "morphism", "scale", 1.0)
    assert main(["run", "--config", path, "--out", str(tmp_path)]) \
        == EXIT_PRECONDITION
    report = json.loads((tmp_path / "so3_pair5_report.json").read_text())
    head = "RangeEscape: initial map does not take values in W: range radius "
    assert report["error"].startswith(head)
    radius, limit = report["error"][len(head):].split(" exceeds ")
    assert float(radius) > float(limit) == 1.5
    # the W check runs in iterate, after the initial defect is measured
    assert isinstance(report["initial_defect"], float)
    assert np.isfinite(report["initial_defect"])


def test_range_escape_comes_before_defect_too_large(tmp_path):
    # the perturbed map leaves W and its defect is above the admissible
    # radius: the run reports the range escape, with the measured defect
    cfg = ExperimentConfig.from_dict({
        "group": {"tag": "SO3"},
        "groupoid": {"constructor": "pair", "size": 3},
        "morphism": {"seed": 5, "scale": 1.0},
        "perturbation": {"epsilon": 0.3, "seed": 9},
    })
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_PRECONDITION
    assert report["error"].startswith("RangeEscape: initial map ")
    assert report["initial_defect"] > report["admissible_radius"]


def strict_json(text):
    """``text`` as one JSON document whose objects have sorted keys, with no
    NaN or Infinity in it; an error otherwise."""
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    def sorted_object(pairs):
        keys = [key for key, _ in pairs]
        assert keys == sorted(keys)
        return dict(pairs)

    return json.loads(text, parse_constant=no_constant,
                      object_pairs_hook=sorted_object)


def _failure_values_are_null(out):
    return all(out[key] is None
               for key in ("final_defect", "residual_core", "residual_full"))


@pytest.mark.parametrize("argv, code, report, check", [
    (["run", "--config", os.path.join(CONFIG_DIR, "so3_pair5.json")],
     EXIT_PASS, "so3_pair5_report.json", lambda out: out["passed"] is True),
    (["run", "--config", os.path.join(CONFIG_DIR, "defect_too_large.json")],
     EXIT_PRECONDITION, "defect_too_large_report.json",
     _failure_values_are_null),
    (["validate", "--config", os.path.join(CONFIG_DIR, "so3_pair5.json")],
     EXIT_PASS, None, lambda out: out == {"issues": [], "passed": True}),
    (["constants", "--group", "SU2"], EXIT_PASS, None,
     lambda out: out["d"] == out["d_prime"] == 1.0),
    (["bench-holo", "--config", os.path.join(CONFIG_DIR, "holo_bench.json")],
     EXIT_PASS, "holo_report.json", lambda out: out["pass"] is True),
], ids=["run", "run-rejected", "validate", "constants", "bench-holo"])
def test_cli_prints_one_strict_json_document(tmp_path, capsys, argv, code,
                                             report, check):
    if report:
        argv = [*argv, "--out", str(tmp_path)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert check(strict_json(out))
    if report:      # the printed result is the report file
        assert out == (tmp_path / report).read_text()


def test_cli_validate(capsys):
    code = main(["validate", "--config",
                 os.path.join(CONFIG_DIR, "so3_pair5.json")])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["passed"]


def test_cli_constants(capsys):
    code = main(["constants", "--group", "U1", "--safety", "2"])
    assert code == EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["c"] == 0.0
    assert out["c_prime"] == out["safety_factor"] == 2.0
    # the constants draw no sample, so there is nothing to count or seed
    for flag in ("--samples", "--seed"):
        with pytest.raises(SystemExit) as exit_:
            main(["constants", "--group", "U1", flag, "1000"])
        assert exit_.value.code == EXIT_PRECONDITION
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--w-radius", "0.5"], "W must contain the unit ball: W_radius >= 1"),
    (["--safety", "0.5"], "constants.safety_factor must be a finite number >= 1"),
    (["--k-radius", "1.5"], "K must strictly contain the closure of W"),
    (["--w-radius", "nan"], "constants.W_radius must be a finite number"),
    (["--safety", "inf"], "constants.safety_factor must be a finite number"),
    (["--group", "SO4"], "group.tag: unknown group 'SO4'"),
    (["--raw-norm", "l1"], "group.raw_norm: unknown norm 'l1'"),
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


@pytest.mark.parametrize("n_theta, passed", [(8, True), (1, False)])
def test_run_holo_bench_returns_the_report_it_writes(tmp_path, n_theta,
                                                      passed):
    # one node cannot average the weight-one mode away
    spec = HoloSpec(n_theta=n_theta, n_space=5)
    report, code = run_holo_bench(spec, out_dir=str(tmp_path))
    assert report == json.loads((tmp_path / spec.report).read_text())
    assert report["pass"] is passed
    assert code == (EXIT_PASS if passed else EXIT_NUMERIC_DOMAIN)


WIDE_HOLO = {"n_theta": 8, "n_space": 5, "n_eta": 3, "n_shells": 2}


@pytest.mark.parametrize("space_radius", [30, 999])
def test_bench_holo_thresholds_grow_with_the_values(tmp_path, capsys,
                                                    space_radius):
    # an absolute 1e-13 failed these on rounding alone: a restriction
    # difference of 2.4e-12 at radius 30 and 1.05e-7 at radius 999
    path = tmp_path / "holo.json"
    path.write_text(json.dumps(dict(WIDE_HOLO, space_radius=space_radius)))
    assert main(["bench-holo", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("config, key", [
    (dict(WIDE_HOLO, space_radius=1e105), "real_restriction_difference"),
    ({"slope_hs": [1e-300, 2e-300]}, "cr_slope"),
])
def test_bench_holo_writes_null_for_a_non_finite_value(tmp_path, capsys,
                                                       config, key):
    # the restriction polynomial overflows at radius 1e105, and residuals at
    # steps near 1e-300 give no slope: both were written as NaN, not JSON
    path = tmp_path / "holo.json"
    path.write_text(json.dumps(config))
    assert main(["bench-holo", "--config", str(path),
                 "--out", str(tmp_path)]) == EXIT_NUMERIC_DOMAIN
    out = capsys.readouterr().out
    text = (tmp_path / "holo_report.json").read_text()
    assert out == text
    for document in (out, text):
        report = strict_json(document)
        assert report[key] is None and report["pass"] is False


def grid_path_report(spec):
    """bench-holo's three errors, by report key, and its pass flag, from
    whole grids: the sampled invariant and both means are made first and
    reduced after, as bench-holo did before it reduced slab by slab."""
    model = build_complexified_model(
        space_radius=spec.space_radius, eta_max=spec.eta_max,
        n_theta=spec.n_theta, n_space=spec.n_space, n_eta=spec.n_eta,
        n_shells=spec.n_shells)
    invariant = lambda z1, z2: z1 * z1 + z2 * z2
    rng = np.random.default_rng(spec.seed)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    trig_max = [0.0]

    def trig_poly(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        values = (coeffs[0] + coeffs[1] * wp + coeffs[2] * wm
                  + coeffs[3] * wp * wp * wm)
        trig_max[0] = max(trig_max[0], float(np.abs(values).max()))
        return values

    with np.errstate(all="ignore"):
        f_inv = sample_function(invariant, model)
        avg_inv, avg_mode = core_average_function(
            lambda z1, z2: (invariant(z1, z2), z1 + 1j * z2), model)
        slope, _ = cr_convergence_order(
            lambda z1, z2: invariant(z1, z2) ** 2, spec.probe_center,
            tuple(spec.slope_hs))
        restriction = real_restriction_check(trig_poly, model)
        x1, y1, x2, y2 = model.grid_axes
        errors = {
            "invariant_reproduction_error": (
                float(np.abs(avg_inv - f_inv).max()), np.abs(f_inv).max()),
            "weight_one_mode_residual": (
                float(np.abs(avg_mode).max()),
                np.hypot(np.abs(np.subtract.outer(x1, y2)).max(),
                         np.abs(np.add.outer(y1, x2)).max())),
            "real_restriction_difference": (restriction, trig_max[0]),
        }
    passed = bool(slope >= 1.9 and all(
        err <= 1e-13 * max(1.0, m) for err, m in errors.values()))
    return {key: err for key, (err, _) in errors.items()}, passed


@pytest.mark.parametrize("n_space", [9, 17, 25])
def test_bench_holo_reduced_slabs_give_the_grid_path_report(tmp_path,
                                                            monkeypatch,
                                                            n_space):
    # n_space 25 cuts its rows into runs of columns
    spec = HoloSpec(n_theta=8, n_space=n_space)
    errors, passed = grid_path_report(spec)
    for workers in (1, 2, 3):
        monkeypatch.setattr(holo, "_available_cpus", lambda: workers)
        report, code = run_holo_bench(spec, out_dir=str(tmp_path))
        assert {key: repr(report[key]) for key in errors} == {
            key: repr(err) for key, err in errors.items()}
        assert report["pass"] is passed and code == EXIT_PASS


@pytest.mark.parametrize("space_radius", [8e153, 1e155, 1e308, 5e-324])
def test_bench_holo_grid_errors_are_the_grid_paths(tmp_path, space_radius):
    # at 8e153 the invariant's samples are finite and its mean is not
    spec = HoloSpec(space_radius=space_radius, **WIDE_HOLO)
    with pytest.raises(GridError) as grid_path:
        grid_path_report(spec)
    with pytest.raises(GridError) as reduced:
        run_holo_bench(spec, out_dir=str(tmp_path))
    assert str(reduced.value) == str(grid_path.value)


def test_bench_holo_memory_does_not_grow_with_the_grid(tmp_path):
    # a reduced pass holds slabs: at n_space 33 each grid of the old pass,
    # the sampled invariant, two means and the abs temporaries, was 19 MB
    code = (
        "import resource, sys\n"
        "from haarrect.harness import HoloSpec, run_holo_bench\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "report, code = run_holo_bench(HoloSpec(n_theta=8, n_space=33), "
        "sys.argv[1])\n"
        "print(code, (peak() - before) / 1024)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120)
    exit_code, growth_mb = out.stdout.split()
    assert int(exit_code) == EXIT_PASS
    assert float(growth_mb) <= 16


def test_bench_holo_fails_a_relative_error_in_the_average(tmp_path,
                                                          monkeypatch):
    # each slab's means are off by 1e-10 when the reducer reads them
    average = harness.core_average_function

    def off_by_1e_10(f, model, reduce):
        return average(f, model, reduce=lambda z1, z2, *means: reduce(
            z1, z2, *(v * (1 + 1e-10) for v in means)))

    monkeypatch.setattr(harness, "core_average_function", off_by_1e_10)
    report, code = run_holo_bench(HoloSpec(space_radius=999, **WIDE_HOLO),
                                  out_dir=str(tmp_path))
    assert report["pass"] is False and code == EXIT_NUMERIC_DOMAIN


@pytest.mark.parametrize("command, config", [
    ("run", "u1_onestep.json"), ("bench-holo", "holo_bench.json")])
def test_cli_out_naming_a_file_is_one_line_error(tmp_path, capsys, command,
                                                 config):
    # this ended in a FileExistsError traceback with exit 1
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main([command, "--config", os.path.join(CONFIG_DIR, config),
                 "--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: output directory ")
    assert err.count("\n") == 1
    assert out.read_text() == "keep me\n"
    assert os.listdir(tmp_path) == ["taken"]


def test_cli_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RECTIFY_OUT", str(tmp_path))
    code = main(["run", "--config", os.path.join(CONFIG_DIR, "u1_onestep.json")])
    assert code == EXIT_PASS
    assert os.path.exists(tmp_path / "u1_onestep_report.json")
