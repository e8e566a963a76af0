"""Experiment orchestration: configs, morphism generation, runs, reports.

Configs are JSON, checked against SCHEMA.  On one machine, numpy build and
OpenBLAS build, identical configs (seeds included) produce byte-identical
trace and report files.  Floats are serialized with shortest round-trip
repr, file writes are atomic (write-temp-then-rename), and reports carry a
digest of the canonical config.  ``dumps`` is the one JSON form of every
command's result (a plain dict), printed or written.
"""

import functools
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict

import numpy as np

from .errors import (
    ActionError,
    ConfigError,
    CoreAxiomError,
    DefectTooLarge,
    HaarrectError,
    InvarianceError,
    NonContraction,
    RangeEscape,
)
from .groupoids import FiniteGroup, build_action_groupoid, build_pair_groupoid
from .groupoids import attach_haar_density, build_core, validate_groupoid
from .groups import AmbientSets, estimate_bch_constants, normalize_algebra_norm
from .groups import ALGEBRA_OF, _compose, _exp_matrices
from .holo import build_complexified_model, core_average_function
from .holo import cr_convergence_order, real_restriction_check, sample_function
from .rectifier import admissible_defect_radius, iterate, verify_core_morphism

EXIT_PASS = 0
EXIT_PRECONDITION = 2
EXIT_NON_CONTRACTION = 3
EXIT_NUMERIC_DOMAIN = 4

# Exit codes for run_experiment and the CLI; the nearest listed class wins.
EXIT_CODES = {
    HaarrectError: EXIT_NUMERIC_DOMAIN,
    ConfigError: EXIT_PRECONDITION,
    ActionError: EXIT_PRECONDITION,
    CoreAxiomError: EXIT_PRECONDITION,
    InvarianceError: EXIT_PRECONDITION,
    DefectTooLarge: EXIT_PRECONDITION,
    RangeEscape: EXIT_PRECONDITION,
    NonContraction: EXIT_NON_CONTRACTION,
}


def exit_code_for(exc):
    """Exit code of a package error: its nearest class in EXIT_CODES."""
    return next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)

DEFAULT_OUT_ENV = "RECTIFY_OUT"


def output_dir(out=None):
    """Create and return the output directory: ``out``, else $RECTIFY_OUT,
    else the current directory; ConfigError if it cannot be made."""
    out = out or os.environ.get(DEFAULT_OUT_ENV, ".")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r}: {exc.strerror}") from exc
    return out


_FLOAT_MAX = float(np.finfo(float).max)


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_number(value):
    """A real number with a finite float value (bools excluded)."""
    if isinstance(value, np.generic):
        value = value.item()
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= _FLOAT_MAX)


def _is_file_name(value):
    """A name for a file in the output directory: no directory part."""
    return (isinstance(value, str) and value not in ("", ".", "..")
            and "\0" not in value and os.path.basename(value) == value)


def _must(test, what):
    """A check with the error line '<key path> must be <what>, not <value>'."""
    return test, f"{{path}} must be {what}, not {{value!r}}"


def _int_at_least(least):
    return _must(lambda v: _is_int(v) and v >= least, f"an integer >= {least}")


def _one_of(*choices):
    return _must(lambda v: v in choices, f"one of {', '.join(choices)}")


_NUMBER = _must(_is_number, "a finite number")
_NON_NEGATIVE = _must(lambda v: _is_number(v) and v >= 0,
                      "a finite non-negative number")
_POSITIVE = _must(lambda v: _is_number(v) and v > 0,
                  "a finite positive number")
_COUNT = _must(lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_SIZE = _must(lambda v: _is_int(v) and v >= 1, "a positive integer")
_FILE_NAME = _must(_is_file_name, "a file name")

# Largest product table (and full core), bench-holo grid or eta node count
# a config may ask for: pair(215) at most; pair(200) has 8 * 10^6 entries.
MAX_TABLE_ENTRIES = 10 ** 7
MAX_SAMPLE_COUNT = 10 ** 6      # constants samples; SO3 peaks near 840 MB


def _require_table_size(keys, entries, what="product-table entries"):
    """ConfigError naming ``keys`` if a table of ``entries`` exceeds the cap;
    checked from the config, before anything is allocated."""
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(f"{keys}: {entries} {what} are above the cap of "
                          f"{MAX_TABLE_ENTRIES}")


MORPHISM_KINDS = ("auto", "coboundary", "homomorphism", "trivial")

# Every config key, once: section -> key -> (default, check, ...), where a
# check is (test, error line).  Section "" is a bench-holo config, the others
# are the sections of a run config.  "core" and "density" are (word, key):
# the word, or an object of that one key, checked once the groupoid is built.
SCHEMA = {
    "group": {
        "tag": ("SO3", (lambda v: isinstance(v, str) and v in ALGEBRA_OF,
                        "{path}: unknown group {value!r} (one of "
                        + ", ".join(ALGEBRA_OF) + ")")),
        "raw_norm": ("euclid", (lambda v: v in ("euclid", "frobenius"),
                                "{path}: unknown norm {value!r}")),
    },
    "groupoid": {
        "constructor": ("pair", (lambda v: v in ("pair", "action"),
                                 "unknown groupoid constructor {value!r}")),
        "size": (3, _SIZE),             # pair groupoid point count
        "group_order": (2, _SIZE),      # action groupoid: cyclic group order
        "space_size": (1, _SIZE),       # action groupoid: cyclic space size
    },
    "core": ("full", "arrows"),
    "density": ("uniform", "weights"),
    "morphism": {
        "kind": ("auto", _one_of(*MORPHISM_KINDS)),
        "seed": (0, _COUNT),
        "scale": (0.25, _NUMBER),       # coboundary generator radius
    },
    "perturbation": {
        "epsilon": (0.0, _NON_NEGATIVE),
        "seed": (0, _COUNT),
        "side": ("right", _one_of("right", "left")),
        "perturb_units": (True, _must(lambda v: isinstance(v, bool),
                                      "true or false")),
    },
    "constants": {
        "sample_count": (2000, _int_at_least(1000),
                         _must(lambda v: v <= MAX_SAMPLE_COUNT,
                               f"at most {MAX_SAMPLE_COUNT}")),
        "safety_factor": (1.25, _must(lambda v: _is_number(v) and v >= 1,
                                      "a finite number >= 1")),
        "W_radius": (1.5, _NUMBER),
        "K_radius": (2.5, _NUMBER),
        "seed": (0, _COUNT),
    },
    "iteration": {"tol": (1e-12, _NON_NEGATIVE), "max_iter": (50, _COUNT)},
    "output": {"trace": ("trace.csv", _FILE_NAME),
               "report": ("report.json", _FILE_NAME)},
    "": {
        "space_radius": (1.0, _POSITIVE),
        "eta_max": (0.2, _POSITIVE),
        "n_theta": (32, _int_at_least(1)),
        "n_space": (9, _int_at_least(3)),   # the centered differences
        "n_eta": (5, _int_at_least(1)),
        "n_shells": (3, _int_at_least(1)),
        "probe_center": ((0.3, 0.05, 0.2, -0.05), _must(
            lambda v: isinstance(v, (list, tuple)) and len(v) == 4
            and all(map(_is_number, v)), "four finite numbers")),
        "slope_hs": ((1e-2, 5e-3, 2.5e-3), _must(
            lambda v: isinstance(v, (list, tuple))
            and all(_is_number(h) and h > 0 for h in v) and len(set(v)) >= 2,
            "at least two distinct positive numbers")),
        "seed": (0, _COUNT),
        "report": ("holo_report.json", _FILE_NAME),
    },
}


class _Spec:
    """One SCHEMA section as a read-only value: keyword construction fills
    the defaults and runs each key's checks in key order, then ``_check``."""

    def __init_subclass__(cls, section):
        cls.section = section
        for key, (default, *_) in SCHEMA[section].items():
            setattr(cls, key, default)

    def __init__(self, /, **values):
        _check_keys(values, SCHEMA[self.section], self.section)
        for key, (default, *checks) in SCHEMA[self.section].items():
            value = values.get(key, default)
            for test, line in checks:
                if not test(value):
                    path = f"{self.section}.{key}".lstrip(".")
                    raise ConfigError(line.format(path=path, value=value))
            object.__setattr__(self, key, value)
        self._check()

    def _check(self):
        """The section's cross-key check."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __hash__(self):
        return hash((type(self), *vars(self).values()))


GroupSpec = type("GroupSpec", (_Spec,), {}, section="group")
MorphismSpec = type("MorphismSpec", (_Spec,), {}, section="morphism")
PerturbationSpec = type("PerturbationSpec", (_Spec,), {},
                        section="perturbation")
IterationSpec = type("IterationSpec", (_Spec,), {}, section="iteration")


class GroupoidSpec(_Spec, section="groupoid"):
    def _check(self):
        if self.constructor == "action" and self.group_order % self.space_size:
            raise ConfigError(f"cyclic({self.group_order}) does not act on "
                              f"{self.space_size} points by translation")
        # n objects give n^3 entries; each of the group_order * space_size
        # arrows of an action has a row of group_order entries
        if self.constructor == "pair":
            _require_table_size("groupoid.size", self.size ** 3)
        else:
            _require_table_size("groupoid.group_order, groupoid.space_size",
                                self.group_order ** 2 * self.space_size)


class ConstantsSpec(_Spec, section="constants"):
    def _check(self):
        # ambient-ball invariants are re-validated by AmbientSets
        try:
            AmbientSets(self.W_radius, self.K_radius)
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from exc


class OutputSpec(_Spec, section="output"):
    def _check(self):
        # one file would hold the report, written last, and no trace
        if self.trace == self.report:
            raise ConfigError(f"output.report is output.trace: {self.trace!r}")


class HoloSpec(_Spec, section=""):
    """A bench-holo config; every key is optional."""

    def _check(self):
        # the real slice: n_theta rotations of n_shells * n_theta lattice
        # points, each with a row of n_theta entries
        _require_table_size("n_theta, n_shells",
                            self.n_theta ** 3 * self.n_shells)
        # the rectangular grid has n_space^4 points, n_space made odd
        _require_table_size("n_space", (self.n_space | 1) ** 4, "grid points")
        _require_table_size("n_eta", self.n_eta, "eta nodes")

    @staticmethod
    def from_json(path):
        return HoloSpec(**_check_keys(read_json_config(path), SCHEMA[""], ""))


class ExperimentConfig:
    """A run config from ``from_dict``: an attribute per SCHEMA section."""

    @staticmethod
    def from_dict(data):
        """Config from parsed JSON; an unknown key at any level is an error."""
        _check_keys(data, [name for name in SCHEMA if name], "")
        spec_of = {cls.section: cls for cls in _Spec.__subclasses__()}
        config = ExperimentConfig()
        for name, keys in SCHEMA.items():
            if isinstance(keys, tuple):
                word, inner = keys
                value = data.get(name, word)
                if value != word and not _check_keys(value, keys[1:], name):
                    raise ConfigError(f"{name}: missing key {name}.{inner}")
                setattr(config, name, value)
            elif name:
                setattr(config, name, spec_of[name](
                    **_check_keys(data.get(name, {}), keys, name)))
        return config

    @staticmethod
    def from_json(path):
        return ExperimentConfig.from_dict(read_json_config(path))

    def canonical_json(self):
        return json.dumps(vars(self), default=vars, sort_keys=True,
                          separators=(",", ":"))

    def digest(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def read_json_config(path):
    """Parsed JSON of a config file; ConfigError if it cannot be read or
    repeats a key in one object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unless_repeated)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if isinstance(data, _Repeated):
        raise ConfigError(f"config repeats the key {data!r}")
    return data


class _Repeated(str):
    """The key path of a repeated key, standing in for the JSON object that
    holds it, where json alone would keep the last value silently."""


def _unless_repeated(pairs):
    """object_pairs_hook: the object as a dict, or a _Repeated for the first
    repeated key in it or in an object below it.  (A _Repeated inside a list
    is left to the list's own check: no config list holds objects.)"""
    out = {}
    for key, value in pairs:
        if isinstance(value, _Repeated):
            return _Repeated(f"{key}.{value}")
        if key in out:
            return _Repeated(key)
        out[key] = value
    return out


def _check_keys(section, names, path):
    """``section`` if it is an object whose keys are all in ``names``."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    for key in section:
        if key not in names:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {name!r}")
    return section


# ---------------------------------------------------------------------------
# construction from configs
# ---------------------------------------------------------------------------

def build_groupoid(spec):
    if spec.constructor == "pair":
        return build_pair_groupoid(spec.size)
    order, m = spec.group_order, spec.space_size
    return build_action_groupoid(FiniteGroup.cyclic(order),
                                 (np.arange(order)[:, None] + np.arange(m)) % m)


def build_core_from_config(g, core_spec):
    if core_spec == "full":
        return build_core(g, tuple(range(g.n_arrows)))
    arrows = core_spec["arrows"]
    if not (isinstance(arrows, list) and arrows
            and all(type(a) is int and 0 <= a < g.n_arrows for a in arrows)):
        raise ConfigError(f"core.arrows: expected a nonempty list of arrow "
                          f"indices below {g.n_arrows}")
    return build_core(g, tuple(arrows))


def build_density_from_config(core, density_spec):
    """Density of a config; a bad weight table is a ConfigError, a weight
    table that is not right invariant an InvarianceError."""
    if density_spec == "uniform":
        return attach_haar_density(core, "uniform")
    table = density_spec["weights"]
    if not isinstance(table, dict):
        raise ConfigError("density.weights: expected a JSON object")
    # a key is a core arrow's index in canonical decimal: "01" would
    # silently stand for arrow 1
    arrow_of = {str(a): a for a in core.arrow_subset}
    bad = next((k for k in table if k not in arrow_of), None)
    if bad is not None:
        raise ConfigError(f"density.weights: key {bad!r} is not the index "
                          f"of a core arrow")
    for k, v in table.items():      # float() would take "1" and true too
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"density.weights.{k} must be a number, not {v!r}")
    try:
        weights = {arrow_of[k]: float(v) for k, v in table.items()}
    except OverflowError as exc:    # an int beyond the float range
        raise ConfigError(f"density.weights: {exc}") from exc
    try:
        return attach_haar_density(core, weights)
    except ValueError as exc:       # an InvarianceError is not one
        raise ConfigError(f"density.weights: {exc}") from exc


# ---------------------------------------------------------------------------
# exact morphisms and perturbations
# ---------------------------------------------------------------------------

def _cyclic_homomorphism_values(alg, order):
    """Group values of a generator for cyclic(order) -> target, or None.

    The generator turns by one order-th of a full turn about the last
    algebra axis.  Values must stay inside the measurable range of the log,
    which rules out even orders in SU(2): the image of order/2 is -identity,
    on the branch boundary.
    """
    if alg.group_id == "SU2" and order % 2 == 0:
        return None
    full_turn = 4 * np.pi if alg.group_id == "SU2" else 2 * np.pi
    coords = np.zeros((order, alg.dim))
    coords[:, -1] = full_turn * np.arange(order) / order
    return list(_exp_matrices(alg, coords))


def generate_exact_morphism(g, spec, alg, morphism_spec):
    """Seeded exact morphism into the target group, and its warnings.

    The morphism is the (n_arrows, m, m) stack of its values, float64 for
    SO2/SO3 and complex otherwise.  Kind "trivial" maps every arrow to the
    identity.  Kind "coboundary", and every other kind on a pair groupoid,
    gives phi(a) = h_t(a) h_s(a)^-1 from seeded per-object elements.  On an
    action groupoid, "auto" and "homomorphism" give a homomorphism of the
    acting cyclic group composed with the arrow's group part, conjugated by
    a seeded element for variety; when no usable homomorphism exists the
    trivial one is substituted with a warning.
    """
    zero = np.zeros((g.n_arrows, alg.dim))     # exp(0) is the identity
    if morphism_spec.kind == "trivial":
        return _exp_matrices(alg, zero), []
    rng = np.random.default_rng(morphism_spec.seed)
    if spec.constructor == "pair" or morphism_spec.kind == "coboundary":
        h = _exp_matrices(alg, alg.sample_ball(rng, morphism_spec.scale,
                                               g.n_objects))
        return h[g.target] @ h[g.source].conj().swapaxes(-1, -2), []

    order = spec.group_order
    gen_values = _cyclic_homomorphism_values(alg, order)
    if gen_values is None:
        msg = (f"no usable homomorphism cyclic({order}) -> {alg.group_id}; "
               f"substituting the trivial one")
        warnings.warn(msg)
        return _exp_matrices(alg, zero), [msg]
    # conjugate by a seeded element: still a homomorphism, same range
    z = _exp_matrices(alg, alg.sample_ball(rng, 0.5, 1))[0]
    gen_values = np.array([z @ v @ z.conj().T for v in gen_values])
    # arrow a is (group element a // space_size, point a % space_size)
    return gen_values[np.arange(g.n_arrows) // spec.space_size], []


def perturb_morphism(phi, alg, pert, g):
    """phi0(p) = phi(p) . exp(w_p) with w_p uniform in the epsilon ball.

    ``phi`` is a value stack as ``generate_exact_morphism`` returns it, and
    phi0 is one of the same shape and dtype.  The left-multiplication
    variant is available through ``side``; the unit arrows of the groupoid
    ``g`` are optionally left unperturbed.  Identical seeds give identical
    outputs byte-for-byte.  Whether phi0 takes values in W is checked by
    ``iterate``.
    """
    rng = np.random.default_rng(pert.seed)
    w = alg.sample_ball(rng, pert.epsilon, len(phi))
    if not pert.perturb_units:
        w[np.asarray(g.unit_arrows)] = 0.0
    noise = _exp_matrices(alg, w)
    if pert.side == "right":
        return _compose(phi, noise)
    return _compose(noise, phi)


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

@functools.cache
def algebra_for(group_spec):
    """The normalized algebra of a group spec (memoized)."""
    return normalize_algebra_norm(ALGEBRA_OF[group_spec.tag],
                                  group_spec.raw_norm)


@functools.cache
def constants_for(alg, cspec):
    """Estimate (and memoize) the constants for a constants spec."""
    return estimate_bch_constants(
        alg, AmbientSets(cspec.W_radius, cspec.K_radius),
        sample_count=cspec.sample_count, safety_factor=cspec.safety_factor,
        seed=cspec.seed,
    )


def _format_float(x):
    return repr(float(x))


def write_trace_csv(path, trace):
    """Trace table: one row per step plus a final defect-only row."""
    lines = ["n,delta,correction_norm,step_move,q_bound,q_certified"]
    for n in range(trace.iterations):
        lines.append(",".join([
            str(n),
            _format_float(trace.deltas[n]),
            _format_float(trace.correction_norms[n]),
            _format_float(trace.step_moves[n]),
            _format_float(trace.q_bounds[n]),
            "1" if trace.q_certified[n] else "0",
        ]))
    lines.append(",".join([
        str(trace.iterations),
        _format_float(trace.deltas[-1]),
        "", "", "", "",
    ]))
    _atomic_write(path, "\n".join(lines) + "\n")


def dumps(data):
    """The JSON text of a command's result: sorted keys, a 2-space indent,
    and null for each non-finite float, at any depth."""
    def finite(x):
        if isinstance(x, float):        # np.float64 included
            return x if np.isfinite(x) else None
        if isinstance(x, dict):
            return {k: finite(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [finite(v) for v in x]
        return x

    return json.dumps(finite(data), sort_keys=True, indent=2, allow_nan=False)


def _atomic_write(path, text):
    """Write a unique temp file in the target directory, then rename it."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)     # mkstemp's file is owner-only: give it the
        os.umask(umask)         # mode a plain open would
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def recompute_pass_from_trace(path, tol):
    """Pass flag recomputed from a persisted trace alone."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().strip().splitlines()[1:]
    deltas, flags = [], []
    for row in rows:
        cells = row.split(",")
        deltas.append(float(cells[1]))
        if cells[5] != "":
            flags.append(cells[5] == "1")
    return deltas[-1] <= tol and all(flags)


def run_experiment(config, out_dir=None):
    """End-to-end run; returns (report, exit_code) and persists artifacts.
    The report is a dict of the report file's keys, with failure values
    (NaN, False, 0, "error") where the run got no result."""
    out_dir = output_dir(out_dir)
    trace_path = os.path.join(out_dir, config.output.trace)
    report_path = os.path.join(out_dir, config.output.report)

    alg = algebra_for(config.group)
    sets = AmbientSets(config.constants.W_radius, config.constants.K_radius)
    constants = constants_for(alg, config.constants)
    report = {
        "config_digest": config.digest(),
        "constants": asdict(constants),
        "admissible_radius": admissible_defect_radius(constants),
        "initial_defect": np.nan, "final_defect": np.nan,
        "residual_core": np.nan, "residual_full": np.nan,
        "total_displacement": np.nan, "iterations": 0, "terminated": "error",
        "all_q_certified": False, "all_correction_bounds_ok": False,
        "all_step_bounds_ok": False, "warnings": [], "error": None,
    }

    g = build_groupoid(config.groupoid)
    core = build_core_from_config(g, config.core)
    weights = build_density_from_config(core, config.density)

    exit_code = EXIT_PASS
    try:
        phi_exact, report["warnings"] = generate_exact_morphism(
            g, config.groupoid, alg, config.morphism
        )
        phi0 = perturb_morphism(phi_exact, alg, config.perturbation, g)
        limit, trace = iterate(
            phi0, core, weights, alg, constants, sets=sets,
            tol=config.iteration.tol, max_iter=config.iteration.max_iter,
        )
        # the final defect is the limit's core residual, measured once
        report.update(
            initial_defect=trace.deltas[0], final_defect=trace.deltas[-1],
            residual_core=trace.deltas[-1], iterations=trace.iterations,
            terminated=trace.terminated,
            all_q_certified=all(trace.q_certified),
            all_correction_bounds_ok=all(trace.correction_bound_ok),
            all_step_bounds_ok=all(trace.step_bound_ok),
            total_displacement=trace.total_displacement)
        # a full core's pairs are the products, both lists being unique
        report["residual_full"] = (
            trace.deltas[-1] if len(core.pairs) == len(g.products)
            else verify_core_morphism(limit, core, alg, full=True))
        write_trace_csv(trace_path, trace)
    except HaarrectError as exc:
        report["error"] = f"{type(exc).__name__}: {exc}"
        exit_code = exit_code_for(exc)
        if exc.initial_defect is not None:
            report["initial_defect"] = exc.initial_defect
        if isinstance(exc, NonContraction) and exc.trace is not None:
            write_trace_csv(trace_path, exc.trace)
        elif os.path.lexists(trace_path):
            os.remove(trace_path)   # an older trace must not pass for this run's

    tol = config.iteration.tol
    residual_contract = (constants.d_prime / constants.d) * tol + 1e-15
    report["passed"] = bool(
        report["error"] is None and report["final_defect"] <= tol
        and report["all_q_certified"]
        and report["residual_core"] <= residual_contract)
    if report["error"] is None and not report["passed"]:
        exit_code = EXIT_NON_CONTRACTION
    _atomic_write(report_path, dumps(report) + "\n")
    return report, exit_code


# a value that overflows shows as a failed threshold or a GridError (exit
# 4), not also as a RuntimeWarning
@np.errstate(all="ignore")
def run_holo_bench(spec, out_dir=None):
    """bench-holo run; returns (report, exit_code) and persists the report."""
    out_dir = output_dir(out_dir)
    model = build_complexified_model(
        space_radius=spec.space_radius,
        eta_max=spec.eta_max,
        n_theta=spec.n_theta,
        n_space=spec.n_space,
        n_eta=spec.n_eta,
        n_shells=spec.n_shells,
    )

    invariant = lambda z1, z2: z1 * z1 + z2 * z2
    weight_one = lambda z1, z2: z1 + 1j * z2
    quartic = lambda z1, z2: (z1 * z1 + z2 * z2) ** 2

    f_inv = sample_function(invariant, model)
    avg_inv = core_average_function(invariant, model)
    invariant_err = float(np.abs(avg_inv - f_inv).max())
    mode_residual = float(
        np.abs(core_average_function(weight_one, model)).max()
    )
    slope, residuals = cr_convergence_order(
        lambda z1, z2: quartic(z1, z2),
        center=spec.probe_center,
        hs=tuple(spec.slope_hs),
    )
    rng = np.random.default_rng(spec.seed)
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    trig_max = [0.0]        # largest |trig_poly| that the check evaluates

    def trig_poly(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        values = (coeffs[0] + coeffs[1] * wp + coeffs[2] * wm
                  + coeffs[3] * wp * wp * wm)
        trig_max[0] = max(trig_max[0], float(np.abs(values).max()))
        return values

    restriction = real_restriction_check(trig_poly, model)

    # rounding grows with the values an error is measured against: each
    # error is held to 1e-13 times their largest magnitude, if that is > 1
    x1, y1, x2, y2 = model.grid_axes
    errors_and_magnitudes = (
        (invariant_err, np.abs(f_inv).max()),
        # |z1 + i z2| = |(x1 - y2) + i (y1 + x2)| at its largest on the grid
        (mode_residual, np.hypot(np.abs(np.subtract.outer(x1, y2)).max(),
                                 np.abs(np.add.outer(y1, x2)).max())),
        (restriction, trig_max[0]),
    )

    results = {
        "grid": {
            "n_theta": model.n_theta,
            "eta_max": model.eta_max,
            "space_radius": model.space_radius,
            "n_space": len(model.grid_axes[0]),
            "spacing": model.grid_spacing,
            "lattice_radii": list(model.lattice_radii),
        },
        "invariant_reproduction_error": invariant_err,
        "weight_one_mode_residual": mode_residual,
        "cr_slope": slope,
        "cr_residuals": list(residuals),
        "real_restriction_difference": restriction,
        "pass": bool(slope >= 1.9 and all(
            err <= 1e-13 * max(1.0, m) for err, m in errors_and_magnitudes)),
    }
    _atomic_write(os.path.join(out_dir, spec.report), dumps(results) + "\n")
    return results, EXIT_PASS if results["pass"] else EXIT_NUMERIC_DOMAIN


def validate_config(config):
    """Dry-run validation of the groupoid, core and density axioms."""
    g = build_groupoid(config.groupoid)
    issues = [f"groupoid: {axiom} at {witness}"
              for axiom, witness in validate_groupoid(g)]
    try:
        core = build_core_from_config(g, config.core)
        try:
            build_density_from_config(core, config.density)
        except InvarianceError as exc:
            issues.append(f"density: {exc}")
    except CoreAxiomError as exc:
        issues.append(f"core: {exc}")
    return issues
