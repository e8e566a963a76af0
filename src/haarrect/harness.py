"""Experiment orchestration: configs, morphism generation, runs, reports.

Configs are JSON; identical configs (seeds included) produce byte-identical
trace and report files.  Floats are serialized with shortest round-trip
repr, file writes are atomic (write-temp-then-rename), and reports carry a
digest of the canonical config.
"""

import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass

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
from .groups import ALGEBRA_OF, _exp_matrices
from .rectifier import (
    admissible_defect_radius,
    almost_morphism,
    iterate,
    verify_core_morphism,
)

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


def _require(ok, path, what, value):
    """ConfigError naming the key path unless ``ok``."""
    if not ok:
        raise ConfigError(f"{path} must be {what}, not {value!r}")


def _require_seed(path, value):
    _require(_is_int(value) and value >= 0, path, "a non-negative integer",
             value)


def _require_choice(path, value, choices):
    _require(value in choices, path, f"one of {', '.join(choices)}", value)


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


@dataclass(frozen=True)
class GroupSpec:
    tag: str = "SO3"
    raw_norm: str = "euclid"

    def __post_init__(self):
        if not (isinstance(self.tag, str) and self.tag in ALGEBRA_OF):
            raise ConfigError(f"group.tag: unknown group {self.tag!r} "
                              f"(one of {', '.join(ALGEBRA_OF)})")
        if self.raw_norm not in ("euclid", "frobenius"):
            raise ConfigError(f"group.raw_norm: unknown norm {self.raw_norm!r}")


@dataclass(frozen=True)
class GroupoidSpec:
    constructor: str = "pair"       # "pair" | "action"
    size: int = 3                   # pair groupoid point count
    group_order: int = 2            # action groupoid: cyclic group order
    space_size: int = 1             # action groupoid: cyclic space size

    def __post_init__(self):
        if self.constructor not in ("pair", "action"):
            raise ConfigError(f"unknown groupoid constructor {self.constructor!r}")
        for name in ("size", "group_order", "space_size"):
            value = getattr(self, name)
            _require(_is_int(value) and value >= 1, f"groupoid.{name}",
                     "a positive integer", value)
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


MORPHISM_KINDS = ("auto", "coboundary", "homomorphism", "trivial")


@dataclass(frozen=True)
class MorphismSpec:
    kind: str = "auto"              # one of MORPHISM_KINDS
    seed: int = 0
    scale: float = 0.25             # coboundary generator radius

    def __post_init__(self):
        _require_choice("morphism.kind", self.kind, MORPHISM_KINDS)
        _require_seed("morphism.seed", self.seed)
        _require(_is_number(self.scale), "morphism.scale", "a finite number",
                 self.scale)


@dataclass(frozen=True)
class PerturbationSpec:
    epsilon: float = 0.0
    seed: int = 0
    side: str = "right"             # "right" | "left"
    perturb_units: bool = True

    def __post_init__(self):
        _require(_is_number(self.epsilon) and self.epsilon >= 0,
                 "perturbation.epsilon", "a finite non-negative number",
                 self.epsilon)
        _require_seed("perturbation.seed", self.seed)
        _require_choice("perturbation.side", self.side, ("right", "left"))
        _require(isinstance(self.perturb_units, bool),
                 "perturbation.perturb_units", "true or false",
                 self.perturb_units)


@dataclass(frozen=True)
class ConstantsSpec:
    sample_count: int = 2000
    safety_factor: float = 1.25
    W_radius: float = 1.5
    K_radius: float = 2.5
    seed: int = 0

    def __post_init__(self):
        _require(_is_int(self.sample_count) and self.sample_count >= 1000,
                 "constants.sample_count", "an integer >= 1000",
                 self.sample_count)
        _require(self.sample_count <= MAX_SAMPLE_COUNT,
                 "constants.sample_count", f"at most {MAX_SAMPLE_COUNT}",
                 self.sample_count)
        _require(_is_number(self.safety_factor) and self.safety_factor >= 1,
                 "constants.safety_factor", "a finite number >= 1",
                 self.safety_factor)
        for name in ("W_radius", "K_radius"):
            value = getattr(self, name)
            _require(_is_number(value), f"constants.{name}", "a finite number",
                     value)
        _require_seed("constants.seed", self.seed)
        # ambient-ball invariants are re-validated by AmbientSets
        try:
            AmbientSets(self.W_radius, self.K_radius)
        except ValueError as exc:
            raise ConfigError(f"constants: {exc}") from exc


@dataclass(frozen=True)
class IterationSpec:
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        _require(_is_number(self.tol) and self.tol >= 0, "iteration.tol",
                 "a finite non-negative number", self.tol)
        _require(_is_int(self.max_iter) and self.max_iter >= 0,
                 "iteration.max_iter", "a non-negative integer", self.max_iter)


@dataclass(frozen=True)
class OutputSpec:
    trace: str = "trace.csv"
    report: str = "report.json"

    def __post_init__(self):
        for name in ("trace", "report"):
            value = getattr(self, name)
            _require(_is_file_name(value), f"output.{name}", "a file name",
                     value)


@dataclass(frozen=True)
class HoloSpec:
    """A bench-holo config; every key is optional."""

    space_radius: float = 1.0
    eta_max: float = 0.2
    n_theta: int = 32
    n_space: int = 9                # 3 at least: the centered differences
    n_eta: int = 5
    n_shells: int = 3
    probe_center: tuple = (0.3, 0.05, 0.2, -0.05)
    slope_hs: tuple = (1e-2, 5e-3, 2.5e-3)
    seed: int = 0
    report: str = "holo_report.json"

    def __post_init__(self):
        for name in ("space_radius", "eta_max"):
            value = getattr(self, name)
            _require(_is_number(value) and value > 0, name,
                     "a finite positive number", value)
        for name, least in (("n_theta", 1), ("n_space", 3), ("n_eta", 1),
                            ("n_shells", 1)):
            value = getattr(self, name)
            _require(_is_int(value) and value >= least, name,
                     f"an integer >= {least}", value)
        center = self.probe_center
        _require(isinstance(center, (list, tuple)) and len(center) == 4
                 and all(map(_is_number, center)), "probe_center",
                 "four finite numbers", center)
        hs = self.slope_hs
        _require(isinstance(hs, (list, tuple))
                 and all(_is_number(h) and h > 0 for h in hs)
                 and len(set(hs)) >= 2, "slope_hs",
                 "at least two distinct positive numbers", hs)
        _require_seed("seed", self.seed)
        _require(_is_file_name(self.report), "report", "a file name",
                 self.report)
        # the real slice: n_theta rotations of n_shells * n_theta lattice
        # points, each with a row of n_theta entries
        _require_table_size("n_theta, n_shells",
                            self.n_theta ** 3 * self.n_shells)
        # the rectangular grid has n_space^4 points, n_space made odd
        _require_table_size("n_space", (self.n_space | 1) ** 4, "grid points")
        _require_table_size("n_eta", self.n_eta, "eta nodes")


@dataclass(frozen=True)
class ExperimentConfig:
    group: GroupSpec = field(default_factory=GroupSpec)
    groupoid: GroupoidSpec = field(default_factory=GroupoidSpec)
    core: object = "full"           # "full" | {"arrows": [...]}
    density: object = "uniform"     # "uniform" | {"weights": {...}}
    morphism: MorphismSpec = field(default_factory=MorphismSpec)
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)
    constants: ConstantsSpec = field(default_factory=ConstantsSpec)
    iteration: IterationSpec = field(default_factory=IterationSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    @staticmethod
    def from_dict(data):
        """Config from parsed JSON; an unknown key at any level is an error."""
        _check_keys(data, ExperimentConfig, "")

        def sub(cls, key):
            return cls(**_check_keys(data.get(key, {}), cls, key))

        def choice(key, default, inner):
            value = data.get(key, default)
            if value != default and inner not in _check_keys(value, (inner,), key):
                raise ConfigError(f"{key}: missing key {key}.{inner}")
            return value

        return ExperimentConfig(
            group=sub(GroupSpec, "group"),
            groupoid=sub(GroupoidSpec, "groupoid"),
            core=choice("core", "full", "arrows"),
            density=choice("density", "uniform", "weights"),
            morphism=sub(MorphismSpec, "morphism"),
            perturbation=sub(PerturbationSpec, "perturbation"),
            constants=sub(ConstantsSpec, "constants"),
            iteration=sub(IterationSpec, "iteration"),
            output=sub(OutputSpec, "output"),
        )

    @staticmethod
    def from_json(path):
        return ExperimentConfig.from_dict(read_json_config(path))

    def canonical_json(self):
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    def digest(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def read_json_config(path):
    """Parsed JSON of a config file; ConfigError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _check_keys(section, allowed, path):
    """``section`` if its keys are all ``allowed`` (names or dataclass fields)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'config'}: expected a JSON object")
    names = [f.name for f in fields(allowed)] if is_dataclass(allowed) else allowed
    for key in section:
        if key not in names:
            name = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {name!r}")
    return section


@dataclass(frozen=True)
class RunReport:
    config_digest: str
    constants: dict
    admissible_radius: float
    initial_defect: float
    final_defect: float
    iterations: int
    all_q_certified: bool
    all_correction_bounds_ok: bool
    all_step_bounds_ok: bool
    residual_core: float
    residual_full: float
    total_displacement: float
    terminated: str
    passed: bool
    warnings: tuple = ()
    error: object = None

    def to_json(self):
        def clean(x):
            if isinstance(x, float) and not np.isfinite(x):
                return None
            if isinstance(x, dict):
                return {k: clean(v) for k, v in x.items()}
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            return x

        data = clean(asdict(self))
        data["warnings"] = list(self.warnings)
        return json.dumps(data, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# construction from configs
# ---------------------------------------------------------------------------

def build_groupoid(spec):
    if spec.constructor == "pair":
        return build_pair_groupoid(tuple(f"x{i}" for i in range(spec.size)))
    m = spec.space_size
    return build_action_groupoid(FiniteGroup.cyclic(spec.group_order),
                                 tuple(f"x{i}" for i in range(m)),
                                 lambda g, x: (x + g) % m)


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
    try:
        weights = {int(k): float(v) for k, v in table.items()}
    except (TypeError, ValueError, OverflowError) as exc:
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
    """Seeded exact morphism into the target group.

    Pair groupoids get a coboundary phi(j, i) = h_j h_i^-1 from seeded
    per-object elements; action groupoids get a homomorphism of the acting
    cyclic group composed with the arrow's group part, conjugated by a
    seeded element for variety.  When no usable homomorphism exists the
    trivial one is substituted with a warning.
    """
    rng = np.random.default_rng(morphism_spec.seed)
    warns = []
    if spec.constructor == "pair" or morphism_spec.kind == "coboundary":
        n_obj = g.n_objects
        coords = alg.sample_ball(rng, morphism_spec.scale, n_obj)
        h = _exp_matrices(alg, coords)
        values = h[g.target] @ h[g.source].conj().swapaxes(-1, -2)
        return almost_morphism(values, alg.group_id, alg), warns

    order = spec.group_order
    gen_values = None
    if morphism_spec.kind != "trivial":
        gen_values = _cyclic_homomorphism_values(alg, order)
    if gen_values is None:
        if morphism_spec.kind != "trivial":
            msg = (f"no usable homomorphism cyclic({order}) -> {alg.group_id}; "
                   f"substituting the trivial one")
            warnings.warn(msg)
            warns.append(msg)
        n = alg.matrix_dim
        gen_values = [np.eye(n, dtype=complex) for _ in range(order)]
    else:
        # conjugate by a seeded element: still a homomorphism, same range
        z = _exp_matrices(alg, alg.sample_ball(rng, 0.5, 1))[0]
        gen_values = [z @ v @ z.conj().T for v in gen_values]

    n_x = spec.space_size
    values = np.array([gen_values[a // n_x] for a in range(g.n_arrows)])
    return almost_morphism(values, alg.group_id, alg), warns


def perturb_morphism(phi, alg, pert, g=None, W_radius=None):
    """phi0(p) = phi(p) . exp(w_p) with w_p uniform in the epsilon ball.

    The left-multiplication variant is available through ``side``; unit
    arrows are optionally left unperturbed.  Identical seeds give identical
    outputs byte-for-byte.
    """
    rng = np.random.default_rng(pert.seed)
    w = alg.sample_ball(rng, pert.epsilon, phi.n_arrows)
    if not pert.perturb_units and g is not None:
        w[np.asarray(g.unit_arrows)] = 0.0
    noise = _exp_matrices(alg, w)
    if pert.side == "right":
        values = np.einsum("nij,njk->nik", phi.values, noise)
    else:
        values = np.einsum("nij,njk->nik", noise, phi.values)
    out = almost_morphism(values, phi.target_group, alg)
    if W_radius is not None and out.range_certificate > W_radius + 1e-9:
        raise RangeEscape("perturbed map does not take values in W",
                          radius=out.range_certificate, limit=W_radius)
    return out


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

_ALG_CACHE = {}
_CONSTANTS_CACHE = {}


def algebra_for(group_spec):
    key = (group_spec.tag, group_spec.raw_norm)
    if key not in _ALG_CACHE:
        _ALG_CACHE[key] = normalize_algebra_norm(
            ALGEBRA_OF[group_spec.tag], group_spec.raw_norm
        )
    return _ALG_CACHE[key]


def constants_for(alg, cspec):
    """Estimate (and memoize) the constants for a constants spec."""
    key = (alg.algebra_id, alg.raw_norm, cspec.sample_count,
           cspec.safety_factor, cspec.W_radius, cspec.K_radius, cspec.seed)
    if key not in _CONSTANTS_CACHE:
        sets = AmbientSets(cspec.W_radius, cspec.K_radius)
        _CONSTANTS_CACHE[key] = estimate_bch_constants(
            alg, sets, sample_count=cspec.sample_count,
            safety_factor=cspec.safety_factor, seed=cspec.seed,
        )
    return _CONSTANTS_CACHE[key]


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
    """End-to-end run; returns (report, exit_code) and persists artifacts."""
    out_dir = out_dir or os.environ.get(DEFAULT_OUT_ENV, ".")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, config.output.trace)
    report_path = os.path.join(out_dir, config.output.report)

    alg = algebra_for(config.group)
    sets = AmbientSets(config.constants.W_radius, config.constants.K_radius)
    constants = constants_for(alg, config.constants)
    admissible = admissible_defect_radius(constants)

    g = build_groupoid(config.groupoid)
    core = build_core_from_config(g, config.core)
    density = build_density_from_config(core, config.density)

    error = None
    exit_code = EXIT_PASS
    warns = []
    initial = final = float("nan")
    residual_core = residual_full = float("nan")
    iterations = 0
    terminated = "error"
    all_q = all_corr = all_step = False
    total_disp = float("nan")

    try:
        phi_exact, warns = generate_exact_morphism(
            g, config.groupoid, alg, config.morphism
        )
        phi0 = perturb_morphism(phi_exact, alg, config.perturbation,
                                g=g, W_radius=sets.W_radius)
        limit, trace = iterate(
            phi0, core, density, alg, constants, sets=sets,
            tol=config.iteration.tol, max_iter=config.iteration.max_iter,
        )
        initial, final = trace.deltas[0], trace.deltas[-1]
        iterations = trace.iterations
        terminated = trace.terminated
        all_q = all(trace.q_certified)
        all_corr = all(trace.correction_bound_ok)
        all_step = all(trace.step_bound_ok)
        total_disp = trace.total_displacement
        residual_core = verify_core_morphism(limit, core, alg)
        residual_full = verify_core_morphism(limit, core, alg, full=True)
        write_trace_csv(trace_path, trace)
    except HaarrectError as exc:
        error = f"{type(exc).__name__}: {exc}"
        exit_code = exit_code_for(exc)
        if exc.initial_defect is not None:
            initial = exc.initial_defect
        if isinstance(exc, NonContraction) and exc.trace is not None:
            write_trace_csv(trace_path, exc.trace)

    tol = config.iteration.tol
    residual_contract = (constants.d_prime / constants.d) * tol + 1e-15
    passed = (
        error is None
        and final <= tol
        and all_q
        and residual_core <= residual_contract
    )
    if error is None and not passed:
        exit_code = EXIT_NON_CONTRACTION

    report = RunReport(
        config_digest=config.digest(),
        constants=asdict(constants),
        admissible_radius=admissible,
        initial_defect=initial,
        final_defect=final,
        iterations=iterations,
        all_q_certified=all_q,
        all_correction_bounds_ok=all_corr,
        all_step_bounds_ok=all_step,
        residual_core=residual_core,
        residual_full=residual_full,
        total_displacement=total_disp,
        terminated=terminated,
        passed=bool(passed),
        warnings=tuple(warns),
        error=error,
    )
    _atomic_write(report_path, report.to_json() + "\n")
    return report, exit_code


def validate_config(config):
    """Dry-run validation of the groupoid, core and density axioms."""
    g = build_groupoid(config.groupoid)
    report = validate_groupoid(g)
    issues = [f"groupoid: {axiom} at {witness}"
              for axiom, witness in report.violations]
    try:
        core = build_core_from_config(g, config.core)
        try:
            build_density_from_config(core, config.density)
        except InvarianceError as exc:
            issues.append(f"density: {exc}")
    except CoreAxiomError as exc:
        issues.append(f"core: {exc}")
    return issues
