"""Command-line interface.

Subcommands:
  rectify run --config <path> [--out <dir>]      end-to-end rectification run
  rectify constants --group <tag> [--samples N] [--seed S] ...
  rectify bench-holo --config <path> [--out <dir>]
  rectify validate --config <path>               dry-run axiom validation

The default output directory is $RECTIFY_OUT, falling back to the current
directory.  Exit codes: 0 pass, 2 precondition rejection, 3 non-contraction,
4 numeric domain error.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict

from .errors import HaarrectError
from .groups import ALGEBRA_OF, AmbientSets, estimate_bch_constants, \
    normalize_algebra_norm
from .harness import (
    DEFAULT_OUT_ENV,
    EXIT_NUMERIC_DOMAIN,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ExperimentConfig,
    exit_code_for,
    read_json_config,
    run_experiment,
    validate_config,
    _atomic_write,
    _check_keys,
)
from .holo import (
    build_complexified_model,
    core_average_function,
    cr_convergence_order,
    real_restriction_check,
    sample_function,
)

import numpy as np


def _default_out(args):
    return args.out or os.environ.get(DEFAULT_OUT_ENV, ".")


def _cmd_run(args):
    config = ExperimentConfig.from_json(args.config)
    report, code = run_experiment(config, out_dir=_default_out(args))
    print(report.to_json())
    return code


def _cmd_constants(args):
    alg = normalize_algebra_norm(ALGEBRA_OF[args.group], args.raw_norm)
    sets = AmbientSets(args.w_radius, args.k_radius)
    constants = estimate_bch_constants(
        alg, sets, sample_count=args.samples,
        safety_factor=args.safety, seed=args.seed,
    )
    print(json.dumps(asdict(constants), sort_keys=True, indent=2))
    return EXIT_PASS


# the keys of a bench-holo config, all optional
HOLO_KEYS = ("space_radius", "eta_max", "n_theta", "n_space", "n_eta",
             "n_shells", "probe_center", "slope_hs", "seed", "report")


def _cmd_bench_holo(args):
    cfg = _check_keys(read_json_config(args.config), HOLO_KEYS, "")
    model = build_complexified_model(
        space_radius=cfg.get("space_radius", 1.0),
        eta_max=cfg.get("eta_max", 0.2),
        n_theta=cfg.get("n_theta", 32),
        n_space=cfg.get("n_space", 9),
        n_eta=cfg.get("n_eta", 5),
        n_shells=cfg.get("n_shells", 3),
    )

    invariant = lambda z1, z2: z1 * z1 + z2 * z2
    weight_one = lambda z1, z2: z1 + 1j * z2
    quartic = lambda z1, z2: (z1 * z1 + z2 * z2) ** 2

    f_inv = sample_function(invariant, model)
    avg_inv = core_average_function(invariant, model)
    invariant_err = float(np.abs(avg_inv.values - f_inv.values).max())
    mode_residual = float(
        np.abs(core_average_function(weight_one, model).values).max()
    )
    slope, residuals = cr_convergence_order(
        lambda z1, z2: quartic(z1, z2),
        center=cfg.get("probe_center", (0.3, 0.05, 0.2, -0.05)),
        hs=tuple(cfg.get("slope_hs", (1e-2, 5e-3, 2.5e-3))),
    )
    rng = np.random.default_rng(cfg.get("seed", 0))
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)

    def trig_poly(z1, z2):
        wp, wm = z1 + 1j * z2, z1 - 1j * z2
        return (coeffs[0] + coeffs[1] * wp + coeffs[2] * wm
                + coeffs[3] * wp * wp * wm)

    restriction = real_restriction_check(trig_poly, model)

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
        "pass": bool(invariant_err <= 1e-13 and mode_residual <= 1e-13
                     and slope >= 1.9 and restriction <= 1e-13),
    }
    out_dir = _default_out(args)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, cfg.get("report", "holo_report.json")),
                  json.dumps(results, sort_keys=True, indent=2) + "\n")
    print(json.dumps(results, sort_keys=True, indent=2))
    return EXIT_PASS if results["pass"] else EXIT_NUMERIC_DOMAIN


def _cmd_validate(args):
    config = ExperimentConfig.from_json(args.config)
    issues = validate_config(config)
    print(json.dumps({"passed": not issues, "issues": issues}, indent=2))
    return EXIT_PASS if not issues else EXIT_PRECONDITION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rectify",
        description="Haar-averaging rectification of almost-morphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True, help="path to config JSON")
    p_run.add_argument("--out", default=None,
                       help=f"output dir (default ${DEFAULT_OUT_ENV} or .)")
    p_run.set_defaults(func=_cmd_run)

    p_const = sub.add_parser("constants", help="estimate contraction constants")
    p_const.add_argument("--group", required=True,
                         choices=sorted(ALGEBRA_OF), help="group tag")
    p_const.add_argument("--samples", type=int, default=2000,
                         help="sample count (default 2000)")
    p_const.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p_const.add_argument("--safety", type=float, default=1.25,
                         help="safety factor (default 1.25)")
    p_const.add_argument("--raw-norm", default="euclid",
                         choices=("euclid", "frobenius"),
                         help="raw norm on the algebra (default euclid)")
    p_const.add_argument("--w-radius", type=float, default=1.5,
                         help="radius of W (default 1.5)")
    p_const.add_argument("--k-radius", type=float, default=2.5,
                         help="radius of the ambient compact (default 2.5)")
    p_const.set_defaults(func=_cmd_constants)

    p_holo = sub.add_parser("bench-holo", help="run the holomorphic benchmark")
    p_holo.add_argument("--config", required=True, help="path to config JSON")
    p_holo.add_argument("--out", default=None,
                        help=f"output dir (default ${DEFAULT_OUT_ENV} or .)")
    p_holo.set_defaults(func=_cmd_bench_holo)

    p_val = sub.add_parser("validate", help="dry-run axiom validation")
    p_val.add_argument("--config", required=True, help="path to config JSON")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HaarrectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
