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
from dataclasses import asdict, fields

from .errors import HaarrectError
from .groups import ALGEBRA_OF
from .harness import (
    DEFAULT_OUT_ENV,
    EXIT_NUMERIC_DOMAIN,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ConstantsSpec,
    ExperimentConfig,
    GroupSpec,
    HoloSpec,
    algebra_for,
    constants_for,
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
    # the flags obey the checks of a config's constants section
    spec = ConstantsSpec(sample_count=args.samples, safety_factor=args.safety,
                         W_radius=args.w_radius, K_radius=args.k_radius,
                         seed=args.seed)
    alg = algebra_for(GroupSpec(tag=args.group, raw_norm=args.raw_norm))
    print(json.dumps(asdict(constants_for(alg, spec)), sort_keys=True,
                     indent=2))
    return EXIT_PASS


# the keys of a bench-holo config, all optional
HOLO_KEYS = tuple(f.name for f in fields(HoloSpec))


# a value that overflows shows as a failed threshold or a GridError (exit
# 4), not also as a RuntimeWarning
@np.errstate(all="ignore")
def _cmd_bench_holo(args):
    spec = HoloSpec(**_check_keys(read_json_config(args.config), HoloSpec, ""))
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
    invariant_err = float(np.abs(avg_inv.values - f_inv.values).max())
    mode_residual = float(
        np.abs(core_average_function(weight_one, model).values).max()
    )
    slope, residuals = cr_convergence_order(
        lambda z1, z2: quartic(z1, z2),
        center=spec.probe_center,
        hs=tuple(spec.slope_hs),
    )
    rng = np.random.default_rng(spec.seed)
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
    _atomic_write(os.path.join(out_dir, spec.report),
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
