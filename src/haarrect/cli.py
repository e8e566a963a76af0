"""Command-line interface.

Subcommands:
  rectify run --config <path> [--out <dir>]      end-to-end rectification run
  rectify constants --group <tag> [--samples N] [--seed S] ...
  rectify bench-holo --config <path> [--out <dir>]
  rectify validate --config <path>               dry-run core and density check

The default output directory is $RECTIFY_OUT, falling back to the current
directory.  Each command prints one JSON document (``harness.dumps``); run
and bench-holo print the report file they wrote.  validate checks a config's
core and density, since its groupoid is valid by construction.  Exit codes:
0 pass, 2 precondition rejection, 3 non-contraction, 4 numeric domain error.
"""

import argparse
import functools
import sys

from .errors import HaarrectError
from .harness import (
    DEFAULT_OUT_ENV,
    EXIT_PASS,
    EXIT_PRECONDITION,
    ConstantsSpec,
    ExperimentConfig,
    GroupSpec,
    HoloSpec,
    algebra_for,
    constants_for,
    dumps,
    exit_code_for,
    run_experiment,
    run_holo_bench,
    validate_config,
)


def _cmd_run(args):
    return run_experiment(ExperimentConfig.from_json(args.config),
                          out_dir=args.out)


def _cmd_constants(args):
    # the flags obey the checks of a config's constants and group sections
    spec = ConstantsSpec(sample_count=args.samples, safety_factor=args.safety,
                         W_radius=args.w_radius, K_radius=args.k_radius,
                         seed=args.seed)
    alg = algebra_for(GroupSpec(tag=args.group, raw_norm=args.raw_norm))
    return constants_for(alg, spec).as_dict(), EXIT_PASS


def _cmd_bench_holo(args):
    return run_holo_bench(HoloSpec.from_json(args.config), out_dir=args.out)


def _cmd_validate(args):
    issues = validate_config(ExperimentConfig.from_json(args.config))
    return ({"passed": not issues, "issues": issues},
            EXIT_PASS if not issues else EXIT_PRECONDITION)


@functools.cache
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
    p_const.add_argument("--group", required=True, help="group tag")
    p_const.add_argument("--samples", type=int,
                         default=ConstantsSpec.sample_count,
                         help="sample count (default %(default)s)")
    p_const.add_argument("--seed", type=int, default=ConstantsSpec.seed,
                         help="seed (default %(default)s)")
    p_const.add_argument("--safety", type=float,
                         default=ConstantsSpec.safety_factor,
                         help="safety factor (default %(default)s)")
    p_const.add_argument("--raw-norm", default=GroupSpec.raw_norm,
                         help="raw norm on the algebra (default %(default)s)")
    p_const.add_argument("--w-radius", type=float,
                         default=ConstantsSpec.W_radius,
                         help="radius of W (default %(default)s)")
    p_const.add_argument("--k-radius", type=float,
                         default=ConstantsSpec.K_radius,
                         help="radius of the ambient compact (default %(default)s)")
    p_const.set_defaults(func=_cmd_constants)

    p_holo = sub.add_parser("bench-holo", help="run the holomorphic benchmark")
    p_holo.add_argument("--config", required=True, help="path to config JSON")
    p_holo.add_argument("--out", default=None,
                        help=f"output dir (default ${DEFAULT_OUT_ENV} or .)")
    p_holo.set_defaults(func=_cmd_bench_holo)

    p_val = sub.add_parser("validate", help="dry-run core and density check")
    p_val.add_argument("--config", required=True, help="path to config JSON")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        result, code = args.func(args)
    except HaarrectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
