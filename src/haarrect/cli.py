"""Command-line interface.

Subcommands:
  rectify run --config <path> [--out <dir>]      end-to-end rectification run
  rectify constants --group <tag> [--safety F] ...    closed-form constants
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
    spec = ConstantsSpec(safety_factor=args.safety, W_radius=args.w_radius,
                         K_radius=args.k_radius)
    alg = algebra_for(GroupSpec(tag=args.group, raw_norm=args.raw_norm))
    return constants_for(alg, spec).as_dict(), EXIT_PASS


def _cmd_bench_holo(args):
    return run_holo_bench(HoloSpec.from_json(args.config), out_dir=args.out)


def _cmd_validate(args):
    issues = validate_config(ExperimentConfig.from_json(args.config))
    return ({"passed": not issues, "issues": issues},
            EXIT_PASS if not issues else EXIT_PRECONDITION)


def _add_config(parser, out=True):
    parser.add_argument("--config", required=True, help="path to config JSON")
    if out:
        parser.add_argument("--out", default=None, help=f"output dir "
                            f"(default ${DEFAULT_OUT_ENV} or .)")


def _add_constants(parser):
    parser.add_argument("--group", required=True, help="group tag")
    parser.add_argument("--safety", type=float,
                        default=ConstantsSpec.safety_factor,
                        help="safety factor (default %(default)s)")
    parser.add_argument("--raw-norm", default=GroupSpec.raw_norm,
                        help="raw norm on the algebra (default %(default)s)")
    parser.add_argument("--w-radius", type=float,
                        default=ConstantsSpec.W_radius,
                        help="radius of W (default %(default)s)")
    parser.add_argument("--k-radius", type=float,
                        default=ConstantsSpec.K_radius,
                        help="radius of the ambient compact (default "
                        "%(default)s)")


# name: (help, function, adds its arguments), in the order help lists them
COMMANDS = {
    "run": ("run an experiment config", _cmd_run, _add_config),
    "constants": ("print the contraction constants", _cmd_constants,
                  _add_constants),
    "bench-holo": ("run the holomorphic benchmark", _cmd_bench_holo,
                   _add_config),
    "validate": ("dry-run core and density check", _cmd_validate,
                 functools.partial(_add_config, out=False)),
}


@functools.cache
def build_parser(command=None):
    """The rectify parser with only ``command``'s subparser, or with every
    command's for None: a call parses one command, and each subparser is a
    parser of its own to build."""
    parser = argparse.ArgumentParser(
        prog="rectify",
        description="Haar-averaging rectification of almost-morphisms",
    )
    # a pruned parser's usage line still lists every command; the full one
    # names the argument "command" in its errors
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")
    for name, (help_, func, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        result, code = args.func(args)
    except HaarrectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
