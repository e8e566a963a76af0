#!/usr/bin/env python3
"""Run every bundled config and print a summary table.

Usage: python scripts/run_bundled.py [--out DIR]

Experiment configs go through ``validate_config`` and ``run_experiment``;
``holo_bench.json`` goes through ``run_holo_bench`` and has only an exit
code and a report.  The table ends with the sha256 of each config's trace
and report ("-" for one the run did not write), so two checkouts' artifacts
compare with one diff of their tables.  The script exits 1 if a config's
exit code is not its own expected one (``EXPECTED_EXIT``, 0 for a config
not named there), or if ``validate_config`` reports an issue with a config.
"""

import argparse
import glob
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from haarrect.harness import (  # noqa: E402
    ExperimentConfig,
    HoloSpec,
    run_experiment,
    run_holo_bench,
    validate_config,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

# Bundled configs that should not exit 0: rejected before the first step.
EXPECTED_EXIT = {"defect_too_large.json": 2}


def sha256_of(path):
    """Hex sha256 of a file, or "-" if there is none."""
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return "-"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    rows, invalid = [], []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        name = os.path.basename(path)
        if name == "holo_bench.json":
            spec = HoloSpec.from_json(path)
            _, code = run_holo_bench(spec, out_dir=args.out)
            rows.append((name, code, "-", float("nan"), float("nan"), "-",
                         "-", sha256_of(os.path.join(args.out, spec.report))))
            continue
        config = ExperimentConfig.from_json(path)
        invalid += [(name, issue) for issue in validate_config(config)]
        artifacts = [os.path.join(args.out, f)
                     for f in (config.output.trace, config.output.report)]
        report, code = run_experiment(config, out_dir=args.out)
        rows.append((name, code, report["iterations"],
                     report["initial_defect"], report["final_defect"],
                     report["error"] or "-", *map(sha256_of, artifacts)))

    print(f"{'config':<26}{'exit':<6}{'iters':<7}{'initial':<12}{'final':<12}"
          f"{'trace_sha256':<66}{'report_sha256':<66}error")
    for name, code, iters, d0, dn, err, trace_sha, report_sha in rows:
        d0s = f"{d0:.3e}" if d0 == d0 else "-"
        dns = f"{dn:.3e}" if dn == dn else "-"
        print(f"{name:<26}{code:<6}{iters:<7}{d0s:<12}{dns:<12}"
              f"{trace_sha:<66}{report_sha:<66}{err}")
    wrong = [(name, code) for name, code, *_ in rows
             if code != EXPECTED_EXIT.get(name, 0)]
    for name, code in wrong:
        print(f"{name}: exit {code}, expected {EXPECTED_EXIT.get(name, 0)}",
              file=sys.stderr)
    for name, issue in invalid:
        print(f"{name}: validate reports {issue}", file=sys.stderr)
    return 1 if wrong or invalid else 0


if __name__ == "__main__":
    sys.exit(main())
