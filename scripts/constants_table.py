#!/usr/bin/env python3
"""Print the closed-form contraction constants of all four groups as a table.

One column per constant of ``BchConstants``, then the admissible entry
defect radius each set of constants certifies.  Usage:
python scripts/constants_table.py [--safety F]

The flag obeys the checks of a config's constants section, as those of
``rectify constants`` do: a bad value ends with one ``error:`` line on
stderr and exit code 2.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from haarrect.errors import HaarrectError  # noqa: E402
from haarrect.groups import ALGEBRA_OF, BchConstants  # noqa: E402
from haarrect.harness import (  # noqa: E402
    ConstantsSpec,
    GroupSpec,
    algebra_for,
    constants_for,
    exit_code_for,
)
from haarrect.rectifier import admissible_defect_radius  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--safety", type=float,
                        default=ConstantsSpec.safety_factor)
    args = parser.parse_args(argv)

    try:
        spec = ConstantsSpec(safety_factor=args.safety)
        rows = [(tag, constants_for(algebra_for(GroupSpec(tag=tag)), spec))
                for tag in ALGEBRA_OF]
    except HaarrectError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)

    cols = BchConstants._fields
    print(f"{'group':<6}" + "".join(f"{c:<14}" for c in cols) + "admissible")
    for tag, k in rows:
        vals = "".join(f"{getattr(k, c):<14.4g}" for c in cols)
        print(f"{tag:<6}{vals}{admissible_defect_radius(k):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
