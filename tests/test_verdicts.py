"""Verdicts pinned on a generated set of runs, beyond the bundled configs.

Each run is a seeded coboundary morphism on a pair or action groupoid,
perturbed on either side, over the full core or a proper one.  The pinned
tokens are ``exit:iterations:flags``, the flags being ``passed``,
``all_q_certified``, ``all_correction_bounds_ok`` and
``all_step_bounds_ok`` as T or F.  A change to the contraction constants
may move the q bounds and the admissible radius; it must not move these.
"""

import itertools

import pytest

from haarrect.harness import ExperimentConfig, run_experiment

GROUPOIDS = {
    "pair3": {"constructor": "pair", "size": 3},
    "pair4": {"constructor": "pair", "size": 4},
    "cyclic4on2": {"constructor": "action", "group_order": 4,
                   "space_size": 2},
}
# a proper core of each: the arrows into object 0 of a pair groupoid, and
# the group elements 0 and 2 at both points of the action
PROPER_CORES = {"pair3": [0, 1, 2], "pair4": [0, 1, 2, 3],
                "cyclic4on2": [0, 1, 4, 5]}
# the columns of each row below, in order
CASES = tuple(itertools.product(("right", "left"), ("full", "proper")))

VERDICTS = """
    0.01  U1  pair3      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  U1  pair4      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  U1  cyclic4on2 0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  SO2 pair3      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  SO2 pair4      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  SO2 cyclic4on2 0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.01  SO3 pair3      0:2:TTTT 0:1:TTTT 0:2:TTTT 0:1:TTTT
    0.01  SO3 pair4      0:3:TTTT 0:1:TTTT 0:3:TTTT 0:1:TTTT
    0.01  SO3 cyclic4on2 0:2:TTTT 0:2:TTTT 0:2:TTTT 0:2:TTTT
    0.01  SU2 pair3      0:2:TTTT 0:1:TTTT 0:2:TTTT 0:1:TTTT
    0.01  SU2 pair4      0:3:TTTT 0:1:TTTT 0:3:TTTT 0:1:TTTT
    0.01  SU2 cyclic4on2 0:2:TTTT 0:2:TTTT 0:2:TTTT 0:2:TTTT
    0.045 U1  pair3      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 U1  pair4      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 U1  cyclic4on2 0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 SO2 pair3      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 SO2 pair4      0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 SO2 cyclic4on2 0:1:TTTT 0:1:TTTT 0:1:TTTT 0:1:TTTT
    0.045 SO3 pair3      0:3:TTTT 0:1:TTTT 2:0:FFFF 2:0:FFFF
    0.045 SO3 pair4      2:0:FFFF 0:1:TTTT 2:0:FFFF 0:1:TTTT
    0.045 SO3 cyclic4on2 2:0:FFFF 2:0:FFFF 2:0:FFFF 2:0:FFFF
    0.045 SU2 pair3      0:3:TTTT 0:1:TTTT 0:3:TTTT 0:1:TTTT
    0.045 SU2 pair4      2:0:FFFF 0:1:TTTT 2:0:FFFF 0:1:TTTT
    0.045 SU2 cyclic4on2 2:0:FFFF 2:0:FFFF 2:0:FFFF 2:0:FFFF
"""
ROWS = [(*row[:3], row[3:])
        for row in map(str.split, VERDICTS.strip().splitlines())]


def verdict(eps, tag, groupoid, side, core, out_dir):
    config = ExperimentConfig.from_dict({
        "group": {"tag": tag},
        "groupoid": GROUPOIDS[groupoid],
        "core": "full" if core == "full"
                else {"arrows": PROPER_CORES[groupoid]},
        "morphism": {"kind": "coboundary", "seed": 3},
        "perturbation": {"epsilon": eps, "seed": 4, "side": side},
    })
    report, code = run_experiment(config, out_dir=out_dir)
    flags = (report["passed"], report["all_q_certified"],
             report["all_correction_bounds_ok"], report["all_step_bounds_ok"])
    return f"{code}:{report['iterations']}:" + "".join(
        "T" if flag else "F" for flag in flags)


@pytest.mark.parametrize("eps, tag, groupoid, tokens", ROWS,
                         ids=[" ".join(row[:3]) for row in ROWS])
def test_generated_runs_keep_their_verdicts(tmp_path, eps, tag, groupoid,
                                            tokens):
    got = [verdict(float(eps), tag, groupoid, side, core, tmp_path)
           for side, core in CASES]
    assert got == tokens
