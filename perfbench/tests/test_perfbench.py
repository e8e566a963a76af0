"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
from summary import p75, tail  # noqa: E402
from workloads import Job, Tally, check_output  # noqa: E402


def span(sid, parent, start, end, name="x.f"):
    return (1, sid, parent, name, float(start), float(end))


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(3, 2, 2, 3),       # grandchild
        span(2, 1, 1, 4),       # child with one child
        span(4, 1, 5, 9),       # leaf child
        span(1, 0, 0, 10),      # root
    ]
    own = spans.self_times(tree)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0}
    assert sum(own.values()) == 10.0


def test_self_times_of_separate_traces_do_not_mix():
    own = spans.self_times([span(1, 0, 0, 2), span(2, 0, 5, 6)])
    assert own == {1: 2.0, 2: 1.0}


@pytest.mark.parametrize("n, index, percentile", [
    (11, 0, 100 / 11),
    (20, 9, 50.0),
    (100, 89, 90.0),
    (1000, 989, 99.0),
])
def test_tail_leaves_exactly_ten_samples_beyond(n, index, percentile):
    values = [float(v) for v in range(n)][::-1]
    value, p = tail(values)
    assert value == index
    assert sum(v > value for v in values) == 10
    assert p == pytest.approx(percentile)


def test_p75_interpolates_within_the_samples():
    assert p75([5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0]) == 6.25
    assert p75([2.0, 1.0]) == 1.75
    assert p75([4.0]) == 4.0


def test_tail_of_too_few_samples_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    with pytest.raises(ValueError):
        tail([])


RUN = Job("cfg run", ("run",), 0, "run", artifacts=("t.csv", "r.json"),
          tol=1e-12)
REJECTED = Job("bad run", ("run",), 2, "run", artifacts=("t.csv", "r.json"))
GOOD_REPORT = json.dumps({"passed": True, "all_q_certified": True,
                          "final_defect": 1e-15})


def test_wrong_exit_code_is_a_failure():
    tally = Tally()
    assert tally.record(RUN, 3, GOOD_REPORT, ("a", "b")) != []
    assert tally.record(REJECTED, 0, GOOD_REPORT, (None, "b")) != []
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.failed_fraction == 1.0


def test_changed_artifact_hash_is_a_failure():
    tally = Tally()
    assert tally.record(RUN, 0, GOOD_REPORT, ("a", "b")) == []
    assert tally.record(RUN, 0, GOOD_REPORT, ("a", "b")) == []
    assert tally.record(RUN, 0, GOOD_REPORT, ("a", "c")) != []
    assert (tally.attempted, tally.failed) == (3, 1)


def test_missing_artifact_of_a_passing_run_is_a_failure():
    tally = Tally()
    assert tally.record(RUN, 0, GOOD_REPORT, (None, "b")) != []
    assert tally.failed == 1


def test_rejected_run_needs_an_error_and_no_pass():
    rejected = json.dumps({"passed": False, "error": "DefectTooLarge: ..."})
    assert check_output(REJECTED, 2, rejected) == []
    assert check_output(REJECTED, 2, GOOD_REPORT) != []


def test_run_checks_certificate_and_final_defect():
    for key, bad in (("passed", False), ("all_q_certified", False),
                     ("final_defect", 1e-9)):
        report = json.loads(GOOD_REPORT)
        report[key] = bad
        assert check_output(RUN, 0, json.dumps(report)) != [], key


def test_validate_and_holo_checks():
    validate = Job("v", ("validate",), 0, "validate")
    assert check_output(validate, 0, '{"passed": true, "issues": []}') == []
    assert check_output(validate, 0,
                        '{"passed": false, "issues": ["unit"]}') != []
    holo = Job("h", ("bench-holo",), 0, "holo")
    good = {"invariant_reproduction_error": 1e-16,
            "weight_one_mode_residual": 1e-16,
            "real_restriction_difference": 0.0, "cr_slope": 2.0,
            "pass": True}
    assert check_output(holo, 0, json.dumps(good)) == []
    assert check_output(holo, 0, json.dumps({**good, "cr_slope": 1.5})) != []
    assert check_output(holo, 0, "not json") != []


def test_install_spans_cross_layer_calls_and_counts_work():
    from haarrect import cli, groupoids, groups, harness, holo, rectifier

    modules = {"groups": groups, "groupoids": groupoids,
               "rectifier": rectifier, "holo": holo, "harness": harness,
               "cli": cli}
    original = harness.build_pair_groupoid
    rec = spans.Recorder()
    trace = rec.begin_trace()
    undo = spans.install(rec, modules, full=True)
    try:
        assert harness.build_pair_groupoid is not original
        g = rec.call("bench.sample", harness.build_groupoid,
                     harness.GroupoidSpec(constructor="pair", size=3))
    finally:
        spans.uninstall(undo)
    assert harness.build_pair_groupoid is original
    names = [s[spans.NAME] for s in rec.spans]
    assert names == ["groupoids.build_pair_groupoid", "bench.sample"]
    child, root = rec.spans
    assert child[spans.PARENT] == root[spans.SPAN]
    assert rec.counts[trace]["groupoids.arrows"] == g.n_arrows == 9
    assert rec.counts[trace]["groupoids.compose_entries"] == 27


def test_unexpected_exit_code_of_a_real_call_is_counted(tmp_path):
    import importlib

    import run

    modules = {layer: importlib.import_module(f"haarrect.{layer}")
               for layer in spans.LAYERS}
    config = os.path.join(os.path.dirname(BENCH), "configs", "u1_onestep.json")
    out = str(tmp_path)
    job = Job("u1 run", ("run", "--config", config, "--out", out), 3, "run",
              artifacts=(os.path.join(out, "u1_onestep_trace.csv"),
                         os.path.join(out, "u1_onestep_report.json")),
              tol=1e-12)
    tally = Tally()
    run.run_sample([job], modules, spans.Recorder(), tally, full=False)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "exit code 0, expected 3" in tally.problems[0]
