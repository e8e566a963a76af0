"""Workload inputs, the CLI calls of one sample, and their correctness checks.

Each workload is a fixed list of ``rectify`` calls (jobs) made once per
sample.  Configs are written as files into a work directory and handed to
the CLI by path, as a user would; the workload seed only changes what goes
into the generated configs, never their size.
"""

import copy
import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("bundled", "pair-so3", "holo")

BUNDLED = (
    ("so3_pair5", 0),
    ("su2_z3z3", 0),
    ("u1_onestep", 0),
    ("defect_too_large", 2),    # rejected before the first step
)

# SO3 over pair(20): 400 arrows, 8000 core pairs per step, 3 steps to tol.
PAIR_SO3 = {
    "group": {"tag": "SO3", "raw_norm": "euclid"},
    "groupoid": {"constructor": "pair", "size": 20},
    "core": "full",
    "density": "uniform",
    "morphism": {"kind": "auto", "seed": 0, "scale": 0.25},
    "perturbation": {"epsilon": 0.01, "seed": 0, "side": "right",
                     "perturb_units": True},
    "constants": {"sample_count": 2000, "safety_factor": 1.25,
                  "W_radius": 1.5, "K_radius": 2.5, "seed": 101},
    "iteration": {"tol": 1e-12, "max_iter": 50},
    "output": {"trace": "pair_so3_trace.csv", "report": "pair_so3_report.json"},
}

HOLO = {
    "space_radius": 1.0,
    "eta_max": 0.2,
    "n_theta": 64,
    "n_space": 17,
    "n_eta": 5,
    "n_shells": 3,
    "probe_center": [0.3, 0.05, 0.2, -0.05],
    "slope_hs": [0.01, 0.005, 0.0025],
    "seed": 0,
    "report": "holo_report.json",
}

# bench-holo's own pass thresholds, checked here one by one
HOLO_LIMITS = {
    "invariant_reproduction_error": 1e-13,
    "weight_one_mode_residual": 1e-13,
    "real_restriction_difference": 1e-13,
}
HOLO_MIN_SLOPE = 1.9


@dataclass(frozen=True)
class Job:
    """One CLI call of a sample and what its result must be."""

    label: str
    argv: tuple
    expect_exit: int
    kind: str                   # "validate" | "run" | "holo"
    artifacts: tuple = ()       # files whose bytes must repeat exactly
    tol: float = 0.0            # run: final defect bound
    core_pairs: int = 0         # run: core pairs per correction step


def _seeds(seed, stream, n):
    rng = np.random.default_rng([seed, stream])
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=n)]


def pair_so3_config(seed):
    cfg = copy.deepcopy(PAIR_SO3)
    cfg["morphism"]["seed"], cfg["perturbation"]["seed"] = _seeds(seed, 1, 2)
    return cfg


def holo_config(seed):
    cfg = copy.deepcopy(HOLO)
    (cfg["seed"],) = _seeds(seed, 2, 1)
    return cfg


def core_pairs_of(cfg):
    """Core pairs per step of a full-core run config."""
    spec = cfg["groupoid"]
    if spec["constructor"] == "pair":
        return spec["size"] ** 3
    return spec["group_order"] ** 2 * spec["space_size"]


def _run_jobs(name, cfg, path, out_dir, expect):
    out = cfg["output"]
    return [
        Job(f"{name} validate", ("validate", "--config", path), 0, "validate"),
        Job(f"{name} run", ("run", "--config", path, "--out", out_dir),
            expect, "run",
            artifacts=(os.path.join(out_dir, out["trace"]),
                       os.path.join(out_dir, out["report"])),
            tol=cfg["iteration"]["tol"], core_pairs=core_pairs_of(cfg)),
    ]


def build_jobs(workload, seed, root, work_dir):
    """Write the workload's configs into ``work_dir``; return its jobs."""
    out_dir = os.path.join(work_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    if workload == "bundled":
        for name, expect in BUNDLED:
            with open(os.path.join(root, "configs", f"{name}.json"),
                      encoding="utf-8") as fh:
                text = fh.read()
            path = os.path.join(work_dir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            jobs += _run_jobs(name, json.loads(text), path, out_dir, expect)
    elif workload == "pair-so3":
        cfg = pair_so3_config(seed)
        path = os.path.join(work_dir, "pair_so3.json")
        _write_json(path, cfg)
        jobs += _run_jobs("pair_so3", cfg, path, out_dir, 0)
    elif workload == "holo":
        cfg = holo_config(seed)
        path = os.path.join(work_dir, "holo.json")
        _write_json(path, cfg)
        jobs.append(Job("holo bench-holo",
                        ("bench-holo", "--config", path, "--out", out_dir),
                        0, "holo",
                        artifacts=(os.path.join(out_dir, cfg["report"]),)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


def _write_json(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_output(job, code, stdout):
    """Problems with one call's exit code and printed result ([] if none)."""
    if code != job.expect_exit:
        return [f"exit code {code}, expected {job.expect_exit}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON document"]
    problems = []
    if job.kind == "validate":
        if out.get("passed") is not True or out.get("issues"):
            problems.append(f"validate reported issues: {out.get('issues')}")
    elif job.kind == "run" and job.expect_exit == 0:
        if out.get("passed") is not True:
            problems.append("report not passed")
        if out.get("all_q_certified") is not True:
            problems.append("not every step q-certified")
        final = out.get("final_defect")
        if final is None or not final <= job.tol:
            problems.append(f"final defect {final} above tol {job.tol}")
    elif job.kind == "run":
        if out.get("passed") is not False or not out.get("error"):
            problems.append("rejected run reports no error")
    elif job.kind == "holo":
        for key, limit in HOLO_LIMITS.items():
            value = out.get(key)
            if value is None or not value <= limit:
                problems.append(f"{key} = {value} above {limit}")
        slope = out.get("cr_slope")
        if slope is None or not slope >= HOLO_MIN_SLOPE:
            problems.append(f"cr_slope = {slope} below {HOLO_MIN_SLOPE}")
        if out.get("pass") is not True:
            problems.append("bench-holo pass flag is false")
    return problems


def artifact_digest(paths):
    """sha256 of each artifact, or None for one that was not written."""
    out = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                out.append(hashlib.sha256(fh.read()).hexdigest())
        except FileNotFoundError:
            out.append(None)
    return tuple(out)


def remove_artifacts(jobs):
    for job in jobs:
        for path in job.artifacts:
            if os.path.exists(path):
                os.remove(path)


class Tally:
    """Attempted and failed calls, with the reasons for each failure.

    The first sample of a config fixes the artifact digests every later
    sample of it must reproduce.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, job, code, stdout, digest):
        self.attempted += 1
        problems = check_output(job, code, stdout)
        if job.artifacts:
            if job.expect_exit == 0 and None in digest:
                problems.append("an artifact was not written")
            ref = self.digests.setdefault(job.label, digest)
            if digest != ref:
                problems.append("artifact bytes differ from the first sample")
        if problems:
            self.failed += 1
            self.problems.append(f"{job.label}: " + "; ".join(problems))
        return problems

    @property
    def failed_fraction(self):
        return self.failed / self.attempted if self.attempted else 0.0
