"""Config fuzzing: the CLI on small valid inputs with fields mutated.

Each example takes a small valid ``run``/``validate`` config, a small
``bench-holo`` config or the ``constants`` flags, replaces one or two
fields (a whole section included) by a wrong type, a non-finite, huge or
tiny number, an empty or nested object or a list, and calls ``cli.main``.
Every outcome must be a documented exit code with no traceback and no
numeric RuntimeWarning.  Integers are drawn small or far beyond every size
cap, so no example asks for a large but allowed groupoid or grid.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings, strategies as st

from haarrect.cli import main

RUN = {
    "group": {"tag": "U1", "raw_norm": "euclid"},
    "groupoid": {"constructor": "pair", "size": 2, "group_order": 2,
                 "space_size": 1},
    "core": "full",
    "density": "uniform",
    "morphism": {"kind": "auto", "seed": 0, "scale": 0.25},
    "perturbation": {"epsilon": 0.01, "seed": 0, "side": "right",
                     "perturb_units": True},
    "constants": {"sample_count": 1000, "safety_factor": 1.25,
                  "W_radius": 1.5, "K_radius": 2.5, "seed": 0},
    "iteration": {"tol": 1e-12, "max_iter": 50},
    "output": {"trace": "trace.csv", "report": "report.json"},
}
# explicit core and weights, so their entries are mutated too
RUN_WEIGHTED = {**RUN, "group": {"tag": "SO3", "raw_norm": "frobenius"},
                "core": {"arrows": [0, 1, 2, 3]},
                "density": {"weights": {"0": 1, "1": 2.0, "2": 2.0, "3": 1}}}
HOLO = {
    "space_radius": 1.0, "eta_max": 0.2, "n_theta": 8, "n_space": 5,
    "n_eta": 3, "n_shells": 2, "probe_center": [0.3, 0.05, 0.2, -0.05],
    "slope_hs": [0.01, 0.005, 0.0025], "seed": 0, "report": "holo.json",
}
CONSTANTS = {"--group": "SO3", "--samples": "1000", "--seed": "0",
             "--safety": "1.25", "--raw-norm": "euclid", "--w-radius": "1.5",
             "--k-radius": "2.5"}

scalars = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.integers(-3, 8), st.sampled_from([2 ** 40, -2 ** 63, 10 ** 400]),
    st.floats(), st.sampled_from([1e308, -1e308, 5e-324, 1e-308, -0.0]),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.dictionaries(st.text(max_size=2), scalars, max_size=2),
    st.builds(lambda: {"a": {"b": [1]}}),
)


def field_paths(node, path=()):
    """Key paths of every field and section below the root."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


def mutated(data, base):
    config = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(field_paths(config))))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(values)
    return config


def call(argv):
    """Exit code, stderr and numeric warnings of one ``main`` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects a flag value
            code = exc.code
    numeric = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err.getvalue(), numeric


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_cli_mutated_input_ends_in_a_documented_exit_code(data):
    command = data.draw(st.sampled_from(
        ["run", "validate", "bench-holo", "constants"]))
    with tempfile.TemporaryDirectory() as out:
        if command == "constants":
            flags = dict(CONSTANTS)
            flag = data.draw(st.sampled_from(sorted(flags)))
            flags[flag] = str(data.draw(scalars))
            argv = ["constants"] + [x for item in flags.items() for x in item]
        else:
            base = HOLO if command == "bench-holo" else data.draw(
                st.sampled_from([RUN, RUN_WEIGHTED]))
            path = os.path.join(out, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(mutated(data, base), fh)
            argv = [command, "--config", path]
            if command != "validate":
                argv += ["--out", out]
        code, err, numeric = call(argv)
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err
    assert not numeric, [str(w.message) for w in numeric]
