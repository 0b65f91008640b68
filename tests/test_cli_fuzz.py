"""The exit-code contract under mutated input documents.

Valid tensor, pencil, polynomial and survey documents are mutated (a value
replaced by a wrong type, a bool, a huge or negative int; a key or entry
deleted; a value nested one level deeper) and run through the CLI.  Every
run must end in exit 0, 1, 2 or 3 with no exception other than SystemExit.
Survey `count` and `workers` stay small: a huge count is valid work that
runs for a long time, not a contract violation.  The integer options of
`rank`, `verify`, `pencil profile|kr|prop22` and `gowers` are drawn from
small, boundary and huge values, on valid and mutated documents alike.
"""

import copy
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trlab.cli import main

F2 = {"p": 2, "e": 1}
DOCS = {
    "tensor": {"field": F2, "dims": [2, 2], "coeffs": [1, 0, 1, 1]},
    "tensor222": {"field": {"p": 3, "e": 1}, "dims": [2, 2, 2],
                  "coeffs": [1, 0, 0, 1, 0, 1, 1, 2]},
    "pencil": {"field": F2, "rows": 2, "cols": 2, "A": [1, 0, 0, 0], "B": [0, 1, 1, 0]},
    "poly": {"field": {"p": 3, "e": 1}, "n": 2, "terms": [{"exps": [1, 1], "coeff": 1}]},
    "survey": {"field": F2, "dims": [2, 2], "count": 2, "seed": 1, "e_max": 2,
               "workers": 1, "exhaustive": False, "checks": ["analytic_le_rank"],
               "caps": {"points": 1000, "search": 1000}},
}
COMMANDS = [
    ("tensor", ["rank"], []),
    ("tensor", ["verify"], []),
    ("tensor222", ["rank"], []),
    ("tensor222", ["verify"], []),
    ("pencil", ["pencil", "profile"], []),
    ("pencil", ["pencil", "kr"], []),
    ("pencil", ["pencil", "prop22"], []),
    ("poly", ["gowers"], ["--d", "2"]),
    ("survey", ["survey"], ["-o", "{csv}"]),
]
SMALL_KEYS = ("count", "workers")
INT_OPTIONS = {
    ("rank",): ("--ext-e", "--slot"),
    ("verify",): ("--e-max",),
    ("pencil", "profile"): ("--ext-e",),
    ("pencil", "kr"): ("--ext-e",),
    ("pencil", "prop22"): ("--ext-e", "--samples", "--seed"),
    ("gowers",): ("--d",),
}
INT_VALUES = [-1, 0, 1, 2, 5000, 10 ** 8, 2 ** 63]

junk = st.one_of(
    st.booleans(), st.none(), st.integers(-2, 2),
    st.sampled_from([-1, -(2 ** 63), 2 ** 31, 2 ** 63, 10 ** 30]),
    st.floats(), st.text(max_size=3), st.just([]), st.just({}),
)


def _paths(doc, prefix=()):
    """Every (path, value) of a JSON document, the root first."""
    yield prefix, doc
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, val in items:
        yield from _paths(val, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path, val = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "nest"]))
        if action == "replace":
            new = draw(junk)
            if path and path[-1] in SMALL_KEYS and type(new) is int and new > 2:
                new = 2
        elif action == "nest":
            new = draw(st.sampled_from([[val], {"x": val}]))
        if not path:
            if action == "delete":
                continue
            doc = new
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


@st.composite
def _cases(draw):
    kind, cmd, opts = draw(st.sampled_from(COMMANDS))
    return cmd, draw(_mutated(DOCS[kind])), opts


@st.composite
def _option_cases(draw):
    """A command on a valid or mutated document, with drawn integer options
    (given after the defaults, so they win)."""
    kind, cmd, opts = draw(st.sampled_from([c for c in COMMANDS if tuple(c[1]) in INT_OPTIONS]))
    doc = draw(st.one_of(st.just(DOCS[kind]), _mutated(DOCS[kind])))
    for opt in INT_OPTIONS[tuple(cmd)]:
        value = draw(st.none() | st.sampled_from(INT_VALUES))
        if value is not None:
            opts = opts + [opt, str(value)]
    return cmd, doc, opts


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, case):
    cmd, doc, opts = case
    path = workdir / "in.json"
    path.write_text(json.dumps(doc))
    csv = str(workdir / "out.csv")
    res = CliRunner().invoke(main, cmd + [str(path)] + [o.format(csv=csv) for o in opts])
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)


@settings(max_examples=120, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_mutated_documents_keep_the_exit_code_contract(workdir, case):
    _run(workdir, case)


@settings(max_examples=100, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(case=_option_cases())
def test_integer_options_keep_the_exit_code_contract(workdir, case):
    _run(workdir, case)
