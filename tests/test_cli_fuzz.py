"""The exit-code contract under mutated input documents.

Valid tensor, pencil, polynomial and survey documents are mutated (a value
replaced by a wrong type, a bool, a huge or negative int; a key or entry
deleted; a value nested one level deeper) and run through the CLI.  Every
run must end in exit 0, 1, 2 or 3 with no exception other than SystemExit.
Survey `count` and `workers` stay small: a huge count is valid work that
runs for a long time, not a contract violation.
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
    "pencil": {"field": F2, "rows": 2, "cols": 2, "A": [1, 0, 0, 0], "B": [0, 1, 1, 0]},
    "poly": {"field": {"p": 3, "e": 1}, "n": 2, "terms": [{"exps": [1, 1], "coeff": 1}]},
    "survey": {"field": F2, "dims": [2, 2], "count": 2, "seed": 1, "e_max": 2,
               "workers": 1, "exhaustive": False, "checks": ["analytic_le_rank"],
               "caps": {"points": 1000, "search": 1000}},
}
COMMANDS = [
    ("tensor", ["rank"], []),
    ("tensor", ["verify"], []),
    ("pencil", ["pencil", "profile"], []),
    ("pencil", ["pencil", "kr"], []),
    ("pencil", ["pencil", "prop22"], []),
    ("poly", ["gowers"], ["--d", "2"]),
    ("survey", ["survey"], ["-o", "{csv}"]),
]
SMALL_KEYS = ("count", "workers")

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


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=120, deadline=2000, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_mutated_documents_keep_the_exit_code_contract(workdir, case):
    cmd, doc, opts = case
    path = workdir / "in.json"
    path.write_text(json.dumps(doc))
    csv = str(workdir / "out.csv")
    res = CliRunner().invoke(main, cmd + [str(path)] + [o.format(csv=csv) for o in opts])
    assert res.exit_code in (0, 1, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
