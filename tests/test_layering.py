"""Import layering of the library.

Each module imports only from the layers below it, so every primitive has
one owner (the field-contraction kernel lives in linalg, digits and the
arithmetic tables in gfq), and no module defers an import into a function
body to dodge a cycle.  The rank searches share one deepening driver,
ranks._deepen, and every size cap is decided by one rule in errors.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "trlab"
LAYERS = {"errors": 0, "gfq": 1, "linalg": 2, "forms": 3, "ranks": 4, "pencils": 4,
          "checks": 5, "survey": 6, "cli": 7, "__init__": 8}
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def _package_imports(tree):
    """(line, module) for every import of a trlab module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.lineno, node.module.split(".")[0]
            else:  # from . import a, b
                for alias in node.names:
                    yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trlab."):
            yield node.lineno, node.module.split(".")[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("trlab."):
                    yield node.lineno, alias.name.split(".")[1]


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYERS)


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    for fn in ast.walk(_tree(name)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = [n.lineno for n in ast.walk(fn) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not nested, f"{name}.py:{nested[0]} imports inside {fn.name}()"


@pytest.mark.parametrize("name", MODULES)
def test_imports_only_from_lower_layers(name):
    for line, target in _package_imports(_tree(name)):
        assert LAYERS[target] < LAYERS[name], \
            f"{name}.py:{line} imports {target}, which is not below it"


def _callers(tree, name):
    """Innermost enclosing function (or "<module>") of every call to `name`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if callee == name:
                    found.append(owner)
            is_fn = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_fn else owner)

    visit(tree, "<module>")
    return found


@pytest.mark.parametrize("name", ["_first_vanishing", "_compositions"])
def test_one_deepening_driver(name):
    # a second search driver would call these directly
    callers = {(mod, fn) for mod in MODULES for fn in _callers(_tree(mod), name)}
    assert callers == {("ranks", "_deepen")}


@pytest.mark.parametrize("name,owners", [
    ("bit_length", {("errors", "_power")}),
    # the suite's refusal of an inexact slice rank has no size to compare
    ("CapExceeded", {("errors", "capped"), ("checks", "check_suite")}),
])
def test_one_refusal_rule(name, owners):
    # every size cap is decided by errors.capped or errors.within_cap
    callers = {(mod, fn) for mod in MODULES for fn in _callers(_tree(mod), name)}
    assert callers == owners


def test_span_members_ranked_by_one_primitive():
    # the span searches draw coefficients; linalg.span_ranks builds and ranks
    # the members, in GRID_BUDGET blocks, after linalg.sampled_span checks
    searches = {("pencils", "max_rank_reduction"), ("ranks", "generic_max_rank")}
    for name in ("batch_rank", "span_basis"):
        callers = {(mod, fn) for mod in MODULES for fn in _callers(_tree(mod), name)}
        assert not callers & searches, f"a span search calls {name} directly"
    for name in ("span_ranks", "sampled_span"):
        assert searches <= {(mod, fn) for mod in MODULES for fn in _callers(_tree(mod), name)}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "gfq"])
def test_field_tables_read_only_in_gfq(name):
    # the arithmetic tables are a representation choice of gfq; every other
    # module goes through the *_arr methods
    read = [n.lineno for n in ast.walk(_tree(name))
            if isinstance(n, ast.Attribute) and n.attr in {"_add_t", "_neg_t", "_mul_t", "_inv"}]
    assert not read, f"{name}.py:{read[0]} reads a gfq table"


PUBLIC = {
    "CheckOutcome", "RankReport", "check_suite", "gowers_bias_identity", "gowers_norm_power",
    "multilinear_bias", "CapExceeded", "InputError", "LabError", "SurveyViolation",
    "MultilinearForm", "PolynomialFn", "contract", "evaluate", "flatten", "gen_diagonal",
    "gen_from_matrix", "gen_random", "gen_rank_one", "move_slot_first", "polarize",
    "poly_from_obj", "poly_to_obj", "restrict", "tensor_from_obj", "tensor_to_obj",
    "FieldCtx", "field_from_order", "field_new", "Matrix", "Subspace", "batch_rank",
    "gaussian_binomial", "kernel_basis", "left_kernel_basis", "rank", "rref",
    "KernelImageReport", "MaxRankReduction", "Pencil", "RadicalRestrictionReport",
    "RankProfile", "kernel_image_check", "kronecker_block", "max_rank_reduction",
    "pencil_from_obj", "pencil_to_obj", "radical_restriction_check", "rank_profile",
    "CodimEstimate", "SchmidtRank", "SliceRank", "SubspaceWitness", "ZeroSetCount",
    "analytic_rank_charsum", "analytic_rank_count", "codim_estimate", "generic_max_rank",
    "schmidt_rank", "slice_rank_exact", "subspace_rank_exact", "zero_set_count",
    "SurveyConfig", "config_from_obj", "run_survey",
}


def test_public_names_are_pinned():
    # a change to the package's public surface has to edit this set too
    tree = _tree("__init__")
    exported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert exported == PUBLIC
