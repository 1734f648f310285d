"""The pairwise references stand apart from the pipeline: no other module
of the package, its `__init__` included, imports `reference` or defines
or imports the pairwise Bruhat comparison or the reflection covers, no
module imports a name it never uses, and every public name of a module
is defined there."""

import ast
import importlib
import pathlib

import wachsposets
from wachsposets import reference

PACKAGE = pathlib.Path(wachsposets.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))
REFERENCES = ["bruhat_leq_a", "bruhat_leq_b", "compose", "signed_reflection",
              "bruhat_covers", "is_wachs", "chi_map",
              "encode", "star", "f_map", "rank_lw", "involution", "coatom_c",
              "wachs_leq", "wachs_covers", "tl_set_a", "tl_set", "weak_leq",
              "build_poset", "length_a", "descent_set_a", "StatRecord",
              "stats_a", "full_value", "full_position", "format_window"]


def imported_names(source):
    """The parts of every dotted name the import statements of `source`
    mention: the modules, and the names taken from them."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
    return names


def unused_imports(source):
    """The names the import statements of `source` bind and its code
    never reads (`from __future__` imports aside)."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def defined_names(source):
    """The names of the functions `source` defines, at any depth."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef)}


def test_no_pipeline_module_imports_reference():
    for form in ("from . import reference", "from .reference import star",
                 "import wachsposets.reference",
                 "from wachsposets.reference import tl_set"):
        assert "reference" in imported_names(form), form
    assert defined_names("def f():\n    def g(): pass\n") == {"f", "g"}
    assert len(MODULES) > 2 and {"__init__", "reference"} <= set(MODULES)
    # the closed forms compare tau by up-sets, never pair by pair, and
    # take its covers from those up-sets, not from the reflection rule
    # they are checked against
    for module in MODULES:
        if module != "reference":
            source = (PACKAGE / f"{module}.py").read_text()
            names = imported_names(source) | defined_names(source)
            assert not names & {"reference", "bruhat_leq_b", "bruhat_covers",
                                "_reflections", "signed_reflection",
                                "compose"}, module
    # one home per name: the package root imports and re-exports nothing
    assert imported_names((PACKAGE / "__init__.py").read_text()) == set()


def test_public_names_and_references_resolve():
    for module in MODULES:
        mod = importlib.import_module(
            f"wachsposets.{module}".removesuffix(".__init__"))
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), (module, name)
    assert reference.__all__ == REFERENCES


def test_no_module_imports_a_name_it_never_uses():
    source = ("from __future__ import annotations\nimport os.path, sys\n"
              "from . import wachs\nfrom .perms import inverse as inv, "
              "compose\n\ndef f(x: Sequence) -> int:\n"
              "    return wachs.f(inv(x), os.sep)\n")
    assert unused_imports(source) == {"sys", "compose"}
    for module in MODULES:
        assert unused_imports((PACKAGE / f"{module}.py").read_text()) == \
            set(), module

