"""The per-cell oracle stays independent of the kernel it checks, and off the product
path; the package keeps one home for each decision."""
import ast
from pathlib import Path

import numpy as np
import pytest

import newsca
import newsca.engine
import newsca.reference
from newsca import AdoptionState, Boundary, CellState, Grid, InnovationRuleParams, NewsRuleParams, make_rng, step

PACKAGE = Path(newsca.__file__).parent
PRODUCT_MODULES = ("grid", "rules", "engine", "cli", "model", "analytics")


def parse(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def imported_from(tree: ast.Module, module: str) -> list[str]:
    """Names imported from the package's ``module``, by relative or absolute import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = node.module if node.level == 0 else f"newsca.{node.module}" if node.module else "newsca"
            if target == f"newsca.{module}":
                names += [alias.name for alias in node.names]
            elif target == "newsca":
                names += [alias.name for alias in node.names if alias.name == module]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name == f"newsca.{module}"]
    return names


def named_in(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name that appears in ``tree``."""
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    return named


class TestOracleIndependence:
    def test_reference_shares_no_kernel_code(self):
        tree = parse("reference")
        assert imported_from(tree, "engine") == []
        assert named_in(tree).isdisjoint({"_block_sums", "_census", "cutoffs"})
        # Both sides read the scalar rule ``params.adopts``: the oracle calls it
        # cell by cell, and the kernel only through the cutoff table built from it.
        engine_calls = [node.func.attr for node in ast.walk(parse("engine"))
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
        assert "adopts" not in engine_calls

    # The lattice is shared by both models; what tells them apart lives in rules.
    def test_grid_knows_no_model(self):
        tree = parse("grid")
        assert imported_from(tree, "rules") == []
        assert named_in(tree).isdisjoint({"CellState", "AdoptionState", "NEWS_CHARS", "ADOPTION_CHARS",
                                          "NewsRuleParams", "InnovationRuleParams"})

    # What a config value may be is decided by the class that defines it; the
    # CLI checks only the shape of its JSON files, not Python type hints.
    def test_cli_reflects_on_no_type_hints(self):
        tree = parse("cli")
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        assert "typing" not in modules
        assert "is_dataclass" not in named_in(tree)

    def test_neighbor_counts_reads_neighborhoods(self):
        func = next(node for node in ast.walk(parse("reference"))
                    if isinstance(node, ast.FunctionDef) and node.name == "neighbor_counts")
        named = named_in(func)
        assert "neighborhood" in named
        assert "_block_sums" not in named

    # A private name is a module's own business; sharing one across modules
    # splits one decision between two homes.
    def test_no_module_imports_a_private_name(self):
        private = {}
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "newsca"):
                    names = [alias.name for alias in node.names
                             if alias.name.startswith("_") and not alias.name.endswith("__")]
                    if names:
                        private[path.stem] = private.get(path.stem, []) + names
        assert private == {}

    # normalize checks conservation, so a fraction made anywhere else is unchecked.
    def test_only_analytics_divides_by_field_size(self):
        divisions = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.Div):
                    operands = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
                    if any("field_size" in named_in(operand) for operand in operands):
                        divisions.append(f"{path.stem}:{node.lineno}")
        assert [d for d in divisions if not d.startswith("analytics:")] == []

    # numpy compares a uint8 array with an IntEnum member through a casting
    # loop several times slower than with a plain int, so the kernel reads the
    # seed state only as an int and names no enum member.
    def test_engine_passes_no_enum_member_to_numpy(self):
        tree = parse("engine")
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        reads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "seed_state"]
        assert reads
        bare = [node.lineno for node in reads
                if not (isinstance(parent[node], ast.Call) and isinstance(parent[node].func, ast.Name)
                        and parent[node].func.id == "int" and parent[node].args == [node])]
        assert bare == []
        enums = {"CellState", "AdoptionState", *CellState.__members__, *AdoptionState.__members__}
        assert named_in(tree).isdisjoint(enums)

    def test_only_engine_imports_the_oracle(self):
        users = {module: imported_from(parse(module), "reference") for module in PRODUCT_MODULES}
        assert users == {module: ["step_reference"] if module == "engine" else []
                         for module in PRODUCT_MODULES}


class TestBenchmarkImport:
    def test_engine_reexports_step_reference(self):
        assert newsca.engine.step_reference is newsca.reference.step_reference

    @pytest.mark.parametrize("params", [NewsRuleParams(), InnovationRuleParams(threshold=0.9)])
    @pytest.mark.parametrize("boundary", [Boundary.BOUNDED, Boundary.TOROIDAL])
    def test_positional_call_matches_step(self, params, boundary):
        codes = len(type(params.seed_state))
        cells = np.random.default_rng(4).integers(0, codes, size=(6, 7), dtype=np.uint8)
        grid = Grid(cells, boundary)
        slow = newsca.engine.step_reference(grid, 0, make_rng(11), params)
        fast = step(grid, make_rng(11), params)
        assert slow == fast
        assert not np.array_equal(slow.cells, cells)
