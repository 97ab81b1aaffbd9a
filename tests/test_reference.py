"""The per-cell oracle stays independent of the kernel it checks, and off the product path."""
import ast
from pathlib import Path

import numpy as np
import pytest

import newsca
import newsca.engine
import newsca.reference
from newsca import Boundary, Grid, InnovationRuleParams, NewsRuleParams, make_rng, step

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


class TestOracleIndependence:
    def test_reference_shares_no_kernel_code(self):
        tree = parse("reference")
        assert imported_from(tree, "engine") == []
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert named.isdisjoint({"_block_sums", "_census", "news_cutoffs"})
        calls = [node.func.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
        assert "adopts" not in calls

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
        fast = step(grid, 0, make_rng(11), params)
        assert slow == fast
        assert not np.array_equal(slow.cells, cells)
