"""Sanity checks on the examples, docs, and bench scaffolding."""

import ast
import importlib
import pathlib
import py_compile
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]


class TestExamples:
    EXAMPLES = sorted((REPO / "examples").glob("*.py"))

    def test_at_least_three_examples_exist(self):
        assert len(self.EXAMPLES) >= 3

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_example_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_example_has_main_guard_and_docstring(self, path):
        tree = ast.parse(path.read_text())
        assert ast.get_docstring(tree), f"{path.name} lacks a docstring"
        assert 'if __name__ == "__main__":' in path.read_text()

    @pytest.mark.parametrize(
        "path", EXAMPLES, ids=[p.name for p in EXAMPLES]
    )
    def test_example_imports_only_public_api(self, path):
        """Examples must demonstrate the public surface, not internals."""
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    parts = node.module.split(".")
                    # allow repro.<pkg> and repro.<pkg>.<public module>
                    assert not any(p.startswith("_") for p in parts)


def _documented_symbols():
    """``(package, name)`` for each Symbol-column entry of docs/API.md."""
    symbols = []
    package = None
    in_table = False
    text = (REPO / "docs" / "API.md").read_text(encoding="utf-8")
    for line in text.splitlines():
        section = re.fullmatch(r"## `(repro(?:\.\w+)*)`", line)
        if section:
            package, in_table = section.group(1), False
        elif line.startswith("| Symbol |"):
            in_table = package is not None
        elif not line.startswith("|"):
            in_table = False
        elif in_table and not line.startswith("|---"):
            for span in re.findall(r"`([^`]+)`", line.split("|")[1]):
                name = span.split("(")[0].removesuffix(".*")
                symbols.append((package, name))
    return symbols


class TestApiReference:
    SYMBOLS = _documented_symbols()

    def test_tables_were_found(self):
        assert len({package for package, _ in self.SYMBOLS}) >= 8

    @pytest.mark.parametrize(
        "package, name", SYMBOLS, ids=[f"{p}:{n}" for p, n in SYMBOLS]
    )
    def test_symbol_resolves_from_its_package(self, package, name):
        """``from package import head``, then attributes for dotted names."""
        head, *attrs = name.split(".")
        module = importlib.import_module(package)
        try:
            value = getattr(module, head)
        except AttributeError:
            value = importlib.import_module(f"{package}.{head}")
        for attr in attrs:
            value = getattr(value, attr)


class TestBenchmarks:
    BENCHES = sorted((REPO / "benchmarks").glob("bench_*.py"))

    def test_every_table_and_figure_has_a_bench(self):
        names = {p.stem for p in self.BENCHES}
        required = {
            "bench_table1_dataset_stats",
            "bench_fig2a_node_similarity",
            "bench_fig2b_local_steps",
            "bench_fig3a_sent140_convergence",
            "bench_fig3b_target_similarity",
            "bench_fig3c_adapt_synthetic",
            "bench_fig3d_adapt_mnist",
            "bench_fig3e_adapt_sent140",
            "bench_fig4_robust_tradeoff",
            "bench_fig4e_fgsm_strength",
        }
        missing = required - names
        assert not missing, f"paper artifacts without a bench: {missing}"

    @pytest.mark.parametrize(
        "path", BENCHES, ids=[p.name for p in BENCHES]
    )
    def test_bench_compiles_and_documents_its_figure(self, path):
        py_compile.compile(str(path), doraise=True)
        doc = ast.get_docstring(ast.parse(path.read_text()))
        assert doc and ("Figure" in doc or "Table" in doc or "Ablation" in doc)


class TestDocs:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/THEORY.md", "docs/API.md"):
            assert (REPO / name).is_file(), f"missing {name}"

    def test_experiments_covers_every_paper_artifact(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in (
            "Table I", "Figure 2(a)", "Figure 2(b)", "Figure 3(a)",
            "Figure 3(b)", "Figure 3(c)", "Figure 3(d)", "Figure 3(e)",
            "Figure 4(a)", "Figure 4(e)",
        ):
            assert artifact in text, f"EXPERIMENTS.md misses {artifact}"

    def test_design_records_substitutions(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "MNIST" in text
        assert "Sent140" in text
        assert "autodiff" in text
