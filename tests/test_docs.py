"""Documentation layer: integrity checker, perf-table renderer, artefacts.

Mirrors the CI docs job so doc rot fails locally in the tier-1 suite, not
just post-push: the promised documents exist, every intra-repo reference
resolves, and the README perf table matches the JSON artefacts.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_script(name: str):
    path = REPO / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_docs():
    return _load_script("check_docs")


@pytest.fixture(scope="module")
def render_bench_table():
    return _load_script("render_bench_table")


class TestPromisedDocumentsExist:
    @pytest.mark.parametrize(
        "relpath",
        [
            "EXPERIMENTS.md",
            "docs/ARCHITECTURE.md",
            "benchmarks/results/README.md",
            "README.md",
        ],
    )
    def test_exists_and_non_trivial(self, relpath):
        path = REPO / relpath
        assert path.is_file(), f"{relpath} is promised by code/docs but missing"
        assert len(path.read_text()) > 500

    def test_experiments_covers_required_topics(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for topic in ("GIL", "simulat", "extrapolat", "Table III", "Fig. 4", "REPRO_FULL"):
            assert topic in text, f"EXPERIMENTS.md lost its {topic!r} discussion"

    def test_architecture_links_layers_and_checklist(self):
        text = (REPO / "docs" / "ARCHITECTURE.md").read_text()
        for topic in ("repro.datasets", "repro.citests", "repro.parallel", "repro.engine"):
            assert topic in text
        assert "- [ ]" in text  # the reproduction checklist


class TestNoDanglingReferences:
    def test_checker_reports_clean_tree(self, check_docs):
        problems: list[str] = []
        check_docs.check_markdown_links(problems)
        check_docs.check_python_citations(problems)
        check_docs.check_module_references(problems)
        assert problems == []

    def test_checker_catches_planted_rot(self, check_docs, tmp_path, monkeypatch):
        rotten = tmp_path / "src"
        rotten.mkdir()
        # Names assembled at runtime so the real checker does not flag
        # this test file itself when scanning tests/.
        missing_doc = "MISSING_DOC" + ".m" + "d"
        missing_link = "docs/NOPE" + ".m" + "d"
        (rotten / "mod.py").write_text(f'"""See {missing_doc} for details."""\n')
        (tmp_path / "README.md").write_text(f"[gone]({missing_link})\n")
        monkeypatch.setattr(check_docs, "REPO", tmp_path)
        problems: list[str] = []
        check_docs.check_markdown_links(problems)
        check_docs.check_python_citations(problems)
        assert len(problems) == 2

    def test_checker_catches_dangling_module_reference(self, check_docs, tmp_path, monkeypatch):
        (tmp_path / "README.md").write_text(
            "| `repro.datasets.DiscreteDataset` | `repro.citests.tablebase` |\n"
            "| `repro.datasets.no_such_module` | `repro.citests.GSquareTest.no_such_attr` |\n"
        )
        monkeypatch.setattr(check_docs, "REPO", tmp_path)
        problems: list[str] = []
        check_docs.check_module_references(problems)
        assert [p.rsplit("-> ", 1)[1] for p in problems] == [
            "repro.datasets.no_such_module",
            "repro.citests.GSquareTest.no_such_attr",
        ]
        assert all(p.startswith("README.md:2:") for p in problems)


class TestPerfTable:
    def test_readme_table_is_fresh(self, render_bench_table):
        current = (REPO / "README.md").read_text()
        regenerated = render_bench_table.splice(current, render_bench_table.render_table())
        assert regenerated == current, (
            "README perf table does not match the BENCH_*.json artefacts "
            "(expected after re-running benchmarks) — regenerate with "
            "`python scripts/render_bench_table.py`"
        )

    def test_splice_requires_markers(self, render_bench_table):
        with pytest.raises(SystemExit, match="markers"):
            render_bench_table.splice("no markers here", "table")

    def test_every_perf_artefact_gets_a_row(self, render_bench_table):
        artefacts = sorted((REPO / "benchmarks" / "results").glob("BENCH_*.json"))
        table = render_bench_table.render_table()
        n_rows = sum(1 for line in table.splitlines() if line.startswith("|")) - 2
        assert n_rows == len(artefacts)
