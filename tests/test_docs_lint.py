"""Documentation health: import lint + runnable doctests.

``scripts/check_docs.py`` fails when a ```python block in the markdown
docs imports a ``repro`` module or symbol that no longer exists; running
it here makes doc drift a test failure.  The doctest runners keep the
examples in ``repro.runtime`` executable, not decorative.
"""

from __future__ import annotations

import doctest
import importlib.util
import pathlib
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_docs.py"


def _load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_docs_imports_resolve(capsys):
    """Every repro import in docs/*.md, README.md, EXPERIMENTS.md resolves."""
    mod = _load_check_docs()
    assert mod.main([]) == 0, capsys.readouterr().err


def test_lint_catches_missing_symbol(tmp_path):
    mod = _load_check_docs()
    bad = tmp_path / "bad.md"
    bad.write_text(
        "```python\nfrom repro.core import DefinitelyNotAThing\n```\n"
    )
    failures = mod.check_file(bad)
    assert len(failures) == 1
    assert "DefinitelyNotAThing" in failures[0]


def test_lint_catches_missing_module(tmp_path):
    mod = _load_check_docs()
    bad = tmp_path / "bad.md"
    bad.write_text("```python\nimport repro.does_not_exist\n```\n")
    assert any("repro.does_not_exist" in f for f in mod.check_file(bad))


def test_lint_ignores_non_python_and_fragments(tmp_path):
    mod = _load_check_docs()
    ok = tmp_path / "ok.md"
    ok.write_text(
        "```bash\npip install repro-not-real\n```\n"
        "```python\nBatchIncrementalMSF(n, seed=..., cost=...)\n"
        "from repro import *\n```\n"
    )
    assert mod.check_file(ok) == []


def test_every_public_module_is_documented():
    """The other direction of drift: no module may exist undocumented."""
    mod = _load_check_docs()
    assert mod.check_module_coverage(mod.default_targets()) == []


def test_module_enumeration_shape(tmp_path):
    mod = _load_check_docs()
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "_private").mkdir()
    for p in [
        pkg / "__init__.py",
        pkg / "top.py",
        pkg / "_hidden.py",
        pkg / "sub" / "__init__.py",
        pkg / "sub" / "leaf.py",
        pkg / "_private" / "__init__.py",
        pkg / "_private" / "inner.py",
    ]:
        p.write_text("")
    assert mod.public_modules(tmp_path) == [
        "repro.sub",
        "repro.sub.leaf",
        "repro.top",
    ]


def test_coverage_flags_missing_module(tmp_path):
    mod = _load_check_docs()
    page = tmp_path / "page.md"
    page.write_text("mentions only `repro.core.batch_msf` here\n")
    failures = mod.check_module_coverage([page])
    assert any("repro.trees.forest" in f for f in failures)
    assert not any("repro.core.batch_msf" in f for f in failures)


def test_every_engine_batch_method_is_documented():
    """Every public ``batch_*`` method of the RC-tree layer has a doc
    mention (docs/batch_queries.md covers the read kernels)."""
    mod = _load_check_docs()
    assert mod.check_batch_method_coverage(mod.default_targets()) == []


def test_batch_method_lint_flags_missing_mention(tmp_path):
    mod = _load_check_docs()
    page = tmp_path / "page.md"
    page.write_text("mentions batch_link and batch_cut and batch_update\n")
    failures = mod.check_batch_method_coverage([page])
    assert any("batch_is_connected" in f for f in failures)
    assert any("batch_path_max" in f for f in failures)
    assert not any("batch_link" in f for f in failures)


def test_batch_method_enumeration_sees_read_kernels():
    mod = _load_check_docs()
    names = mod.engine_batch_methods()
    for required in ("batch_is_connected", "batch_path_max", "batch_connected"):
        assert required in names


def test_every_internal_doc_link_resolves():
    """No doc page may ship a dead cross-reference or anchor."""
    mod = _load_check_docs()
    assert mod.check_links(mod.default_targets()) == []


def test_link_lint_flags_missing_file_and_anchor(tmp_path):
    mod = _load_check_docs()
    good = tmp_path / "good.md"
    good.write_text("# Real Heading\n\nbody\n")
    page = tmp_path / "page.md"
    page.write_text(
        "[ok](good.md) [ok too](good.md#real-heading)\n"
        "[gone](missing.md) [bad anchor](good.md#not-a-heading)\n"
        "[external](https://example.com/nope) [mail](mailto:a@b.c)\n"
    )
    failures = mod.check_links([page])
    assert len(failures) == 2
    assert any("missing.md" in f for f in failures)
    assert any("not-a-heading" in f for f in failures)


def test_link_lint_same_file_anchor(tmp_path):
    mod = _load_check_docs()
    page = tmp_path / "page.md"
    page.write_text(
        "# One\n\n[up](#one) [down](#two) [nowhere](#three)\n\n## Two\n"
    )
    failures = mod.check_links([page])
    assert len(failures) == 1 and "#three" in failures[0]


def test_link_lint_ignores_code_fences(tmp_path):
    mod = _load_check_docs()
    page = tmp_path / "page.md"
    page.write_text(
        "prose\n\n```python\nx = table[key](arg)  # not a link\n```\n"
    )
    assert mod.check_links([page]) == []


def test_github_anchor_slugging():
    mod = _load_check_docs()
    assert mod.github_anchor("Failover walkthrough") == "failover-walkthrough"
    assert (
        mod.github_anchor("The service layer (`repro.service`)")
        == "the-service-layer-reproservice"
    )
    assert mod.github_anchor("p50/p99, explained") == "p50p99-explained"


@pytest.mark.parametrize(
    "module",
    [
        "repro.runtime.cost",
        "repro.runtime.scheduler",
        "repro.trees.rcforest",
        "repro.trees.rcarray",
    ],
)
def test_runtime_doctests_pass(module):
    """The docstring examples actually run and pass."""
    mod = sys.modules.get(module) or __import__(module, fromlist=["_"])
    results = doctest.testmod(mod, verbose=False)
    assert results.attempted > 0, f"{module} lost its doctests"
    assert results.failed == 0
