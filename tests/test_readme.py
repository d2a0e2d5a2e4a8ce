"""README against the code: every backticked lglg name resolves, every test
and CI step cited as a rule's pin exists, and the "Library" example runs as
printed. A rename in the code then fails here instead of leaving README
stale."""

import contextlib
import importlib
import io
import pathlib
import pkgutil
import re
import shutil

import pytest

import lglg
from lglg.formats import load_manifest
from lglg.synthetic import write_benchmark

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
TESTS = {p.name: p.read_text(encoding="utf-8") for p in (ROOT / "tests").glob("test_*.py")}

PROSE = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)  # fenced blocks out
SPANS = re.findall(r"`([^`\n]+)`", PROSE)
MODULES = {m.name for m in pkgutil.iter_modules(lglg.__path__)}

# `lglg.formats.save_model`, or `gabor.MAX_FILTER_BYTES` with the package left out
DOTTED = re.compile(r"(?<![\w.])(?:lglg\.(\w+)((?:\.\w+)*)|(\w+)((?:\.\w+)+))")


def lglg_names():
    """Each backticked lglg module or module attribute, as ``lglg.a.b``."""
    names = set()
    for span in SPANS:
        for m in DOTTED.finditer(span):
            module, attrs = (m[1], m[2]) if m[1] else (m[3], m[4])
            if module in MODULES:
                names.add(f"lglg.{module}{attrs}")
    return sorted(names)


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def rule_bullets():
    rules = section("Performance and cores")
    return [" ".join(b.split()) for b in re.split(r"\n(?=- )", rules)[1:]]


def cited_tests(text):
    return re.findall(r"`((?:Test|test_)\w+)`", text)


def ci_steps(text):
    # CI step "A", or CI steps "A", "B" and "C"
    text = " ".join(text.split())
    lists = re.findall(r'CI steps? ((?:"[^"]+"(?:, | and )?)+)', text)
    return [name for found in lists for name in re.findall(r'"([^"]+)"', found)]


@pytest.mark.parametrize("name", lglg_names())
def test_backticked_name_resolves(name):
    _, module, *attrs = name.split(".")
    obj = importlib.import_module(f"lglg.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"README names {name}"
        obj = getattr(obj, attr)


def test_readme_names_lglg_objects():
    assert len(lglg_names()) >= 20


@pytest.mark.parametrize("name", sorted(set(cited_tests(PROSE))))
def test_cited_test_exists(name):
    defined = re.compile(rf"^\s*(?:class|def) {name}\b", re.M)
    assert any(defined.search(text) for text in TESTS.values()), name


@pytest.mark.parametrize("name", sorted(set(ci_steps(README))))
def test_cited_ci_step_exists(name):
    assert re.search(rf"^\s*- name: {re.escape(name)}$", WORKFLOW, re.M), name


def test_every_rule_is_pinned_and_holds_no_table():
    bullets = rule_bullets()
    assert len(bullets) >= 8
    for bullet in bullets:
        assert cited_tests(bullet) or ci_steps(bullet), bullet
    assert not re.search(r"^\s*\|", section("Performance and cores"), re.M)


def test_library_example_runs_as_printed(tmp_path, monkeypatch):
    code = re.search(r"```python\n(.*?)```", section("Library"), re.S)[1]
    _, probes = write_benchmark(tmp_path, n_classes=4, probes_per_class=1)
    shutil.copy(load_manifest(str(probes))[0].path, tmp_path / "probe.pgm")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().startswith("[(")
