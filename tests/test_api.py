"""The package's public surface and the seams the scripts and the benchmark
rely on."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import heckehom
import heckehom.straighten as straighten

ROOT = Path(__file__).resolve().parent.parent


def readme_public_api():
    """The names listed under README's "Public API" heading: every
    backquoted name in the section's bullet list."""
    text = (ROOT / "README.md").read_text()
    section = text.split("### Public API\n", 1)[1].split("\n#", 1)[0]
    bullets = section.split("\n- ", 1)[1]
    return re.findall(r"`([A-Za-z_]\w*)`", bullets)


def heckehom_imports(path):
    """(module, name) for every name a file imports with
    ``from heckehom... import``."""
    tree = ast.parse(path.read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "heckehom"
            for alias in node.names]


def test_all_is_the_readme_list():
    listed = readme_public_api()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(heckehom.__all__)
    for name in heckehom.__all__:
        assert hasattr(heckehom, name), name
    public = {name for name in vars(heckehom) if not name.startswith("_")}
    modules = {name for name in public
               if isinstance(getattr(heckehom, name), types.ModuleType)}
    assert public - modules == set(heckehom.__all__)


def test_script_and_benchmark_imports_resolve():
    # Every name is an attribute of its module or a submodule, and the
    # names taken from the package itself are public.
    files = sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    checked = 0
    for path in files:
        for module, name in heckehom_imports(path):
            owner = importlib.import_module(module)
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                assert hasattr(owner, name), (path.name, module, name)
                if module == "heckehom":
                    assert name in heckehom.__all__, (path.name, name)
            checked += 1
    assert checked > 20


def test_tracer_installs_and_uninstalls():
    # The tracer patches its boundaries by name (among them
    # straighten.embed_two_row, straighten.two_row_straighten_step,
    # straighten.find_violating_window, hecke_oracle.image_h3 and
    # HeckeElem's methods), so installing it fails if one has gone.
    from perfbench import tracer

    seams = [(owner, attr) for owner, attr, _ in tracer.BOUNDARIES]
    seams.append((straighten, "find_violating_window"))
    before = [vars(owner)[attr] for owner, attr in seams]
    # Only the counters wrap find_violating_window.
    for instrument, wraps_window in ((tracer.Spans(), False), (tracer.Counts(), True)):
        try:
            instrument.install()
            patched = [vars(owner)[attr] is not old
                       for (owner, attr), old in zip(seams, before)]
        finally:
            instrument.uninstall()
        assert any(patched) and patched[-1] is wraps_window
        assert [vars(owner)[attr] for owner, attr in seams] == before


def loaded_modules(code):
    """The modules loaded after running code in a fresh interpreter that
    finds this checkout's package."""
    out = subprocess.run([sys.executable, "-c", f"{code}\nimport json, sys\n"
                          "print(json.dumps(sorted(sys.modules)))"],
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_start_up_skips_slow_modules():
    # Importing the package and its CLI loads nothing that only a worker
    # pool, --q or a dataclass would need; each of these costs milliseconds
    # at every start-up.
    added = loaded_modules("import heckehom, heckehom.cli") - loaded_modules("pass")
    assert "heckehom.cli" in added
    slow = {"multiprocessing", "dataclasses", "inspect", "fractions", "decimal"}
    assert not added & slow, sorted(added & slow)
