"""The import surface: what each entry point loads, and the lazy exports.

Every package ``__init__`` resolves its exported names from their
submodules on first access (``repro._lazy``), and each CLI subcommand
imports its own machinery.  These checks run in fresh interpreters, so
nothing an earlier test imported hides a module a command pulls in, or
an import cycle that only shows from a cold start.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.configurations",
    "repro.core",
    "repro.ensemble",
    "repro.experiments",
    "repro.obs",
    "repro.protocols",
    "repro.scenarios",
    "repro.serve",
    "repro.viz",
]

#: Modules no ``repro simulate`` run needs.
UNNEEDED = (
    "repro.experiments.registry",
    "repro.analysis.bench",
    "repro.analysis.supervision",
    "repro.scenarios.engine",
    "repro.ensemble.runner",
    "repro.core.batch",
)
UNNEEDED_PACKAGES = ("repro.serve", "repro.viz")


def fresh(code):
    """Run ``code`` in a fresh interpreter; return its last stdout line
    parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def unneeded(modules):
    return sorted(
        name for name in modules
        if name in UNNEEDED
        or any(name.startswith(pkg + ".") for pkg in UNNEEDED_PACKAGES)
    )


LOADED = (
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m.startswith('repro'))))\n"
)


class TestWhatCommandsLoad:
    def test_simulate_setup_imports(self):
        """The imports perfbench's ``simulate-ring-large`` setup times."""
        loaded = fresh(
            "import json, sys\n"
            "import repro.cli, repro.jobspec, repro.core.jump\n" + LOADED
        )
        assert unneeded(loaded) == []
        assert "repro.core.jump" in loaded
        # A JobSpec builds its protocol on demand: no protocol is loaded
        # before one is built.
        assert [m for m in loaded if m.startswith("repro.protocols")] == []

    def test_simulate_run(self):
        loaded = fresh(
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['simulate', '--protocol', 'tree', '--n', '40',"
            " '--seed', '1'])\n"
            "assert code == 0, code\n" + LOADED
        )
        assert unneeded(loaded) == []
        # The tree and what it builds on, and no other protocol.
        assert [m for m in loaded if m.startswith("repro.protocols.")] == [
            "repro.protocols.leader",
            "repro.protocols.tree",
            "repro.protocols.tree_protocol",
        ]

    def test_version_loads_no_engine(self):
        loaded = fresh(
            "import contextlib, io, json, sys\n"
            "from repro.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    try:\n"
            "        main(['--version'])\n"
            "    except SystemExit as stop:\n"
            "        assert stop.code == 0, stop.code\n" + LOADED
        )
        assert not [m for m in loaded if m.startswith("repro.core")]


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_resolves_and_is_listed(self, package):
        """From a cold start, each name of ``__all__`` resolves, and
        ``dir()`` lists it before and after."""
        unlisted = fresh(
            "import importlib, json\n"
            f"package = importlib.import_module({package!r})\n"
            "before = set(dir(package))\n"
            "for name in package.__all__:\n"
            "    getattr(package, name)\n"
            "after = set(dir(package))\n"
            "print(json.dumps([name for name in package.__all__\n"
            "                  if name not in before or name not in after]))\n"
        )
        assert unlisted == []

    def test_first_access_imports_and_caches(self):
        """A package import runs no submodule; the first read of a name
        imports its module and caches the very object it defines."""
        seen = fresh(
            "import json, sys\n"
            "import repro.core\n"
            "cold = 'repro.core.engine' in sys.modules\n"
            "value = repro.core.build_engine\n"
            "from repro.core.engine import build_engine\n"
            "print(json.dumps([cold, value is build_engine,\n"
            "                  'build_engine' in vars(repro.core)]))\n"
        )
        assert seen == [False, True, True]

    def test_submodules_resolve_as_attributes(self):
        """``import repro`` then ``repro.core.build_engine`` still works:
        a submodule read as an attribute is imported on first access."""
        seen = fresh(
            "import json\n"
            "import repro\n"
            "got = [repro.core.build_engine, repro.core.engine.build_engine,\n"
            "       repro.analysis.run_sweep]\n"
            "from repro.analysis.sweep import run_sweep\n"
            "from repro.core.engine import build_engine\n"
            "want = [build_engine, build_engine, run_sweep]\n"
            "print(json.dumps([a is b for a, b in zip(got, want)]))\n"
        )
        assert seen == [True, True, True]

    def test_star_import_binds_all(self):
        bound = fresh(
            "import json\n"
            "namespace = {}\n"
            "exec('from repro import *', namespace)\n"
            "print(json.dumps(sorted(namespace)))\n"
        )
        assert set(repro.__all__) <= set(bound)

    @pytest.mark.parametrize("package", PACKAGES)
    def test_unknown_attribute_raises(self, package):
        module = __import__(package, fromlist=["__all__"])
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name
        assert not hasattr(module, "no_such_name")
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
