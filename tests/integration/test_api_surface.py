"""Meta-tests on the public API surface: exports, docstrings, signatures.

A production-quality library documents every public item; these tests
make that a checked invariant rather than a hope.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.configuration",
    "repro.core.engine",
    "repro.core.families",
    "repro.core.faults",
    "repro.core.fenwick",
    "repro.core.jump",
    "repro.core.protocol",
    "repro.core.sequential",
    "repro.configurations",
    "repro.configurations.generators",
    "repro.protocols",
    "repro.analysis",
    "repro.experiments",
    "repro.viz",
    "repro.cli",
]


class TestExports:
    def test_all_listed_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize(
        "first", ["repro.core.jump", "repro.core.scheduler"]
    )
    def test_engine_modules_import_in_either_order(self, first):
        """Importing either engine module first in a fresh interpreter
        works: ``scheduler`` imports ``jump`` at load time and ``jump``
        imports ``scheduler`` only lazily, so no import cycle forms."""
        code = (
            f"import {first}\n"
            "from repro.core.jump import JumpEngine\n"
            "from repro.core.scheduler import WeightedScheduledEngine\n"
            "assert WeightedScheduledEngine is JumpEngine\n"
        )
        env = dict(
            os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, timeout=120, check=False,
        )
        assert result.returncode == 0, result.stderr

    def test_submodules_have_all(self):
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            assert hasattr(module, "__all__") or module_name in (
                "repro.experiments",
                "repro.cli",
            ) or "__init__" not in (module.__file__ or ""), module_name


class TestDocstrings:
    def _public_members(self, module):
        names = getattr(module, "__all__", None)
        if names is None:
            return []
        members = []
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                members.append((name, obj))
        return members

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        for name, obj in self._public_members(module):
            assert obj.__doc__, f"{module_name}.{name} lacks a docstring"
            if inspect.isclass(obj):
                for method_name, method in inspect.getmembers(
                    obj, inspect.isfunction
                ):
                    if method_name.startswith("_"):
                        continue
                    if method.__qualname__.split(".")[0] != obj.__name__:
                        continue  # inherited implementation
                    documented = method.__doc__ or any(
                        getattr(base, method_name, None) is not None
                        and getattr(base, method_name).__doc__
                        for base in obj.__mro__[1:]
                    )
                    assert documented, (
                        f"{module_name}.{name}.{method_name} lacks a docstring"
                    )

    def test_every_experiment_module_documented(self):
        package = importlib.import_module("repro.experiments")
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(
                f"repro.experiments.{info.name}"
            )
            assert module.__doc__, f"experiments.{info.name} undocumented"


class TestProtocolContracts:
    """Every shipped ranking protocol honours the shared conventions."""

    def _protocols(self):
        return [
            repro.AGProtocol(10),
            repro.RingOfTrapsProtocol(m=3),
            repro.TreeRankingProtocol(10, k=2),
            repro.LineOfTrapsProtocol(m=2),
        ]

    def test_state_space_shape(self):
        for protocol in self._protocols():
            assert protocol.num_states == (
                protocol.num_ranks + protocol.num_extra_states
            )
            assert protocol.num_ranks == protocol.num_agents

    def test_delta_total_on_state_space(self):
        """delta() must accept every ordered state pair without raising."""
        for protocol in self._protocols():
            for si in range(protocol.num_states):
                for sj in range(protocol.num_states):
                    out = protocol.delta(si, sj)
                    assert out is None or len(out) == 2

    def test_names_are_stable_identifiers(self):
        for protocol in self._protocols():
            assert protocol.name
            assert "\n" not in protocol.name
