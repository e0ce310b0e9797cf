"""The package's public names: each is listed once, under the module that
defines it, none loads numpy, and every name the benchmark harness reads from
the package resolves.  ``bench/`` is only read here: its modules are imported from a
``sys.path`` entry, as CI imports them, so a delete that breaks the harness
fails these tests, not only CI's traced smoke runs."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefscope
from test_network import TWO_NODE

BENCH = Path(__file__).resolve().parents[1] / "bench"
LISTED = [(module, name) for module, names in beliefscope._EXPORTS.items() for name in names]


class TestOneModulePerName:
    @pytest.mark.parametrize("module, name", LISTED, ids=[f"{m}.{n}" for m, n in LISTED])
    def test_each_name_is_its_modules_object(self, module, name):
        home = importlib.import_module(f"beliefscope.{module}")
        obj = getattr(beliefscope, name)
        assert obj is getattr(home, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == home.__name__  # defined there, not re-exported

    def test_no_name_is_listed_twice(self):
        names = [name for _, name in LISTED]
        assert len(names) == len(set(names))
        assert not set(names) & set(beliefscope._EXPORTS)  # beliefscope.<module> is the module

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            beliefscope.no_such_name

    def test_importing_the_package_loads_only_errors(self):
        code = ("import sys, beliefscope; "
                "print(sorted(m for m in sys.modules if m.startswith('beliefscope.')))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "['beliefscope.errors']"

    def test_no_public_name_loads_numpy(self):
        """Every public name resolves, and the propagation, enumeration and MAP routes run
        on the two-node network, without numpy."""
        code = ("import sys, beliefscope as b\n"
                "for names in b._EXPORTS.values():\n"
                "    [getattr(b, name) for name in names]\n"
                "net = b.validate_network(b.network_spec_from_document(b.network.load_json(sys.argv[1])))\n"
                "inet = b.apply_evidence(net, b.EvidenceSet({'F': 't'}))\n"
                "print(b.map_assignment(b.propagate(inet)), b.brute_force_beliefs(inet).probability('O', 't'))\n"
                "print('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code, TWO_NODE], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["{'O': 't', 'F': 't'} 0.8181818181818181", "False"]


def bench_imports():
    """Every ``from beliefscope... import ...`` statement of the harness's files."""
    found = []
    for path in sorted(BENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("beliefscope"):
                found.append(pytest.param(node, id=f"{path.relative_to(BENCH)}:{node.lineno}"))
    return found


class TestBenchmarkNames:
    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(BENCH))
        return importlib.import_module("tracing")

    def test_the_harness_imports_names_from_the_package(self):
        files = {param.id.split(":")[0] for param in bench_imports()}
        assert {"run.py", os.path.join("tests", "test_oracle.py")} <= files

    @pytest.mark.parametrize("statement", bench_imports())
    def test_each_imported_name_resolves(self, statement):
        exec(compile(ast.Module([statement], type_ignores=[]), "<bench>", "exec"), {})

    def test_the_tracer_installs_and_uninstalls(self, tracing):
        layers = {layer: importlib.import_module(f"beliefscope.{layer}") for layer in tracing.TARGETS}
        before = {layer: dict(vars(module)) for layer, module in layers.items()}
        tracer = tracing.Tracer()
        try:
            tracer.install()
            for name in tracing.SPAN_NAMES:
                layer, _, attr = name.partition(".")
                owner = layers[layer]
                for part in attr.split("."):
                    owner = getattr(owner, part)
                assert hasattr(owner, "__wrapped__"), name  # every traced function is wrapped
        finally:
            tracer.uninstall()
        assert {layer: dict(vars(module)) for layer, module in layers.items()} == before
