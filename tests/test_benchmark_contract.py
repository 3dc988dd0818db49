"""The benchmark (perfbench/) imports program names and, traced
(perfbench/run.py --trace 1), patches them from outside; a rename or deletion
in the program must fail here, not in the benchmark."""

import ast
import contextlib
import glob
import importlib
import importlib.util
import os

import pytest

from tradefool import cli, envs, harness

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
TRACING = os.path.join(PERFBENCH, "tracing.py")


def tradefool_imports():
    """(file, module, name) for every ``from tradefool... import name`` in perfbench."""
    found = set()
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    node.module.split(".")[0] == "tradefool":
                found.update((os.path.basename(path), node.module, alias.name)
                             for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("path, module, name", tradefool_imports())
def test_benchmark_import_resolves(path, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):  # a submodule binds to its package once imported
        with contextlib.suppress(ImportError):
            importlib.import_module(f"{module}.{name}")
    assert hasattr(owner, name), f"{path} imports {name} from {module}, which has no such name"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_name():
    originals = [(cli, "load_csv"), (cli, "make_env"), (envs, "build_feature_series")]
    originals += [(env_class, attr) for env_class in (envs.BasicStockEnv, envs.ManagedRiskEnv)
                  for attr in ("step", "observation", "reset")]
    before = [owner.__dict__[attr] for owner, attr in originals]
    with load_tracing().Tracer().patched():
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(originals, before))
    assert [owner.__dict__[attr] for owner, attr in originals] == before
    assert harness.max_sweep_workers() >= 1
