"""The traced benchmark (perfbench/run.py --trace 1) patches program names
from outside; a rename in the program must fail here, not in the benchmark."""

import importlib.util
import os

from tradefool import cli, envs, harness

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


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
