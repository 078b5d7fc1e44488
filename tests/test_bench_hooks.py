"""The traced benchmark run wraps package names from outside: each workload's
``install`` looks them up with getattr and fails on any that is gone.  This
builds every workload and installs and restores its hooks, so that a change
that drops or renames a wrapped name fails here, not only under
``bench/run.py --trace 1``."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_hooks_install_and_restore(name, tmp_path):
    wl = workloads.WORKLOADS[name](run.import_package(), 1, str(tmp_path / name))
    tracer = spans.Tracer()
    try:
        wl.install(tracer)
        originals = list(tracer._patched)  # (owner, attr, original)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in originals)
