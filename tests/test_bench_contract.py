"""The benchmark's workloads still run on the package.

``bench/workloads.py`` drives the package through its public module
functions and is kept frozen, so an API change that breaks it would show
only as a refused benchmark run. Each workload is built at one seed, run
for one pass and checked; the counts it names in ``seed_counts`` must equal
those of the same pass on the frozen copy ``bench/fchybrid_seed``.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.append(str(BENCH))

from workloads import WORKLOADS, package  # noqa: E402

SEED = 7


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(tmp_path, name):
    make = WORKLOADS[name]
    workload = make(package("fchybrid"), SEED, tmp_path)
    out = workload.run()
    assert workload.check(out) == []
    if make.seed_counts:
        seed = make(package("fchybrid_seed"), SEED, tmp_path).run()
        assert ({k: out.counts[k] for k in make.seed_counts}
                == {k: seed.counts[k] for k in make.seed_counts})
