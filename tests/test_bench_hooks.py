"""The benchmark's tracer still finds every name it wraps in the package.

`perfbench/tracer.py` patches functions and methods by name at each module
that imports them; a rename in the package would crash a benchmark run.
Installing and uninstalling the tracer here turns such a rename into a
failing test.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from hartogs_geom import cli  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_tracer_installs_and_uninstalls():
    original = cli._pool
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert cli._pool is original
    # the traced pool reads the executor's worker count
    with cli._pool() as pool:
        assert pool._max_workers >= 1
