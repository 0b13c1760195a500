"""Set-up probe: import the product, make one warm-up call, print ``ready``.

Usage: ``python3 perfbench/ready.py <src-dir>``.  The parent times the
interval from launch to the ``ready`` line.
"""
import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])

from dixiecup import cli  # noqa: E402
from workloads import WARM_UP  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(WARM_UP)
print("ready" if code in (0, 1) else f"warm-up exit code {code}", flush=True)
