"""``python -m repro`` entry point.

A :class:`~repro.common.errors.ReproError` (an infeasible plan, a bad
configuration) ends the process with ``repro: error: <message>`` on
stderr and exit status 2, like an argument error; ``repro.cli.main``
itself keeps raising, for callers that want the exception.
"""

import signal
import sys

from repro.cli import main
from repro.common.errors import ReproError

# Die quietly when the consumer closes the pipe (e.g. `... | head`).
try:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
except (AttributeError, ValueError):  # pragma: no cover - non-POSIX
    pass

try:
    status = main()
except ReproError as err:
    print(f"repro: error: {err}", file=sys.stderr)
    status = 2
sys.exit(status)
