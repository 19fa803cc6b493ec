"""``python -m repro.cache`` entry point."""

import signal
import sys

from .cli import main

if __name__ == "__main__":
    if hasattr(signal, "SIGPIPE"):
        # End quietly, as other command-line tools do, when the reader
        # of stdout closes it early (``| head``).
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())
