"""``python -m repro``: the command-line interface (same as ``repro``)."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
