"""``python -m repro``: the same entry point as the ``repro`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
