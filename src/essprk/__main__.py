"""``python -m essprk``: the essprk command line, as ``essprk.cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
