"""``python -m regsync``: the same command line as ``regsync``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
