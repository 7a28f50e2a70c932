"""Entry point for ``python -m superpatterns``; the same as the console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
