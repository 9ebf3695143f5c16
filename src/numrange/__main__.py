"""python -m numrange: the numrange command line, as the installed entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
