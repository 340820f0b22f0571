"""`python -m nfbf`: the same command line as the installed `nfbf` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
