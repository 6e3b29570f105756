"""`python -m cvbench ...` runs the command line (same as the `cvbench` script)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
