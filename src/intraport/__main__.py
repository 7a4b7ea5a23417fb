"""python -m intraport: the command-line interface of intraport.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
