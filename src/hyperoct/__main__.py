"""``python -m hyperoct``: the command-line interface of ``hyperoct.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
