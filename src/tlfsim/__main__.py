"""``python -m tlfsim``: the same command line as the ``tlfsim`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
