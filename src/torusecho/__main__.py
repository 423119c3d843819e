"""`python -m torusecho`: the `torusecho` command, runnable from a checkout without an install."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
