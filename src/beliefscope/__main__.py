"""``python -m beliefscope``: the same CLI as the ``beliefscope`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
