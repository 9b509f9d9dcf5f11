"""``python -m oddcolor``: the same command line as the ``oddcolor`` script."""

import sys

from .cli import main

sys.exit(main())
