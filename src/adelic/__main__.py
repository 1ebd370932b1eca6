"""``python -m adelic``: the command-line driver, without the console script."""

import sys

from .cli import main

sys.exit(main())
