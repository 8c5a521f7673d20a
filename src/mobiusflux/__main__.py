"""``python -m mobiusflux``: the ``mobiusflux`` command, exiting with its code."""

import sys

from .cli import main

sys.exit(main())
