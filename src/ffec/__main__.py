"""`python -m ffec` runs the command-line front end, as `ffec` does."""

import sys

from .cli import main

sys.exit(main())
