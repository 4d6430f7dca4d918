"""Run the command line front end: `python -m chowlab exp s6-residue`."""

import sys

from .cli import main

sys.exit(main())
