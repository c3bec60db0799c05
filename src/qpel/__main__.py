"""`python -m qpel`: the `qpel` command line."""
import sys

from .cli import main

sys.exit(main())
