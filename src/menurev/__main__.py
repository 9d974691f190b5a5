"""`python -m menurev`: the command-line interface of `menurev.cli`."""
import sys

from .cli import main

sys.exit(main())
