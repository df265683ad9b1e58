"""``python -m hirotaweb``: the ``hirotaweb`` command line, exiting with its code."""

from .cli import main

raise SystemExit(main())
