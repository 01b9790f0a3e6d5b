"""`python -m ospkit`: the command line front end of `ospkit.cli`."""
from .cli import main

raise SystemExit(main())
