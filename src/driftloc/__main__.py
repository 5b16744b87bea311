"""``python -m driftloc``: the ``driftloc`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
