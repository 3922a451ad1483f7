"""``python -m cotrig ...`` runs the ``cotrig`` command."""

import sys

from .cli import main

sys.exit(main())
