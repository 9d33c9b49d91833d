"""``python -m sqzq.cli``, on the CLI package that ``import sqzq`` loaded."""

import sys

from . import main

sys.exit(main())
