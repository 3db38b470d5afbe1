"""Exit 1, naming them, if importing blockscope.cli loads dataclasses or inspect.

Both are slow to import (dataclasses pulls in inspect, ast, dis and tokenize),
and every blockscope command is a fresh process that pays for its imports.
The modules loaded are compared against this interpreter's own start, so
what site hooks import does not count. Run it with the package to check on
the path:

    PYTHONPATH=src python tests/import_guard.py     # the source checkout
    python tests/import_guard.py                    # an installed package
"""

import sys

FORBIDDEN = {"dataclasses", "inspect"}

before = set(sys.modules)
import blockscope.cli  # noqa: E402

loaded = sorted(FORBIDDEN & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import blockscope.cli loaded {', '.join(loaded)} ({blockscope.cli.__file__})")
