"""Exit 1, naming them, if importing blockscope.cli loads dataclasses, inspect
or hashlib.

All three are slow to import (dataclasses pulls in inspect, ast, dis and
tokenize; hashlib loads OpenSSL), and every blockscope command is a fresh
process that pays for its imports. Only an analysis needs hashlib, for the
input digests, so the CLI imports it there.
The modules loaded are compared against this interpreter's own start, so
what site hooks import does not count. Run it with the package to check on
the path:

    PYTHONPATH=src python tests/import_guard.py     # the source checkout
    python tests/import_guard.py                    # an installed package
"""

import sys

FORBIDDEN = {"dataclasses", "inspect", "hashlib"}

before = set(sys.modules)
import blockscope.cli  # noqa: E402

loaded = sorted(FORBIDDEN & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import blockscope.cli loaded {', '.join(loaded)} ({blockscope.cli.__file__})")
