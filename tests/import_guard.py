"""Exit 1, naming them, if importing blockscope.cli loads dataclasses, inspect,
hashlib, random, csv or json.

dataclasses pulls in inspect, ast, dis and tokenize, and hashlib loads
OpenSSL; every blockscope command is a fresh process that pays for its
imports. The last four serve one job each: only an analysis needs hashlib,
for the input digests, only `blockscope fixtures` needs random, only CSV
output needs csv, and only structured output and profiles need json (a
profile's fires lists are read with json.loads). So each is imported where
it is used.
The modules loaded are compared against this interpreter's own start, so
what site hooks import does not count. Run it with the package to check on
the path:

    PYTHONPATH=src python tests/import_guard.py     # the source checkout
    python tests/import_guard.py                    # an installed package
"""

import sys

FORBIDDEN = {"dataclasses", "inspect", "hashlib", "random", "csv", "json"}

before = set(sys.modules)
import blockscope.cli  # noqa: E402

loaded = sorted(FORBIDDEN & (set(sys.modules) - before))
if loaded:
    sys.exit(f"import blockscope.cli loaded {', '.join(loaded)} ({blockscope.cli.__file__})")
