"""Load normlog before numpy, so the tests run BLAS at the one thread
every normlog process runs it at (see ``normlog/__init__.py``): numpy
reads the thread variables once, when it loads."""

import sys

assert "numpy" not in sys.modules, "numpy was loaded before normlog"

import normlog  # noqa: E402,F401
