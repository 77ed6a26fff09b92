import os
import sys
import warnings

sys.path.insert(0, os.path.dirname(__file__))

# hypothesis imports its patch writer (and through it libcst, whose
# mypy_extensions.TypedDict warns) only when a @given test fails; under
# filterwarnings = ["error"] that warning ends the session in INTERNALERROR
# before the falsifying example is printed.  Import it here, quietly.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: E402,F401
