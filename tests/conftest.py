"""Test-session set-up shared by every test module.

To report a failing ``@given`` example, hypothesis imports
``hypothesis.extra._patching``, which imports ``libcst``; that import raises
a ``mypy_extensions`` DeprecationWarning, and the ``error::DeprecationWarning``
filter of ``pyproject.toml`` turns it into an INTERNALERROR that ends the
session and loses every other result.  Importing the module once here, with
that one warning ignored, leaves the filters in force for everything else.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: hypothesis reports failures without it
        pass
