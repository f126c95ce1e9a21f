"""Session setup shared by every test module."""

import warnings

# Hypothesis's pytest plugin imports its patch writer while it reports a
# failing property.  That module imports libcst, whose use of
# mypy_extensions.TypedDict raises a DeprecationWarning, and under -W error
# the warning turns the report into a pytest INTERNALERROR that hides the
# falsifying example.  Importing the module once here, with only that message
# ignored, leaves -W error in force for everything else.  libcst is optional.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
