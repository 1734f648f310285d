"""The Python example of the README, run as a doctest."""

import doctest
import os

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_example():
    result = doctest.testfile(README, module_relative=False)
    assert result.attempted > 0 and result.failed == 0
