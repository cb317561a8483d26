"""Run the inline usage examples embedded in module docstrings."""

import doctest

import pytest

from smckit import cli, kleisli, monoidal, perms, slist, spans, terms, unbias


@pytest.mark.parametrize("module", [perms, slist, monoidal, terms, spans, kleisli, unbias, cli])
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
