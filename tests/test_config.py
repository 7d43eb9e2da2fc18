"""The pytest settings of pyproject.toml: a failing test is reported, not an
internal error, under the warnings-as-errors filters."""

pytest_plugins = ["pytester"]


def test_failing_hypothesis_property_is_reported_as_failed(pytester, pytestconfig):
    filters = pytestconfig.getini("filterwarnings")
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_always_fails(x):
            assert x != x
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1)
