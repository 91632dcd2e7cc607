import inspect

import overpseudo


def test_public_functions_take_inputs_and_an_optional_budget():
    """No public function takes a factorization or a member cap; budget is
    the only keyword-only parameter."""
    functions = [getattr(overpseudo, name) for name in overpseudo.__all__]
    functions = [f for f in functions if inspect.isfunction(f)]
    assert len(functions) > 20
    for f in functions:
        params = inspect.signature(f).parameters
        assert not {"factorization", "members_cap"} & set(params), f.__name__
        keyword_only = [name for name, p in params.items()
                        if p.kind is p.KEYWORD_ONLY]
        assert keyword_only in ([], ["budget"]), f.__name__
        if "budget" in params:
            assert params["budget"].default is None, f.__name__
