"""JSON documents are strict: no ``NaN`` or ``Infinity`` token is written."""

import json
import math

import pytest

from harmap import reports
from harmap.reports import dump_json


def _strict(text: str):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_parts_of_a_complex_value_become_null():
    doc = {"w": complex(math.nan, 1.0), "v": [complex(2.0, -math.inf)], "x": math.inf}
    assert _strict(dump_json(doc)) == {"w": [None, 1.0], "v": [[2.0, None]], "x": None}


def test_dump_json_refuses_a_non_finite_value_it_is_handed(monkeypatch):
    # the strict encoder is the last guard behind the conversion to null
    monkeypatch.setattr(reports, "_json_safe", lambda value: value)
    with pytest.raises(ValueError):
        dump_json({"x": math.nan})
