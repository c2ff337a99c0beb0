import pickle

from oniongraph.errors import DataError, ParseError, StageError


def round_trip(exc):
    return pickle.loads(pickle.dumps(exc))


def test_stage_error_survives_pickling():
    exc = round_trip(StageError("metrics", DataError("graph g is empty")))
    assert type(exc) is StageError
    assert exc.stage == "metrics"
    assert type(exc.cause) is DataError and str(exc.cause) == "graph g is empty"
    assert str(exc) == "stage 'metrics' failed: graph g is empty"


def test_parse_error_survives_pickling():
    exc = round_trip(ParseError("depth must be >= 0", line_no=7))
    assert type(exc) is ParseError
    assert exc.line_no == 7
    assert str(exc) == "line 7: depth must be >= 0"
