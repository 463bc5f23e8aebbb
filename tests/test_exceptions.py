import inspect
import pickle

import pytest

from resizedboot import exceptions

CLASSES = [
    cls
    for _, cls in inspect.getmembers(exceptions, inspect.isclass)
    if issubclass(cls, exceptions.ResizedBootError)
]
# classes whose constructor takes more than the message
ARGS = {
    exceptions.CurveNotBracketingError: (24.7, 20.0),
    exceptions.TooManyFailuresError: (7, 9, "coverage repetition"),
}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # an error raised in a worker process reaches the caller pickled
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
    assert back.args == exc.args
