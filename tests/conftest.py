import pytest

from twistlab.action import default_action
from twistlab.ring import RingContext
from twistlab.tower import TowerConfig, build_tower


@pytest.fixture(scope="session")
def tower223():
    return build_tower(TowerConfig(2, 2, 3))


@pytest.fixture(scope="session")
def action_n1():
    return default_action(1, 2)


@pytest.fixture(scope="session")
def action_n2():
    return default_action(2, 2)


@pytest.fixture(scope="session")
def ctx_n2_k1(tower223, action_n2):
    return RingContext(tower223, action_n2, 1)


@pytest.fixture(scope="session")
def ctx_n2_k2(tower223, action_n2):
    return RingContext(tower223, action_n2, 2)


@pytest.fixture(scope="session")
def ctx_n1_k1(tower223, action_n1):
    return RingContext(tower223, action_n1, 1)


@pytest.fixture
def container_sizes():
    """Sizes of a context's dict, list and set attributes; a context with no
    per-word state keeps them under any amount of arithmetic."""
    def sizes(ctx):
        return {name: len(v) for name, v in vars(ctx).items()
                if isinstance(v, (dict, list, set))}
    return sizes


@pytest.fixture
def field_op_counts(monkeypatch):
    """Counts of FieldElement.__mul__, TowerLevel.frobenius,
    FieldElement.coords and FieldElement.__init__ calls made while the test
    runs."""
    from collections import Counter

    from twistlab.tower import FieldElement, TowerLevel

    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(FieldElement, "__mul__", counted("mul", FieldElement.__mul__))
    monkeypatch.setattr(TowerLevel, "frobenius", counted("frobenius", TowerLevel.frobenius))
    monkeypatch.setattr(FieldElement, "coords",
                        property(counted("coords", FieldElement.coords.fget)))
    monkeypatch.setattr(FieldElement, "__init__", counted("init", FieldElement.__init__))
    return counts
