import pytest

from fewstep.importance import compute_importance
from fewstep.schedules import build_schedule


@pytest.fixture(scope="session")
def linear_schedule():
    return build_schedule("linear", 1000, 1e-4, 0.02)


@pytest.fixture(scope="session")
def default_curve(linear_schedule):
    return compute_importance(linear_schedule)
