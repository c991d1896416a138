import numpy as np

from fewstep.seeding import (
    STREAM_GROUND_TRUTH,
    STREAM_INITIAL_NOISE,
    STREAM_PROJECTIONS,
    STREAM_RENOISE,
    stream,
)


def test_purposes_are_distinct_constants():
    purposes = {STREAM_INITIAL_NOISE, STREAM_RENOISE, STREAM_GROUND_TRUTH, STREAM_PROJECTIONS}
    assert purposes == {0, 1, 2, 3}


def test_same_seed_and_purpose_reproduce_the_stream():
    a = stream(7, STREAM_RENOISE).standard_normal(16)
    b = stream(7, STREAM_RENOISE).standard_normal(16)
    assert np.array_equal(a, b)


def test_purposes_decorrelate_streams_under_one_seed():
    draws = [
        stream(7, purpose).standard_normal(16)
        for purpose in (STREAM_INITIAL_NOISE, STREAM_RENOISE, STREAM_GROUND_TRUTH)
    ]
    assert not np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[1], draws[2])
    assert not np.array_equal(draws[0], draws[2])


def test_seed_changes_every_stream():
    a = stream(0, STREAM_INITIAL_NOISE).standard_normal(8)
    b = stream(1, STREAM_INITIAL_NOISE).standard_normal(8)
    assert not np.array_equal(a, b)


def test_accepts_numpy_integers():
    a = stream(np.int64(3), np.int64(1)).standard_normal(4)
    b = stream(3, 1).standard_normal(4)
    assert np.array_equal(a, b)
