import hashlib

import pytest

from gbsdeform import (
    GenerationError,
    RandomGraphSpec,
    analyze,
    apply_move,
    betti_number,
    format_script,
    random_graph,
    reduce_graph,
    rigidity_trial,
    serialize_graph,
)

from strategies import assert_valid


def test_generator_is_reproducible():
    spec = RandomGraphSpec(num_vertices=4, num_edges=5, index_range=(2, 9))
    assert random_graph(spec, 1) == random_graph(spec, 1)
    assert random_graph(spec, 1) != random_graph(spec, 2)


def test_generator_respects_spec():
    spec = RandomGraphSpec(num_vertices=4, num_edges=6, index_range=(2, 9))
    for seed in range(30):
        g = random_graph(spec, seed)
        assert_valid(g)
        assert len(g.vertices) == 4 and len(g.edges) == 6
        assert betti_number(g) == 3
        for e in g.edges:
            assert 2 <= abs(e.i0) <= 9 and 2 <= abs(e.i1) <= 9


def test_generator_requirements():
    reduced_spec = RandomGraphSpec(num_vertices=3, num_edges=3, index_range=(1, 9),
                                   require="reduced")
    for seed in range(10):
        assert analyze(random_graph(reduced_spec, seed)).reduced
    ssf_spec = RandomGraphSpec(num_vertices=2, num_edges=1, index_range=(2, 9),
                               require="strongly_slide_free")
    g = random_graph(ssf_spec, 1)
    e = g.edges[0]
    if not e.is_loop:
        table = g.end_table()
        assert len(table[e.v0]) == 1 and len(table[e.v1]) == 1
    else:
        assert e.i1 % e.i0 != 0 and e.i0 % e.i1 != 0
    report = analyze(g)
    assert report.strongly_slide_free and report.reduced


def test_generator_impossible_specs():
    with pytest.raises(GenerationError, match="cannot be connected"):
        RandomGraphSpec(num_vertices=3, num_edges=1)
    # all-unit indices can never be strongly slide-free with two ends about
    spec = RandomGraphSpec(num_vertices=2, num_edges=2, index_range=(1, 1),
                           require="strongly_slide_free")
    with pytest.raises(GenerationError, match="retries|tries"):
        random_graph(spec, 0)


@pytest.mark.parametrize("kwargs,message", [
    (dict(num_vertices=0, num_edges=0), "need at least one vertex"),
    (dict(num_vertices=2, num_edges=1, index_range=(0, 3)),
     "index range must satisfy 1 <= lo <= hi"),
    (dict(num_vertices=2, num_edges=1, require="bogus"), "unknown requirement 'bogus'"),
])
def test_spec_rejects_bad_fields(kwargs, message):
    with pytest.raises(ValueError) as info:
        RandomGraphSpec(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs,message", [
    (dict(num_vertices=2, num_edges=1, index_range=(2.5, 4)),
     "index_range must be a pair of ints, got (2.5, 4)"),
    (dict(num_vertices=2, num_edges=1, index_range=(2, True)),
     "index_range must be a pair of ints, got (2, True)"),
    (dict(num_vertices=2, num_edges=1, index_range=5), "index_range must be a pair of ints, got 5"),
    (dict(num_vertices=2, num_edges=1, index_range=(1, 2, 3)),
     "index_range must be a pair of ints, got (1, 2, 3)"),
])
def test_spec_rejects_a_range_that_is_not_a_pair_of_ints(kwargs, message):
    # Each is refused where it is given, not later inside random_graph.
    with pytest.raises(ValueError) as info:
        RandomGraphSpec(**kwargs)
    assert str(info.value) == message
    assert not isinstance(info.value, GenerationError)


def test_rigidity_trial_on_a_point_stops_at_once():
    # A point has no legal move, so the trial applies none and still passes.
    trial = rigidity_trial(1, 0, 3, 0)
    assert trial.passed
    assert trial.moves == ()
    assert trial.start == random_graph(RandomGraphSpec(1, 0), 0)


def test_rigidity_trials_pass_and_replay():
    for seed in range(30):
        nv = 2 + seed % 4
        trial = rigidity_trial(nv, nv - 1 + seed % 2, num_moves=8, seed=seed)
        assert trial.passed, (seed, trial.start, trial.moves)
        # The witness replays: the moves from start, then reduce_graph's output.
        scrambled = trial.start
        for move in trial.moves:
            scrambled = apply_move(scrambled, move)
        for g in (trial.start, scrambled, reduce_graph(scrambled)[0]):
            assert_valid(g)
        again = rigidity_trial(nv, nv - 1 + seed % 2, num_moves=8, seed=seed)
        assert again.moves == trial.moves
        assert again.start == trial.start


def test_rigidity_trial_zero_moves():
    trial = rigidity_trial(3, 3, num_moves=0, seed=5)
    assert trial.passed
    assert trial.moves == ()
    assert reduce_graph(trial.start) == (trial.start, ())


def test_rigidity_start_is_reduced_and_slide_free():
    trial = rigidity_trial(4, 4, num_moves=2, seed=9)
    report = analyze(trial.start)
    assert report.strongly_slide_free
    assert report.reduced
    assert all(2 <= abs(e.i0) <= 9 and 2 <= abs(e.i1) <= 9 for e in trial.start.edges)


# The start graph and move script of 200 trials of `scripts/rigidity_sweep.py
# --seed 0 --moves 12 --max-vertices 5`, as .gbs text and move-script text.
RIGIDITY_SHA256 = "e2b1fd573e096b985664c255cea7016d2f6cdf1f9fbdfa29e07f8a70c799567c"


def test_the_rigidity_trial_stream_is_pinned():
    digest = hashlib.sha256()
    for seed in range(200):
        nv = 2 + seed % 4
        trial = rigidity_trial(nv, nv - 1 + seed % 2, num_moves=12, seed=seed)
        assert trial.passed, seed
        digest.update(serialize_graph(trial.start).encode())
        digest.update(format_script(trial.moves).encode())
    assert digest.hexdigest() == RIGIDITY_SHA256
